package core

import (
	"fmt"

	"ecsort/internal/model"
)

// Ablations of the Theorem 1 design: reference implementations that
// TestAblationPhase1Matters and TestAblationPhase2Matters
// (ablation_test.go) compare SortCR against, with golden rows in
// golden_test.go, to show that each ingredient of the two-phase
// compounding-comparison technique earns its keep.

// SortCRPairwiseOnly is SortCR with phase 2 disabled: answers are only
// ever merged in pairs, all the way to a single answer. Without the
// compounding step the answer count halves per iteration, so the
// algorithm needs Θ(log n) iterations after the classes saturate —
// Θ(k + log n) rounds instead of Θ(k + log log n). Correctness is
// unaffected; the ablation isolates the value of group compounding.
//
//ecsort:ignore deadexport reference implementation that TestAblationPhase2Matters and golden rows compare SortCR against
func SortCRPairwiseOnly(s *model.Session, k int) (Result, error) {
	if s.Mode() != model.CR {
		return Result{}, fmt.Errorf("core: SortCRPairwiseOnly requires a CR session, got %v", s.Mode())
	}
	if k < 1 {
		return Result{}, fmt.Errorf("core: SortCRPairwiseOnly needs k >= 1, got %d", k)
	}
	n := s.N()
	if n == 0 {
		return Result{Stats: s.Stats()}, nil
	}
	ar, answers := newCRArena(n)
	for len(answers) > 1 {
		next, err := mergePairsCR(s, ar, answers)
		if err != nil {
			return Result{}, err
		}
		answers = next
	}
	return Result{Classes: answers[0].Classes(), Stats: s.Stats()}, nil
}

// SortCREagerGroups is SortCR with phase 1 disabled: it jumps straight to
// group merging with whatever processor ratio is available. With few
// processors per answer the early group rounds blow past the budget and
// must be split into many physical rounds — the ablation isolates why
// phase 1 must first build up 4k² processors per answer.
//
//ecsort:ignore deadexport reference implementation that TestAblationPhase1Matters and golden rows compare SortCR against
func SortCREagerGroups(s *model.Session, k int) (Result, error) {
	if s.Mode() != model.CR {
		return Result{}, fmt.Errorf("core: SortCREagerGroups requires a CR session, got %v", s.Mode())
	}
	if k < 1 {
		return Result{}, fmt.Errorf("core: SortCREagerGroups needs k >= 1, got %d", k)
	}
	n := s.N()
	if n == 0 {
		return Result{Stats: s.Stats()}, nil
	}
	p := n
	ar, answers := newCRArena(n)
	for len(answers) > 1 {
		c := p / (len(answers) * k * k)
		if c < 2 {
			c = 2
		}
		g := 2*c + 1
		if g > len(answers) {
			g = len(answers)
		}
		next, err := mergeGroupsCR(s, ar, answers, g)
		if err != nil {
			return Result{}, err
		}
		answers = next
	}
	return Result{Classes: answers[0].Classes(), Stats: s.Stats()}, nil
}
