package core

import (
	"fmt"

	"ecsort/internal/knowledge"
	"ecsort/internal/model"
)

// RoundRobin is the sequential equivalence class sorting regimen of
// Jayapaul, Munro, Raman, and Satti used for the distribution-based
// analysis of Section 4: each element x, in cyclic passes, initiates a
// comparison with the next element y whose relationship to x is unknown,
// until all equivalence classes are known.
//
// "Unknown" is judged against the full knowledge graph (Figure 2): x's
// fragment must have no recorded relationship with y's fragment. The key
// property this regimen guarantees — Lemma in [12], relied on by Theorem 7
// — is that at most 2·min(Y_i, Y_j) tests ever occur between classes of
// sizes Y_i and Y_j.
//
// Every comparison is charged as one sequential round; the quantity of
// interest here is Stats().Comparisons.
func RoundRobin(s *model.Session) (Result, error) {
	n := s.N()
	if n == 0 {
		return Result{Stats: s.Stats()}, nil
	}
	g := knowledge.New(n)
	// ptr[x] counts how many cyclic successors of x have been either
	// tested or skipped; the next candidate is (x + 1 + ptr[x]) mod n.
	// Pointers only advance, so each element scans each other element at
	// most once over the whole run.
	ptr := make([]int, n)
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	for !g.Complete() {
		progress := false
		still := active[:0]
		for _, x := range active {
			// Comparisons go through Compare (one sequential round each),
			// which cannot report cancellation — poll the session context
			// here so a cancelled sort stops between rounds.
			if err := s.Err(); err != nil {
				return Result{}, err
			}
			if g.DoneFor(x) {
				continue
			}
			if roundRobinStep(s, g, ptr, x) {
				progress = true
			}
			still = append(still, x)
		}
		active = still
		if !progress {
			if !g.Complete() {
				return Result{}, fmt.Errorf("core: round-robin stalled with %d fragments, %d edges", g.Fragments(), g.Edges())
			}
			break
		}
	}
	return Result{Classes: g.Groups(), Stats: s.Stats()}, nil
}

// roundRobinStep advances x's pointer past known relationships and
// performs at most one comparison. It reports whether a comparison
// happened.
func roundRobinStep(s *model.Session, g *knowledge.Graph, ptr []int, x int) bool {
	n := g.N()
	for ptr[x] < n-1 {
		y := (x + 1 + ptr[x]) % n
		if _, known := g.Known(x, y); known {
			ptr[x]++
			continue
		}
		ptr[x]++
		if s.Compare(x, y) {
			g.RecordEqual(x, y)
		} else {
			g.RecordUnequal(x, y)
		}
		return true
	}
	return false
}
