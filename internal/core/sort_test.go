package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ecsort/internal/model"
	"ecsort/internal/oracle"
)

// sorters enumerates the complete-sort algorithms under test, each with
// the session mode it requires.
type sorterCase struct {
	name string
	mode model.Mode
	run  func(s *model.Session, k int, rng *rand.Rand) (Result, error)
}

func allSorters() []sorterCase {
	return []sorterCase{
		{"SortCR", model.CR, func(s *model.Session, k int, _ *rand.Rand) (Result, error) {
			return SortCR(s, k)
		}},
		{"SortER", model.ER, func(s *model.Session, _ int, _ *rand.Rand) (Result, error) {
			return SortER(s)
		}},
		{"RoundRobin", model.ER, func(s *model.Session, _ int, _ *rand.Rand) (Result, error) {
			return RoundRobin(s)
		}},
		{"Naive", model.ER, func(s *model.Session, _ int, _ *rand.Rand) (Result, error) {
			return Naive(s)
		}},
	}
}

func checkResult(t *testing.T, res Result, truth *oracle.Label) {
	t.Helper()
	n := truth.N()
	got := res.Labels(n)
	want := truth.Labels()
	if !SameClassification(got, want) {
		t.Fatalf("classification mismatch:\n got %v\nwant %v", got, want)
	}
	// Every element covered exactly once.
	covered := make([]bool, n)
	for _, c := range res.Classes {
		for _, e := range c {
			if covered[e] {
				t.Fatalf("element %d in two classes", e)
			}
			covered[e] = true
		}
	}
	for e, ok := range covered {
		if !ok {
			t.Fatalf("element %d not classified", e)
		}
	}
}

func TestSortersCorrectOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := []struct{ n, k int }{
		{1, 1}, {2, 1}, {2, 2}, {3, 2}, {7, 3}, {16, 4},
		{33, 5}, {64, 2}, {100, 10}, {257, 17}, {500, 31},
	}
	for _, sc := range allSorters() {
		for _, tc := range cases {
			truth := oracle.RandomBalanced(tc.n, tc.k, rng)
			s := model.NewSession(truth, sc.mode)
			res, err := sc.run(s, truth.NumClasses(), rng)
			if err != nil {
				t.Fatalf("%s n=%d k=%d: %v", sc.name, tc.n, tc.k, err)
			}
			checkResult(t, res, truth)
		}
	}
}

func TestSortersCorrectQuick(t *testing.T) {
	for _, sc := range allSorters() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				n := 1 + rng.Intn(60)
				k := 1 + rng.Intn(n)
				truth := oracle.RandomBalanced(n, k, rng)
				s := model.NewSession(truth, sc.mode)
				res, err := sc.run(s, truth.NumClasses(), rng)
				if err != nil {
					return false
				}
				return SameClassification(res.Labels(n), truth.Labels())
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSortCRSkewedSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	truth := oracle.RandomSizes([]int{1, 1, 5, 40, 200}, rng)
	s := model.NewSession(truth, model.CR)
	res, err := SortCR(s, 5)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, truth)
}

func TestSortERSkewedSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	truth := oracle.RandomSizes([]int{1, 2, 100, 3, 150}, rng)
	s := model.NewSession(truth, model.ER)
	res, err := SortER(s)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, truth)
}

func TestSortCRWrongMode(t *testing.T) {
	truth := oracle.NewLabel([]int{0, 0, 1})
	if _, err := SortCR(model.NewSession(truth, model.ER), 2); err == nil {
		t.Fatal("SortCR accepted an ER session")
	}
	if _, err := SortER(model.NewSession(truth, model.CR)); err == nil {
		t.Fatal("SortER accepted a CR session")
	}
}

func TestSortCRBadK(t *testing.T) {
	truth := oracle.NewLabel([]int{0, 0, 1})
	if _, err := SortCR(model.NewSession(truth, model.CR), 0); err == nil {
		t.Fatal("SortCR accepted k=0")
	}
}

func TestSortCRWithOverestimatedK(t *testing.T) {
	// k only steers the phase switch; any upper bound keeps correctness.
	rng := rand.New(rand.NewSource(5))
	truth := oracle.RandomBalanced(120, 4, rng)
	s := model.NewSession(truth, model.CR)
	res, err := SortCR(s, 11)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, truth)
}

// TestTheorem1RoundBound checks CR rounds stay within O(k + log log n):
// flat in n for fixed k.
func TestTheorem1RoundBound(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	k := 8
	for _, n := range []int{256, 1024, 4096, 16384} {
		truth := oracle.RandomBalanced(n, k, rng)
		s := model.NewSession(truth, model.CR)
		if _, err := SortCR(s, k); err != nil {
			t.Fatal(err)
		}
		rounds := s.Stats().Rounds
		loglog := math.Log2(math.Log2(float64(n)) + 1)
		bound := int(12*float64(k) + 8*loglog + 24)
		if rounds > bound {
			t.Errorf("n=%d k=%d: CR rounds = %d exceeds O(k + loglog n) budget %d",
				n, k, rounds, bound)
		}
	}
}

// TestTheorem2RoundBound checks ER rounds stay within O(k log n).
func TestTheorem2RoundBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	k := 6
	for _, n := range []int{128, 512, 2048} {
		truth := oracle.RandomBalanced(n, k, rng)
		s := model.NewSession(truth, model.ER)
		if _, err := SortER(s); err != nil {
			t.Fatal(err)
		}
		rounds := s.Stats().Rounds
		bound := int(2*float64(k)*math.Log2(float64(n))) + 8
		if rounds > bound {
			t.Errorf("n=%d k=%d: ER rounds = %d exceeds O(k log n) budget %d",
				n, k, rounds, bound)
		}
	}
}

// TestERSessionsNeverConflict re-runs SortER with a wrapped oracle that
// fails the test if the session ever reports an ER violation; the session
// itself errors in that case, so reaching a result is the assertion.
func TestERSchedulesAreExclusive(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(80)
		k := 1 + rng.Intn(n)
		truth := oracle.RandomBalanced(n, k, rng)
		s := model.NewSession(truth, model.ER)
		if _, err := SortER(s); err != nil {
			t.Fatalf("trial %d (n=%d k=%d): %v", trial, n, k, err)
		}
	}
}

// TestNaiveComparisonBound: at most n·k comparisons.
func TestNaiveComparisonBound(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	truth := oracle.RandomBalanced(300, 7, rng)
	s := model.NewSession(truth, model.ER)
	res, err := Naive(s)
	if err != nil {
		t.Fatal(err)
	}
	if c := res.Stats.Comparisons; c > int64(300*7) {
		t.Errorf("naive comparisons = %d > n·k = %d", c, 300*7)
	}
}

// TestRoundRobinLemma verifies the [12] lemma underpinning Theorem 7: the
// round-robin regimen performs at most 2·min(Y_i, Y_j) tests between any
// two classes.
func TestRoundRobinLemma(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 25; trial++ {
		n := 20 + rng.Intn(150)
		k := 2 + rng.Intn(8)
		truth := oracle.RandomBalanced(n, k, rng)
		labels := truth.Labels()
		sizes := map[int]int{}
		for _, l := range labels {
			sizes[l]++
		}
		inner := model.NewSession(truth, model.ER, model.Workers(1))
		res, audit, err := crossClassAudit(inner, labels)
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, res, truth)
		for pair, tests := range audit {
			if pair[0] == pair[1] {
				continue // within-class tests are not bounded by the lemma
			}
			bound := 2 * min(sizes[pair[0]], sizes[pair[1]])
			if tests > bound {
				t.Fatalf("trial %d: classes %v got %d cross tests, lemma bound %d (sizes %d, %d)",
					trial, pair, tests, bound, sizes[pair[0]], sizes[pair[1]])
			}
		}
	}
}

// crossClassAudit runs the round-robin regimen against a truth labeling
// and returns, for every unordered pair of true classes (i, j), the number
// of tests performed between them. Tests use the same session; the audit
// lets TestRoundRobinLemma check the 2·min(Y_i, Y_j) lemma that Theorem
// 7's stochastic-dominance argument rests on.
func crossClassAudit(s *model.Session, truth []int) (Result, map[[2]int]int, error) {
	audit := make(map[[2]int]int)
	counting := &auditOracle{inner: s, truth: truth, audit: audit}
	res, err := RoundRobin(model.NewSession(counting, s.Mode(), model.Workers(1)))
	if err != nil {
		return Result{}, nil, err
	}
	// Replace stats with the inner session's (the outer session double
	// counts nothing: counting forwards to s.Compare which accounts).
	res.Stats = s.Stats()
	return res, audit, nil
}

// auditOracle forwards comparisons to an underlying session while tallying
// them per true-class pair.
type auditOracle struct {
	inner *model.Session
	truth []int
	audit map[[2]int]int
}

func (a *auditOracle) N() int { return len(a.truth) }

func (a *auditOracle) Same(i, j int) bool {
	ci, cj := a.truth[i], a.truth[j]
	if ci > cj {
		ci, cj = cj, ci
	}
	a.audit[[2]int{ci, cj}]++
	return a.inner.Compare(i, j)
}

// TestRoundRobinComparisonsReasonable: for balanced classes the regimen
// should stay well under the all-pairs count.
func TestRoundRobinComparisonsReasonable(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n, k := 400, 5
	truth := oracle.RandomBalanced(n, k, rng)
	s := model.NewSession(truth, model.ER)
	res, err := RoundRobin(s)
	if err != nil {
		t.Fatal(err)
	}
	// Σ_{i<j} 2·min(Y_i,Y_j) + (n − k) merges ≤ 2·(k choose 2)·(n/k) + n.
	bound := int64(2*(k*(k-1)/2)*(n/k+1) + n)
	if res.Stats.Comparisons > bound {
		t.Errorf("round-robin comparisons = %d > bound %d", res.Stats.Comparisons, bound)
	}
}

func TestEmptyInput(t *testing.T) {
	truth := oracle.NewLabel(nil)
	for _, sc := range allSorters() {
		s := model.NewSession(truth, sc.mode)
		res, err := sc.run(s, 1, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("%s on empty input: %v", sc.name, err)
		}
		if len(res.Classes) != 0 {
			t.Fatalf("%s on empty input returned classes %v", sc.name, res.Classes)
		}
	}
}

func TestSingleElement(t *testing.T) {
	truth := oracle.NewLabel([]int{42})
	for _, sc := range allSorters() {
		s := model.NewSession(truth, sc.mode)
		res, err := sc.run(s, 1, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		if len(res.Classes) != 1 || len(res.Classes[0]) != 1 || res.Classes[0][0] != 0 {
			t.Fatalf("%s: classes = %v", sc.name, res.Classes)
		}
		if res.Stats.Comparisons != 0 {
			t.Fatalf("%s: single element cost %d comparisons", sc.name, res.Stats.Comparisons)
		}
	}
}

func TestAllSameClass(t *testing.T) {
	labels := make([]int, 50)
	truth := oracle.NewLabel(labels)
	for _, sc := range allSorters() {
		s := model.NewSession(truth, sc.mode)
		res, err := sc.run(s, 1, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		if len(res.Classes) != 1 || len(res.Classes[0]) != 50 {
			t.Fatalf("%s: want one class of 50, got %d classes", sc.name, len(res.Classes))
		}
	}
}

func TestAllDistinctClasses(t *testing.T) {
	labels := make([]int, 24)
	for i := range labels {
		labels[i] = i
	}
	truth := oracle.NewLabel(labels)
	for _, sc := range allSorters() {
		s := model.NewSession(truth, sc.mode)
		res, err := sc.run(s, 24, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		if len(res.Classes) != 24 {
			t.Fatalf("%s: want 24 classes, got %d", sc.name, len(res.Classes))
		}
	}
}
