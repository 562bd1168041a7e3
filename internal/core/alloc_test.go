package core

import (
	"math/rand"
	"testing"

	"ecsort/internal/model"
	"ecsort/internal/oracle"
)

// Allocation regression guards for the flat merge engine. The map-keyed
// engine these bounds replaced spent 213 allocs per MergeGroupCR of 24
// answers and ~8.7k allocs per 128-element flush; the flat engine's
// steady state is the output answer's backing (MergeGroupCR) and
// amortized pool growth (Flush). Workers(1) keeps the session off the
// goroutine-spawning execute path, which allocates by nature.

func TestMergeGroupCRAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	truth := oracle.RandomBalanced(512, 8, rand.New(rand.NewSource(31)))
	s := model.NewSession(truth, model.CR, model.Workers(1))
	ar, answers := newCRArena(512)
	for len(answers) > 24 {
		next, err := mergePairsCR(s, ar, answers)
		if err != nil {
			t.Fatal(err)
		}
		answers = next
	}
	// Copy out of the arena: the benchmark group must survive arena reuse.
	group := make([]Answer, len(answers))
	for i, a := range answers {
		group[i] = NewAnswer(a.Classes())
	}
	if _, err := MergeGroupCR(s, group); err != nil { // warm the scratch pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := MergeGroupCR(s, group); err != nil {
			t.Fatal(err)
		}
	})
	// Steady state: the merged answer's elems+offs plus pool jitter.
	if allocs > 8 {
		t.Errorf("MergeGroupCR steady state = %v allocs/op, want <= 8 (was 213 before the flat engine)", allocs)
	}
}

func TestSortERAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	truth := oracle.RandomBalanced(1024, 6, rand.New(rand.NewSource(17)))
	s := model.NewSession(truth, model.ER, model.Workers(1))
	ar := newERArena(1024)
	if _, err := sortERArena(s, ar); err != nil { // warm the arena
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := sortERArena(s, ar); err != nil {
			t.Fatal(err)
		}
	})
	// Steady state: every rotation round and pair merge runs out of the
	// arena (the map-keyed pairPlan path allocated per merge AND per
	// rotation round).
	if allocs > 2 {
		t.Errorf("SortER steady state = %v allocs/op, want <= 2", allocs)
	}
}

func TestIncrementalFlushAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, fold := range []struct {
		name   string
		newInc func(*model.Session) (*Incremental, error)
	}{{"rep-first", NewIncremental}, {"group", NewIncrementalGroupFold}} {
		truth := oracle.RandomBalanced(1<<16, 8, rand.New(rand.NewSource(33)))
		s := model.NewSession(truth, model.CR, model.Workers(1))
		inc, err := fold.newInc(s)
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		add := func(count int) {
			for i := 0; i < count; i++ {
				if err := inc.Add(next); err != nil {
					t.Fatal(err)
				}
				next++
			}
		}
		add(2048) // reach steady state: all 8 classes discovered, pools warm
		if err := inc.Flush(); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			add(128)
			if err := inc.Flush(); err != nil {
				t.Fatal(err)
			}
		})
		// Steady state is zero; allow amortized doubling of the answer pools.
		if allocs > 4 {
			t.Errorf("%s: Add*128+Flush steady state = %v allocs/op, want <= 4 (was ~8.7k before the flat engine)", fold.name, allocs)
		}
	}
}

// TestRepFirstFlushZeroAllocs pins the representative-first fold's steady
// state at exactly zero allocations, with both rounds in play: each run
// adds 120 elements of the 8 existing classes (round A matches) and 8
// of new classes (round B merges them), flushes, then deletes the 128 so
// the answer returns to its old shape and no pool ever needs to grow.
// Every scratch buffer — pairs, results, match, cursors, the round-B
// group — must live in the sorter.
func TestRepFirstFlushZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n = 1 << 14
	labels := make([]int, n)
	for e := range labels {
		labels[e] = e % 8
		if e >= 2048 && e%16 == 0 {
			labels[e] = e // a class of its own
		}
	}
	inc, err := NewIncremental(model.NewSession(oracle.NewLabel(labels), model.CR, model.Workers(1)))
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for _, size := range []int{8, 2040} { // discover the 8 classes, then fill them
		for ; size > 0; size-- {
			if err := inc.Add(next); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if err := inc.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	k := len(inc.Snapshot())
	run := func() {
		first := next
		for ; next < first+128; next++ {
			if err := inc.Add(next); err != nil {
				t.Fatal(err)
			}
		}
		if err := inc.Flush(); err != nil {
			t.Fatal(err)
		}
		for e := first; e < next; e++ {
			if err := inc.Delete(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Two runs size both answer pools for the grown answer. Then one run
	// per measurement, so a single allocation anywhere shows
	// (AllocsPerRun truncates its average).
	run()
	run()
	for i := 0; i < 20; i++ {
		if allocs := testing.AllocsPerRun(1, run); allocs != 0 {
			t.Fatalf("measurement %d: Add*128+Flush+Delete*128 = %v allocs, want 0", i, allocs)
		}
	}
	if got := len(inc.Snapshot()); got != k {
		t.Fatalf("answer has %d classes after the runs, want %d", got, k)
	}
}
