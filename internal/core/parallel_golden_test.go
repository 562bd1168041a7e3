package core

import (
	"fmt"
	"math/rand"
	"testing"

	"ecsort/internal/model"
	"ecsort/internal/oracle"
	rt "ecsort/internal/runtime"
)

// The parallel determinism guarantee of the persistent round runtime:
// results are written by index, so at ANY Workers value the partitions,
// comparisons, physical rounds, and widest round must stay bit-identical
// to Workers(1) — which the golden cases pin to the pre-rewrite engine.

func goldenByName(t *testing.T, name string) goldenCase {
	t.Helper()
	for _, g := range goldenCases {
		if g.name == name {
			return g
		}
	}
	t.Fatalf("no golden case %q", name)
	return goldenCase{}
}

func checkGolden(t *testing.T, label string, g goldenCase, res Result) {
	t.Helper()
	if res.Stats.Comparisons != g.comparisons {
		t.Errorf("%s: comparisons = %d, golden %d", label, res.Stats.Comparisons, g.comparisons)
	}
	if res.Stats.Rounds != g.rounds {
		t.Errorf("%s: rounds = %d, golden %d", label, res.Stats.Rounds, g.rounds)
	}
	if res.Stats.MaxRoundSize != g.maxRoundSize {
		t.Errorf("%s: max round size = %d, golden %d", label, res.Stats.MaxRoundSize, g.maxRoundSize)
	}
	if fp := partitionFingerprint(res.Classes); fp != g.fingerprint {
		t.Errorf("%s: partition fingerprint = %#x, golden %#x", label, fp, g.fingerprint)
	}
}

// hideBatch masks an oracle's batch capability: its method set is
// exactly N/Same, so sessions over it take the per-pair path.
type hideBatch struct{ o model.Oracle }

func (h hideBatch) N() int             { return h.o.N() }
func (h hideBatch) Same(i, j int) bool { return h.o.Same(i, j) }

// TestParallelGoldenBatchOracle pins batch-vs-pairwise equivalence
// against the recorded goldens: oracle.Label answers whole chunks via
// SameBatch, and hiding that capability must not move a single stat,
// round, or partition bit at any worker count. (The goldens themselves
// were recorded on the per-pair engine, so the batch runs here prove
// the dispatch rewrite is invisible.)
func TestParallelGoldenBatchOracle(t *testing.T) {
	pool := rt.NewPool(4)
	defer pool.Close()
	goldenCR := goldenByName(t, "SortCR/n=1000/k=3/seed=11")
	goldenER := goldenByName(t, "SortER/n=1024/k=6/seed=17")
	for _, workers := range []int{1, 4} {
		for _, hidden := range []bool{false, true} {
			label := fmt.Sprintf("workers=%d hidden=%v", workers, hidden)
			var oCR, oER model.Oracle
			oCR = oracle.RandomBalanced(1000, 3, rand.New(rand.NewSource(11)))
			oER = oracle.RandomBalanced(1024, 6, rand.New(rand.NewSource(17)))
			if _, ok := oCR.(model.BatchOracle); !ok {
				t.Fatal("oracle.Label must be batch-capable for this test to bite")
			}
			if hidden {
				oCR, oER = hideBatch{oCR}, hideBatch{oER}
			}
			s := model.NewSession(oCR, model.CR, model.Workers(workers), model.WithPool(pool))
			res, err := SortCR(s, 3)
			if err != nil {
				t.Fatalf("SortCR %s: %v", label, err)
			}
			checkGolden(t, "SortCR "+label, goldenCR, res)

			sER := model.NewSession(oER, model.ER, model.Workers(workers), model.WithPool(pool))
			resER, err := SortER(sER)
			if err != nil {
				t.Fatalf("SortER %s: %v", label, err)
			}
			checkGolden(t, "SortER "+label, goldenER, resER)
		}
	}
}

func TestParallelGoldenDeterminism(t *testing.T) {
	pool := rt.NewPool(4)
	defer pool.Close()
	goldenCR := goldenByName(t, "SortCR/n=1000/k=3/seed=11")
	goldenER := goldenByName(t, "SortER/n=1024/k=6/seed=17")
	for _, workers := range []int{1, 2, 3, 8} {
		truthCR := oracle.RandomBalanced(1000, 3, rand.New(rand.NewSource(11)))
		s := model.NewSession(truthCR, model.CR, model.Workers(workers), model.WithPool(pool))
		res, err := SortCR(s, 3)
		if err != nil {
			t.Fatalf("SortCR workers=%d: %v", workers, err)
		}
		checkGolden(t, fmt.Sprintf("SortCR workers=%d", workers), goldenCR, res)

		truthER := oracle.RandomBalanced(1024, 6, rand.New(rand.NewSource(17)))
		sER := model.NewSession(truthER, model.ER, model.Workers(workers), model.WithPool(pool))
		resER, err := SortER(sER)
		if err != nil {
			t.Fatalf("SortER workers=%d: %v", workers, err)
		}
		checkGolden(t, fmt.Sprintf("SortER workers=%d", workers), goldenER, resER)
	}
}

// TestParallelGoldenIncremental pins the representative-first fold's
// goldens at Workers(1) and Workers(4): both of its logical rounds write
// results by index, so the match and the round-B merge cannot depend on
// scheduling.
func TestParallelGoldenIncremental(t *testing.T) {
	pool := rt.NewPool(4)
	defer pool.Close()
	for _, fc := range foldCases {
		g := goldenByName(t, fc.name)
		labels := fc.labels()
		for _, workers := range []int{1, 4} {
			s := model.NewSession(oracle.NewLabel(labels), model.CR, model.Workers(workers), model.WithPool(pool))
			res, err := runIncremental(NewIncremental, s, 256)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", fc.name, workers, err)
			}
			checkGolden(t, fmt.Sprintf("%s workers=%d", fc.name, workers), g, res)
		}
	}
}
