package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"ecsort/internal/dist"
	"ecsort/internal/model"
	"ecsort/internal/oracle"
)

// The golden tests freeze the merge engine's observable semantics: for
// fixed seeds, every algorithm must charge exactly the same comparisons,
// physical rounds, and widest round, and emit exactly the same partition,
// as the reference implementation did before the flat-storage rewrite
// (the map-keyed engine of PR ≤ 2). Any refactor of the hot path must
// keep these numbers bit-for-bit — layout and allocation discipline may
// change, the model-level accounting may not.

// partitionFingerprint hashes the canonical form of a partition.
func partitionFingerprint(classes [][]int) uint64 {
	r := Result{Classes: classes}
	h := fnv.New64a()
	for _, cls := range r.Canonical() {
		for _, e := range cls {
			fmt.Fprintf(h, "%d,", e)
		}
		fmt.Fprintf(h, ";")
	}
	return h.Sum64()
}

type goldenCase struct {
	name         string
	comparisons  int64
	rounds       int
	maxRoundSize int
	fingerprint  uint64
}

// Captured from the pre-rewrite engine at commit 85ba685, except the
// representative-first fold rows, captured when that fold landed.
var goldenCases = []goldenCase{
	{"SortCR/n=4096/k=8/seed=7", 35470, 13, 4096, 0x84a87755d67b3c9b},
	{"SortCR/n=1000/k=3/seed=11", 3569, 8, 729, 0xf4736a3fe523b394},
	{"SortCR/n=100/k=10/seed=12", 909, 11, 100, 0xea5848df44aa14d7},
	{"SortCRUnknownK/n=2048/k=5/seed=13", 11425, 11, 2048, 0x89be98f4310c57ec},
	{"SortER/n=1024/k=6/seed=17", 3915, 49, 512, 0xc3c680dc821ccfef},
	{"SortCRPairwiseOnly/n=512/k=4/seed=19", 1985, 9, 457, 0x32d21e2506846511},
	{"SortCREagerGroups/n=512/k=4/seed=19", 3580, 9, 512, 0x32d21e2506846511},
	// The group fold (NewIncrementalGroupFold), unchanged since capture.
	{"Incremental/n=2048/k=8/seed=23/batch=192", 206336, 104, 2048, 0xba0007a7d8bd8735},
	// The representative-first fold over the paper's label distributions.
	{"Incremental/uniform(k=10)/n=4096/seed=1/batch=256", 71040, 23, 4096, 0xa656fe45cc3f2e9f},
	{"Incremental/geometric(p=0.1)/n=4096/seed=1/batch=256", 48000, 23, 4096, 0x51e58045731ba7ef},
	{"Incremental/poisson(lambda=5)/n=4096/seed=1/batch=256", 87936, 23, 4096, 0xe17e7f142c3e03c8},
	{"Incremental/zeta(s=1.5)/n=4096/seed=1/batch=256", 833544, 225, 4096, 0xf0fe4caa8ec483c1},
	{"SortCR/n=500/k=6/seed=29/procs=97", 3007, 35, 97, 0x7671511128f1e65b},
}

// foldCases are the representative-first fold's golden inputs: 4096
// labels drawn from each of the paper's distributions with seed 1,
// added in index order and flushed every 256.
var foldCases = []struct {
	name   string
	labels func() []int
}{
	{"Incremental/uniform(k=10)/n=4096/seed=1/batch=256", func() []int { return drawLabels(dist.NewUniform(10)) }},
	{"Incremental/geometric(p=0.1)/n=4096/seed=1/batch=256", func() []int { return drawLabels(dist.NewGeometric(0.1)) }},
	{"Incremental/poisson(lambda=5)/n=4096/seed=1/batch=256", func() []int { return drawLabels(dist.NewPoisson(5)) }},
	{"Incremental/zeta(s=1.5)/n=4096/seed=1/batch=256", func() []int { return drawLabels(dist.NewZeta(1.5)) }},
}

func drawLabels(d dist.Distribution) []int {
	return dist.Labels(d, 4096, rand.New(rand.NewSource(1)))
}

// runIncremental adds every element of the session's universe in index
// order to a sorter built by newInc, flushing after every batch adds,
// and returns the final classes with the session's cost.
func runIncremental(newInc func(*model.Session) (*Incremental, error), s *model.Session, batch int) (Result, error) {
	inc, err := newInc(s)
	if err != nil {
		return Result{}, err
	}
	for e := 0; e < s.N(); e++ {
		if err := inc.Add(e); err != nil {
			return Result{}, err
		}
		if e%batch == batch-1 {
			if err := inc.Flush(); err != nil {
				return Result{}, err
			}
		}
	}
	classes, err := inc.Classes()
	return Result{Classes: classes, Stats: inc.Stats()}, err
}

func TestGoldenStatsAndPartitions(t *testing.T) {
	results := map[string]Result{}
	run := func(name string, res Result, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		results[name] = res
	}

	for _, tc := range []struct {
		n, k int
		seed int64
	}{{4096, 8, 7}, {1000, 3, 11}, {100, 10, 12}} {
		truth := oracle.RandomBalanced(tc.n, tc.k, rand.New(rand.NewSource(tc.seed)))
		s := model.NewSession(truth, model.CR)
		res, err := SortCR(s, tc.k)
		run(fmt.Sprintf("SortCR/n=%d/k=%d/seed=%d", tc.n, tc.k, tc.seed), res, err)
	}
	{
		truth := oracle.RandomBalanced(2048, 5, rand.New(rand.NewSource(13)))
		res, err := SortCRUnknownK(model.NewSession(truth, model.CR))
		run("SortCRUnknownK/n=2048/k=5/seed=13", res, err)
	}
	{
		truth := oracle.RandomBalanced(1024, 6, rand.New(rand.NewSource(17)))
		res, err := SortER(model.NewSession(truth, model.ER))
		run("SortER/n=1024/k=6/seed=17", res, err)
	}
	{
		truth := oracle.RandomBalanced(512, 4, rand.New(rand.NewSource(19)))
		res, err := SortCRPairwiseOnly(model.NewSession(truth, model.CR), 4)
		run("SortCRPairwiseOnly/n=512/k=4/seed=19", res, err)
		res2, err2 := SortCREagerGroups(model.NewSession(truth, model.CR), 4)
		run("SortCREagerGroups/n=512/k=4/seed=19", res2, err2)
	}
	{
		truth := oracle.RandomBalanced(2048, 8, rand.New(rand.NewSource(23)))
		res, err := runIncremental(NewIncrementalGroupFold, model.NewSession(truth, model.CR), 192)
		run("Incremental/n=2048/k=8/seed=23/batch=192", res, err)
	}
	for _, fc := range foldCases {
		labels := fc.labels()
		res, err := runIncremental(NewIncremental, model.NewSession(oracle.NewLabel(labels), model.CR), 256)
		if err == nil && !SameClassification(res.Labels(len(labels)), labels) {
			t.Errorf("%s: partition differs from the drawn labels", fc.name)
		}
		run(fc.name, res, err)
	}
	{
		truth := oracle.RandomBalanced(500, 6, rand.New(rand.NewSource(29)))
		s := model.NewSession(truth, model.CR, model.Processors(97))
		res, err := SortCR(s, 6)
		run("SortCR/n=500/k=6/seed=29/procs=97", res, err)
	}

	for _, g := range goldenCases {
		res, ok := results[g.name]
		if !ok {
			t.Errorf("%s: scenario not executed", g.name)
			continue
		}
		if res.Stats.Comparisons != g.comparisons {
			t.Errorf("%s: comparisons = %d, golden %d", g.name, res.Stats.Comparisons, g.comparisons)
		}
		if res.Stats.Rounds != g.rounds {
			t.Errorf("%s: rounds = %d, golden %d", g.name, res.Stats.Rounds, g.rounds)
		}
		if res.Stats.MaxRoundSize != g.maxRoundSize {
			t.Errorf("%s: max round size = %d, golden %d", g.name, res.Stats.MaxRoundSize, g.maxRoundSize)
		}
		if fp := partitionFingerprint(res.Classes); fp != g.fingerprint {
			t.Errorf("%s: partition fingerprint = %#x, golden %#x", g.name, fp, g.fingerprint)
		}
	}
}
