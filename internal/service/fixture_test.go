package service

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ecsort/internal/core"
	"ecsort/internal/model"
	"ecsort/internal/wal"
)

// The v3 fixture (testdata/v3, see its README) is a data directory a
// format-version-3 build wrote: collection "a" lives in the checkpoint
// and continues in the WAL tail, collection "b" is created in the tail.
// Both were folded by the group fold, so replay under this build must
// reproduce them bit for bit with that fold, while collections created
// here fold representative-first.

// fixtureCollection is one collection's recorded state: its stats as the
// API reports them, plus the engine's flat answer and pending buffer,
// whose order depends on the fold.
type fixtureCollection struct {
	Info    CollectionInfo `json:"info"`
	Elems   []int          `json:"elems"`
	Offs    []int          `json:"offs"`
	Pending []int          `json:"pending"`
}

// engineState is what the fold probes read off a live collection, on
// its shard goroutine.
type engineState struct {
	fold                 byte
	elems, offs, pending []int
	stats                model.Stats
	flushes              int
}

func readEngine(t *testing.T, svc *Service, key string) (engineState, OracleSpec) {
	t.Helper()
	sh := svc.shardOf(key)
	c, err := sh.lookup(key)
	if err != nil {
		t.Fatal(err)
	}
	var st engineState
	if err := svc.do(sh, func() error {
		elems, offs := c.srt.Flat()
		st = engineState{
			fold:    c.fold,
			elems:   append([]int{}, elems...),
			offs:    append([]int{}, offs...),
			pending: append([]int{}, c.srt.PendingSlice()...),
			stats:   c.srt.Stats(),
			flushes: c.srt.Flushes(),
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return st, c.spec
}

// copyTree copies the fixture into a scratch directory: opening a data
// directory restamps and extends it.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// foldProbe ingests items into key with a forced flush and checks the
// collection folded them exactly as a core sorter with fold want,
// restored to the collection's prior state, does — and differently from
// the other fold, so the probe can tell them apart.
func foldProbe(t *testing.T, svc *Service, key string, items []int, want byte) {
	t.Helper()
	before, spec := readEngine(t, svc, key)
	if before.fold != want {
		t.Fatalf("%s: fold %d, want %d", key, before.fold, want)
	}
	ref := func(fold byte) (engineState, error) {
		orc, err := spec.Build()
		if err != nil {
			return engineState{}, err
		}
		newInc := core.NewIncremental
		if fold == wal.FoldGroup {
			newInc = core.NewIncrementalGroupFold
		}
		inc, err := newInc(model.NewSession(orc, model.CR))
		if err != nil {
			return engineState{}, err
		}
		if err := inc.Restore(before.elems, before.offs, before.pending, before.stats, before.flushes); err != nil {
			return engineState{}, err
		}
		for _, e := range items {
			if err := inc.Add(e); err != nil {
				return engineState{}, err
			}
		}
		if err := inc.Flush(); err != nil {
			return engineState{}, err
		}
		elems, offs := inc.Flat()
		return engineState{fold: fold, elems: elems, offs: offs, pending: []int{}, stats: inc.Stats(), flushes: inc.Flushes()}, nil
	}
	wantSt, err := ref(want)
	if err != nil {
		t.Fatal(err)
	}
	otherSt, err := ref(wal.FoldGroup + wal.FoldRepFirst - want)
	if err != nil {
		t.Fatal(err)
	}
	if otherSt.stats == wantSt.stats {
		t.Fatalf("%s: probe cannot tell the folds apart (both %+v)", key, wantSt.stats)
	}
	if _, err := svc.Ingest(key, items, true); err != nil {
		t.Fatal(err)
	}
	got, _ := readEngine(t, svc, key)
	if !reflect.DeepEqual(got, wantSt) {
		t.Fatalf("%s: fold %d probe:\n got %+v\nwant %+v", key, want, got, wantSt)
	}
}

func span(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for e := lo; e < hi; e++ {
		out = append(out, e)
	}
	return out
}

func TestV3FixtureReplaysGroupFold(t *testing.T) {
	src := filepath.Join("testdata", "v3")
	b, err := os.ReadFile(filepath.Join(src, "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]fixtureCollection
	var doc struct {
		Collections *map[string]fixtureCollection `json:"collections"`
	}
	doc.Collections = &want
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	copyTree(t, filepath.Join(src, "data"), dir)
	cfg := Config{Shards: 1, DataDir: dir, Fsync: "never", BatchSize: 1000, Workers: 1}
	open := func() *Service {
		t.Helper()
		svc, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}

	svc := open()
	for _, key := range []string{"a", "b"} {
		w := want[key]
		info, err := svc.CollectionStats(key)
		if err != nil {
			t.Fatal(err)
		}
		// Checkpoints do not persist the churn counters, so recovery
		// cannot restore them on any format version; compare the rest.
		for _, ci := range []*CollectionInfo{&info, &w.Info} {
			ci.Deleted, ci.Invalidated, ci.Repaired = 0, 0, 0
		}
		gotJSON, _ := json.Marshal(info)
		wantJSON, _ := json.Marshal(w.Info)
		if string(gotJSON) != string(wantJSON) {
			t.Errorf("%s: replayed state differs from the v3 recording:\n got %s\nwant %s", key, gotJSON, wantJSON)
		}
		st, _ := readEngine(t, svc, key)
		if st.fold != wal.FoldGroup {
			t.Errorf("%s: replayed with fold %d, want the group fold", key, st.fold)
		}
		if !reflect.DeepEqual(st.elems, w.Elems) || !reflect.DeepEqual(st.offs, w.Offs) || !reflect.DeepEqual(st.pending, w.Pending) {
			t.Errorf("%s: flat answer differs from the v3 recording:\n got %v %v %v\nwant %v %v %v",
				key, st.elems, st.offs, st.pending, w.Elems, w.Offs, w.Pending)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	foldProbe(t, svc, "a", span(181, 190), wal.FoldGroup)
	if err := svc.CreateCollection("c", OracleSpec{Kind: KindLabel, Labels: fixtureLabels(160, 6)}); err != nil {
		t.Fatal(err)
	}
	// From an empty answer both folds test the same pairs; probe after.
	if _, err := svc.Ingest("c", span(0, 40), true); err != nil {
		t.Fatal(err)
	}
	foldProbe(t, svc, "c", span(40, 80), wal.FoldRepFirst)
	svc.crash()

	// Without a checkpoint everything replays from the log. The first
	// open closed the v3 segment to appends, so c's create record sits in
	// a v4 segment and replays representative-first, while a and b
	// still replay from v3 records.
	svc = open()
	foldProbe(t, svc, "a", span(190, 195), wal.FoldGroup)
	foldProbe(t, svc, "b", span(100, 110), wal.FoldGroup)
	foldProbe(t, svc, "c", span(80, 100), wal.FoldRepFirst)
	if err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	svc.Close()

	// After a v4 checkpoint every collection's fold comes from its fold
	// byte.
	svc = open()
	defer svc.Close()
	foldProbe(t, svc, "a", span(195, 200), wal.FoldGroup)
	foldProbe(t, svc, "b", span(110, 120), wal.FoldGroup)
	foldProbe(t, svc, "c", span(100, 130), wal.FoldRepFirst)
}

// fixtureLabels is the label formula of the fixture's collections.
func fixtureLabels(n, k int) []int {
	labels := make([]int, n)
	for i := range labels {
		labels[i] = (i*i*31 + i*5 + 7) % 101 % k
	}
	return labels
}
