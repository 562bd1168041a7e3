package wal

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// collect replays dir from fromGen into a record slice.
func collect(t *testing.T, dir string, fromGen uint64) ([]Record, ReplaySummary) {
	t.Helper()
	var recs []Record
	sum, err := Replay(dir, fromGen, func(r Record) error {
		// The callback's record is only valid during the call; deep-copy.
		cp := Record{Type: r.Type, Key: r.Key, Elem: r.Elem}
		cp.Spec = append([]byte(nil), r.Spec...)
		cp.Items = append([]int(nil), r.Items...)
		recs = append(recs, cp)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return recs, sum
}

func TestSegmentRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, 1, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	spec := []byte(`{"kind":"label","labels":[0,1,0]}`)
	if err := l.AppendCreate("demo", spec); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch("demo", []int{0, 2, 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendFlush("demo"); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch("demo", nil); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendDrop("demo"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	recs, sum := collect(t, dir, 0)
	want := []Record{
		{Type: RecCreate, Key: "demo", Spec: spec},
		{Type: RecBatch, Key: "demo", Items: []int{0, 2, 1}},
		{Type: RecFlush, Key: "demo"},
		{Type: RecBatch, Key: "demo", Items: []int{}},
		{Type: RecDrop, Key: "demo"},
	}
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if recs[i].Type != want[i].Type || recs[i].Key != want[i].Key ||
			string(recs[i].Spec) != string(want[i].Spec) ||
			!reflect.DeepEqual(append([]int{}, recs[i].Items...), append([]int{}, want[i].Items...)) {
			t.Errorf("record %d = %+v, want %+v", i, recs[i], want[i])
		}
	}
	if sum.TornTail || sum.Records != len(want) || sum.Segments != 1 || sum.LastGen != 1 {
		t.Errorf("summary = %+v", sum)
	}
}

func TestReplaySkipsSegmentsBelowGen(t *testing.T) {
	dir := t.TempDir()
	for gen := uint64(1); gen <= 3; gen++ {
		l, err := Create(dir, gen, Options{Policy: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.AppendFlush("k"); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	recs, sum := collect(t, dir, 2)
	if len(recs) != 2 || sum.Segments != 2 || sum.LastGen != 3 {
		t.Fatalf("got %d records, summary %+v; want 2 records from gens 2..3", len(recs), sum)
	}
	if err := RemoveSegmentsBelow(dir, 3); err != nil {
		t.Fatal(err)
	}
	segs, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].Gen != 3 {
		t.Fatalf("segments after removal = %+v, want only gen 3", segs)
	}
}

// TestTornTailTruncated cuts the final record short at several points
// (mid frame header, mid payload) and checks replay drops only the torn
// record, truncates the file, and the segment stays appendable.
func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []int{1, frameOverhead - 1, frameOverhead + 2} {
		dir := t.TempDir()
		l, err := Create(dir, 1, Options{Policy: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.AppendBatch("k", []int{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		intactSize, err := l.f.Seek(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.AppendFlush("k"); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, SegmentName(1))
		if err := os.Truncate(path, intactSize+int64(cut)); err != nil {
			t.Fatal(err)
		}

		recs, sum := collect(t, dir, 0)
		if len(recs) != 1 || recs[0].Type != RecBatch {
			t.Fatalf("cut=%d: replayed %d records, want the 1 intact batch", cut, len(recs))
		}
		if !sum.TornTail || sum.TruncatedAt != intactSize {
			t.Fatalf("cut=%d: summary = %+v, want torn tail truncated at %d", cut, sum, intactSize)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != intactSize {
			t.Fatalf("cut=%d: file size %d after truncation, want %d", cut, fi.Size(), intactSize)
		}

		// The truncated segment must accept appends again.
		l2, err := OpenAppend(dir, 1, Options{Policy: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		if err := l2.AppendDrop("k"); err != nil {
			t.Fatal(err)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		recs, _ = collect(t, dir, 0)
		if len(recs) != 2 || recs[1].Type != RecDrop {
			t.Fatalf("cut=%d: after re-append got %d records", cut, len(recs))
		}
	}
}

// TestTornHeaderTruncated covers a crash inside Create itself: a
// segment shorter than its header is reset, not treated as corruption.
func TestTornHeaderTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, 1, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, SegmentName(1))
	if err := os.Truncate(path, headerSize-3); err != nil {
		t.Fatal(err)
	}
	recs, sum := collect(t, dir, 0)
	if len(recs) != 0 || !sum.TornTail {
		t.Fatalf("got %d records, summary %+v", len(recs), sum)
	}
	if _, err := OpenAppend(dir, 1, Options{Policy: SyncNever}); err != nil {
		t.Fatalf("reopen after header repair: %v", err)
	}
}

// TestCorruptCRCFailsLoudly flips a payload byte of a non-final record:
// replay must fail with ErrCorrupt naming the file and offset, never
// silently skip.
func TestCorruptCRCFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, 1, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch("k", []int{7, 8}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendFlush("k"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, SegmentName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+frameOverhead+2] ^= 0xFF // inside the first record's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Replay(dir, 0, func(Record) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Replay error = %v, want ErrCorrupt", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, SegmentName(1)) || !strings.Contains(msg, "offset 16") || !strings.Contains(msg, "CRC mismatch") {
		t.Errorf("error %q should name the file, the offset, and the CRC mismatch", msg)
	}
}

func TestCheckpointRoundtrip(t *testing.T) {
	dir := t.TempDir()
	cp := &Checkpoint{
		WALGen: 7,
		Collections: []CollectionState{
			{
				Key: "a", Spec: []byte(`{"kind":"label","labels":[0,0,1]}`),
				Pending: []int{2}, Elems: []int{0, 1}, Offs: []int{0, 2},
				Ingested: 3, Batches: 2, Flushes: 1,
				Comparisons: 5, Rounds: 2, MaxRoundSize: 4,
			},
			{
				Key: "b", Spec: []byte(`{"kind":"label","labels":[0],"algorithm":"er"}`),
				Members: []int{0},
			},
		},
	}
	if err := WriteCheckpoint(dir, cp); err != nil {
		t.Fatal(err)
	}
	got, ok, err := ReadCheckpoint(dir)
	if err != nil || !ok {
		t.Fatalf("ReadCheckpoint: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Errorf("checkpoint roundtrip:\n got %+v\nwant %+v", got, cp)
	}

	// Overwrite is atomic and leftover tmps are swept.
	if err := os.WriteFile(filepath.Join(dir, SnapshotName+".tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	cp2 := &Checkpoint{WALGen: 8}
	if err := WriteCheckpoint(dir, cp2); err != nil {
		t.Fatal(err)
	}
	got, ok, err = ReadCheckpoint(dir)
	if err != nil || !ok || got.WALGen != 8 || len(got.Collections) != 0 {
		t.Fatalf("second checkpoint: ok=%v err=%v got=%+v", ok, err, got)
	}
	if _, err := os.Stat(filepath.Join(dir, SnapshotName+".tmp")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("tmp leftover not cleaned up")
	}
}

func TestCheckpointAbsentAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := ReadCheckpoint(dir); err != nil || ok {
		t.Fatalf("empty dir: ok=%v err=%v, want absent", ok, err)
	}
	if err := WriteCheckpoint(dir, &Checkpoint{WALGen: 1}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, SnapshotName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadCheckpoint(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt checkpoint: err=%v, want ErrCorrupt", err)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
		ok   bool
	}{
		{"", SyncInterval, true},
		{"always", SyncAlways, true},
		{"interval", SyncInterval, true},
		{"never", SyncNever, true},
		{"sometimes", "", false},
	} {
		got, err := ParsePolicy(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParsePolicy(%q) = %q, %v; want %q, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

// TestCommitPolicies checks the fsync accounting each policy produces.
func TestCommitPolicies(t *testing.T) {
	dir := t.TempDir()
	var ctr Counters
	l, err := Create(dir, 1, Options{Policy: SyncAlways, Counters: &ctr})
	if err != nil {
		t.Fatal(err)
	}
	base := ctr.Fsyncs.Load() // Create itself syncs the header
	for i := 0; i < 3; i++ {
		if err := l.AppendFlush("k"); err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if got := ctr.Fsyncs.Load() - base; got != 3 {
		t.Errorf("always: %d fsyncs for 3 commits, want 3", got)
	}
	if ctr.Appends.Load() != 3 || ctr.Bytes.Load() == 0 {
		t.Errorf("counters = appends %d bytes %d", ctr.Appends.Load(), ctr.Bytes.Load())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var ctr2 Counters
	l2, err := Create(t.TempDir(), 1, Options{Policy: SyncNever, Counters: &ctr2})
	if err != nil {
		t.Fatal(err)
	}
	base = ctr2.Fsyncs.Load()
	for i := 0; i < 3; i++ {
		if err := l2.AppendFlush("k"); err != nil {
			t.Fatal(err)
		}
		if err := l2.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if got := ctr2.Fsyncs.Load() - base; got != 0 {
		t.Errorf("never: %d fsyncs for 3 commits, want 0", got)
	}
	// Close still syncs so a clean shutdown loses nothing.
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := ctr2.Fsyncs.Load() - base; got != 1 {
		t.Errorf("never: %d fsyncs after Close, want 1", got)
	}
}

// TestOpenAppendRejectsWrongGen guards the header/file-name consistency
// check.
func TestOpenAppendRejectsWrongGen(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, 1, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(dir, SegmentName(1)), filepath.Join(dir, SegmentName(2))); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenAppend(dir, 2, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenAppend with mismatched generation: %v, want ErrCorrupt", err)
	}
}

// TestFormatVersionWindow: files inside [MinFormatVersion,
// FormatVersion] are readable (an upgraded node must still recover its
// v2 and v3 data, and a pre-v4 checkpoint entry means FoldGroup);
// anything outside the window is rejected as corruption.
func TestFormatVersionWindow(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, 1, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCreate("k", []byte(`{"kind":"label"}`)); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch("k", []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(dir, SegmentName(1))
	stamp := func(path string, v uint16) {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[4], b[5] = byte(v), byte(v>>8)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	replayCount := func() (int, error) {
		n := 0
		_, err := Replay(dir, 0, func(Record) error { n++; return nil })
		return n, err
	}

	stamp(segPath, MinFormatVersion)
	if n, err := replayCount(); err != nil || n != 2 {
		t.Fatalf("v%d segment replay: %d records, err %v; want 2, nil", MinFormatVersion, n, err)
	}
	for _, v := range []uint16{MinFormatVersion - 1, FormatVersion + 1} {
		stamp(segPath, v)
		if _, err := replayCount(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("v%d segment: got %v, want ErrCorrupt", v, err)
		}
	}
	stamp(segPath, FormatVersion) // restore for the checkpoint half

	// Checkpoints share the header check and the same window. Before v4
	// a collection entry had no fold byte, so old checkpoints are written
	// in their own layout rather than stamped.
	cp := &Checkpoint{WALGen: 2, Collections: []CollectionState{{Key: "k", Spec: []byte(`{}`)}}}
	snapPath := filepath.Join(dir, SnapshotName)
	for v := uint16(MinFormatVersion); v < 4; v++ {
		if err := os.WriteFile(snapPath, checkpointFile(cp, v), 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok, err := ReadCheckpoint(dir)
		if err != nil || !ok {
			t.Fatalf("v%d checkpoint read: ok=%v err=%v", v, ok, err)
		}
		if got.WALGen != 2 || len(got.Collections) != 1 || got.Collections[0].Key != "k" || got.Collections[0].Fold != FoldGroup {
			t.Fatalf("v%d checkpoint decoded wrong: %+v", v, got)
		}
	}
	cp.Collections[0].Fold = FoldRepFirst
	if err := WriteCheckpoint(dir, cp); err != nil {
		t.Fatal(err)
	}
	if got, _, err := ReadCheckpoint(dir); err != nil || got.Collections[0].Fold != FoldRepFirst {
		t.Fatalf("v%d checkpoint: fold not kept (%+v, %v)", FormatVersion, got, err)
	}
	// A v4 payload stamped as v3 has a byte the v3 layout does not.
	stamp(snapPath, 3)
	if _, _, err := ReadCheckpoint(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("v4 payload under a v3 header: got %v, want ErrCorrupt", err)
	}
	stamp(snapPath, FormatVersion+1)
	if _, _, err := ReadCheckpoint(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("v%d checkpoint: got %v, want ErrCorrupt", FormatVersion+1, err)
	}
}

// checkpointFile renders cp as a whole checkpoint file of format version
// v. From v4 on that is WriteCheckpoint's encoding; before v4 a
// collection entry had no fold byte.
func checkpointFile(cp *Checkpoint, v uint16) []byte {
	var payload []byte
	if v >= 4 {
		payload = encodeCheckpoint(cp)
	} else {
		payload = binary.AppendUvarint(payload, uint64(len(cp.Collections)))
		for _, cs := range cp.Collections {
			payload = appendBytes(payload, []byte(cs.Key))
			payload = appendBytes(payload, cs.Spec)
			for _, c := range []int64{cs.Ingested, cs.Batches, cs.Flushes, cs.Comparisons, cs.Rounds, cs.MaxRoundSize} {
				payload = binary.AppendUvarint(payload, uint64(c))
			}
			for _, ints := range [][]int{cs.Members, cs.Pending, cs.Elems, cs.Offs} {
				payload = appendInts(payload, ints)
			}
		}
	}
	hdr := NewHeader(snapMagic, v, cp.WALGen)
	return AppendFrame(hdr[:], payload)
}

// TestReplayReportsSegmentVersion: each record carries its segment's
// header version, and the summary the newest segment's, because a create
// record means the fold of the version it was written under.
func TestReplayReportsSegmentVersion(t *testing.T) {
	dir := t.TempDir()
	for gen := uint64(1); gen <= 2; gen++ {
		l, err := Create(dir, gen, Options{Policy: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.AppendCreate("k", []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, SegmentName(1))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[4], b[5] = 3, 0
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	var versions []uint16
	sum, err := Replay(dir, 1, func(r Record) error {
		versions = append(versions, r.Version)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(versions, []uint16{3, FormatVersion}) || sum.LastVersion != FormatVersion {
		t.Fatalf("record versions %v, last %d; want [3 %d], %d", versions, sum.LastVersion, FormatVersion, FormatVersion)
	}
	if FoldOf(versions[0]) != FoldGroup || FoldOf(versions[1]) != FoldRepFirst {
		t.Fatalf("FoldOf(3) = %d, FoldOf(%d) = %d", FoldOf(versions[0]), FormatVersion, FoldOf(versions[1]))
	}
	if err := os.Remove(filepath.Join(dir, SegmentName(2))); err != nil {
		t.Fatal(err)
	}
	if sum, err := Replay(dir, 1, func(Record) error { return nil }); err != nil || sum.LastVersion != 3 {
		t.Fatalf("v3 tail: last version %d, err %v; want 3", sum.LastVersion, err)
	}
}
