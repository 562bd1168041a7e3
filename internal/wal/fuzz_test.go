package wal

import (
	"reflect"
	"testing"
)

// fuzzCheckpoint is the seed checkpoint: one collection per fold, one of
// them with a batch regimen's members list.
func fuzzCheckpoint() *Checkpoint {
	return &Checkpoint{WALGen: 7, Collections: []CollectionState{
		{
			Key: "a", Spec: []byte(`{"kind":"label","labels":[0,1,0,2]}`), Fold: FoldRepFirst,
			Pending: []int{3}, Elems: []int{0, 2, 1}, Offs: []int{0, 2, 3},
			Ingested: 4, Batches: 2, Flushes: 1, Comparisons: 3, Rounds: 1, MaxRoundSize: 3,
		},
		{
			Key: "b", Spec: []byte(`{"kind":"label","labels":[1,1],"algorithm":"er"}`),
			Members: []int{0, 1}, Elems: []int{0, 1}, Offs: []int{0, 2},
			Ingested: 2, Batches: 1, Flushes: 1, Comparisons: 1, Rounds: 1, MaxRoundSize: 1,
		},
	}}
}

// FuzzCheckpointDecode feeds arbitrary checkpoint files to the decoder
// the boot path runs. The file is header + frame + payload with a valid
// CRC, so mutations reach the payload decoder instead of dying at the
// checksum. Every input must decode cleanly or return an error, which
// ReadCheckpoint reports as ErrCorrupt — never panic; a clean decode
// must survive a v4 re-encode unchanged, with a known fold.
func FuzzCheckpointDecode(f *testing.F) {
	for v := uint16(MinFormatVersion); v <= FormatVersion; v++ {
		cp := fuzzCheckpoint()
		if v < 4 {
			for i := range cp.Collections {
				cp.Collections[i].Fold = FoldGroup
			}
		}
		file := checkpointFile(cp, v)
		f.Add(v, cp.WALGen, file[headerSize+frameOverhead:])
	}
	f.Add(uint16(FormatVersion), uint64(1), encodeCheckpoint(&Checkpoint{}))
	f.Fuzz(func(t *testing.T, v uint16, gen uint64, payload []byte) {
		hdr := NewHeader(snapMagic, v, gen)
		cp, err := decodeCheckpointFile(AppendFrame(hdr[:], payload))
		if err != nil {
			return
		}
		for _, cs := range cp.Collections {
			if cs.Fold != FoldGroup && cs.Fold != FoldRepFirst {
				t.Fatalf("collection %q decoded with unknown fold %d", cs.Key, cs.Fold)
			}
		}
		again, err := decodeCheckpointFile(checkpointFile(cp, FormatVersion))
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, cp) {
			t.Fatalf("v4 round trip changed the checkpoint:\n got %+v\nwant %+v", again, cp)
		}
	})
}
