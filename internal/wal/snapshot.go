package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// SnapshotName is the checkpoint file's name within a shard directory.
// The write path stages to SnapshotName + ".tmp" and renames, so a
// checkpoint is either entirely present or entirely absent.
const SnapshotName = "checkpoint.snap"

// CollectionState is one collection's durable state inside a checkpoint:
// the flat answer (core.Answer's one-backing-slice layout: elements
// grouped by class plus the class-offset table), the pending buffer in
// arrival order, counters, and the opaque spec that rebuilds the oracle
// and regimen.
type CollectionState struct {
	// Key is the collection key.
	Key string
	// Spec is the collection's spec encoding (the service stores
	// OracleSpec JSON), replayed through the same validation as a live
	// create.
	Spec []byte
	// Fold is the collection's fold policy (FoldGroup or FoldRepFirst).
	// Checkpoints before v4 carry no fold byte and decode as FoldGroup.
	Fold byte
	// Members is the full arrival-order ingest history, for engines that
	// re-sort their whole sub-universe per fold (batch regimens). Engines
	// that fold incrementally leave it nil — their flushed state is fully
	// captured by Elems/Offs.
	Members []int
	// Pending is the buffered-not-yet-folded tail in arrival order.
	Pending []int
	// Elems and Offs are the flat answer: class i of the fold so far
	// occupies Elems[Offs[i]:Offs[i+1]].
	Elems []int
	// Offs is the class-offset table; nil/empty alongside empty Elems for
	// a collection that has never folded.
	Offs []int
	// Ingested, Batches, Flushes restore the collection's counters.
	Ingested int64
	Batches  int64
	Flushes  int64
	// Comparisons, Rounds, MaxRoundSize restore the session cost so
	// recovered stats continue bit-identically.
	Comparisons  int64
	Rounds       int64
	MaxRoundSize int64
}

// Checkpoint is one shard's full durable state at a fold boundary.
type Checkpoint struct {
	// WALGen is the generation of the segment that logically starts
	// after this checkpoint: recovery loads the checkpoint and replays
	// only segments with generation >= WALGen.
	WALGen uint64
	// Collections holds every live collection, sorted by key.
	Collections []CollectionState
}

// WriteCheckpoint atomically replaces dir's checkpoint: encode to a tmp
// file, fsync it, rename over SnapshotName, fsync the directory. A crash
// at any point leaves either the old checkpoint or the new one, never a
// torn mix.
func WriteCheckpoint(dir string, cp *Checkpoint) error {
	hdr := NewHeader(snapMagic, FormatVersion, cp.WALGen)
	buf := AppendFrame(hdr[:], encodeCheckpoint(cp))

	tmp := filepath.Join(dir, SnapshotName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create checkpoint tmp: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: write checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: sync checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: close checkpoint: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, SnapshotName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: publish checkpoint: %w", err)
	}
	return syncDir(dir)
}

// ReadCheckpoint loads dir's checkpoint. ok is false when none exists
// (a fresh data directory, or one that has never checkpointed). A
// leftover .tmp from a crashed write is removed.
func ReadCheckpoint(dir string) (cp *Checkpoint, ok bool, err error) {
	os.Remove(filepath.Join(dir, SnapshotName+".tmp"))
	path := filepath.Join(dir, SnapshotName)
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("wal: read checkpoint: %w", err)
	}
	if cp, err = decodeCheckpointFile(b); err != nil {
		return nil, false, fmt.Errorf("%w: %s: %v", ErrCorrupt, path, err)
	}
	return cp, true, nil
}

// decodeCheckpointFile decodes a whole checkpoint file: header, frame,
// and the CRC-validated payload in the layout of the header's version.
// Every error it returns is an integrity failure.
func decodeCheckpointFile(b []byte) (*Checkpoint, error) {
	if len(b) < headerSize {
		return nil, fmt.Errorf("short header (%d bytes)", len(b))
	}
	hdr := [headerSize]byte(b[:headerSize])
	if err := checkHeader(hdr, snapMagic); err != nil {
		return nil, err
	}
	version := binary.LittleEndian.Uint16(hdr[4:6])
	b = b[headerSize:]
	if len(b) < frameOverhead {
		return nil, fmt.Errorf("short frame at offset %d (%d bytes)", headerSize, len(b))
	}
	length := binary.LittleEndian.Uint32(b[0:4])
	wantCRC := binary.LittleEndian.Uint32(b[4:8])
	payload := b[frameOverhead:]
	if length > maxRecordSize {
		return nil, fmt.Errorf("impossible checkpoint length %d", length)
	}
	if uint64(len(payload)) < uint64(length) {
		return nil, fmt.Errorf("torn checkpoint payload at offset %d (%d of %d bytes)", headerSize+frameOverhead, len(payload), length)
	}
	payload = payload[:length]
	if got := crc32.Checksum(payload, castagnoli); got != wantCRC {
		return nil, fmt.Errorf("CRC mismatch at offset %d: got %#08x, want %#08x", headerSize, got, wantCRC)
	}
	cp := &Checkpoint{WALGen: binary.LittleEndian.Uint64(hdr[8:16])}
	if err := decodeCheckpoint(payload, version, cp); err != nil {
		return nil, err
	}
	return cp, nil
}

// encodeCheckpoint renders the collection list (everything after the
// header + frame).
func encodeCheckpoint(cp *Checkpoint) []byte {
	var p []byte
	p = binary.AppendUvarint(p, uint64(len(cp.Collections)))
	for i := range cp.Collections {
		cs := &cp.Collections[i]
		p = appendBytes(p, []byte(cs.Key))
		p = appendBytes(p, cs.Spec)
		p = append(p, cs.Fold)
		p = binary.AppendUvarint(p, uint64(cs.Ingested))
		p = binary.AppendUvarint(p, uint64(cs.Batches))
		p = binary.AppendUvarint(p, uint64(cs.Flushes))
		p = binary.AppendUvarint(p, uint64(cs.Comparisons))
		p = binary.AppendUvarint(p, uint64(cs.Rounds))
		p = binary.AppendUvarint(p, uint64(cs.MaxRoundSize))
		p = appendInts(p, cs.Members)
		p = appendInts(p, cs.Pending)
		p = appendInts(p, cs.Elems)
		p = appendInts(p, cs.Offs)
	}
	return p
}

// decodeCheckpoint parses a CRC-validated checkpoint payload written
// under format version v.
func decodeCheckpoint(p []byte, v uint16, cp *Checkpoint) error {
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return fmt.Errorf("bad collection count")
	}
	p = p[n:]
	if count > uint64(len(p))+1 {
		return fmt.Errorf("collection count %d exceeds payload", count)
	}
	cp.Collections = make([]CollectionState, count)
	for i := range cp.Collections {
		cs := &cp.Collections[i]
		var key []byte
		var err error
		if key, p, err = decodeBytes(p, "key"); err != nil {
			return fmt.Errorf("collection %d: %v", i, err)
		}
		cs.Key = string(key)
		if cs.Spec, p, err = decodeBytes(p, "spec"); err != nil {
			return fmt.Errorf("collection %q: %v", cs.Key, err)
		}
		cs.Fold = FoldGroup
		if v >= 4 {
			if len(p) == 0 {
				return fmt.Errorf("collection %q: missing fold", cs.Key)
			}
			if cs.Fold = p[0]; cs.Fold != FoldGroup && cs.Fold != FoldRepFirst {
				return fmt.Errorf("collection %q: unknown fold %d", cs.Key, cs.Fold)
			}
			p = p[1:]
		}
		for _, dst := range []*int64{&cs.Ingested, &cs.Batches, &cs.Flushes, &cs.Comparisons, &cs.Rounds, &cs.MaxRoundSize} {
			v, n := binary.Uvarint(p)
			if n <= 0 {
				return fmt.Errorf("collection %q: bad counter", cs.Key)
			}
			*dst = int64(v)
			p = p[n:]
		}
		for _, dst := range []*[]int{&cs.Members, &cs.Pending, &cs.Elems, &cs.Offs} {
			if *dst, p, err = decodeInts(p); err != nil {
				return fmt.Errorf("collection %q: %v", cs.Key, err)
			}
		}
	}
	if len(p) != 0 {
		return fmt.Errorf("%d trailing bytes after checkpoint", len(p))
	}
	return nil
}

// appendBytes writes one uvarint-length-prefixed byte string.
func appendBytes(p, b []byte) []byte {
	p = binary.AppendUvarint(p, uint64(len(b)))
	return append(p, b...)
}

// appendInts writes one uvarint-length-prefixed int slice.
func appendInts(p []byte, ints []int) []byte {
	p = binary.AppendUvarint(p, uint64(len(ints)))
	for _, v := range ints {
		p = binary.AppendUvarint(p, uint64(v))
	}
	return p
}

// decodeInts reads one uvarint-length-prefixed int slice; a zero length
// decodes as nil.
func decodeInts(p []byte) ([]int, []byte, error) {
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, nil, fmt.Errorf("bad int-slice length")
	}
	p = p[n:]
	if count == 0 {
		return nil, p, nil
	}
	if count > uint64(len(p)) {
		return nil, nil, fmt.Errorf("int-slice length %d exceeds payload", count)
	}
	out := make([]int, count)
	for i := range out {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return nil, nil, fmt.Errorf("bad int-slice element %d", i)
		}
		out[i] = int(v)
		p = p[n:]
	}
	return out, p, nil
}

// syncDir fsyncs a directory so a just-renamed file survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}
