package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Record is one decoded WAL record handed to the replay callback.
type Record struct {
	// Type is one of RecCreate, RecDrop, RecBatch, RecFlush, RecDelete,
	// RecInvalidate, RecResilience.
	Type byte
	// Key is the collection the record applies to.
	Key string
	// Spec is the opaque collection spec (RecCreate) or resilience
	// profile (RecResilience).
	Spec []byte
	// Items is the accepted batch's element ids (RecBatch only).
	Items []int
	// Elem is the element a RecDelete removes, or a member element of the
	// class a RecInvalidate withdraws.
	Elem int
	// Version is the format version in the header of the segment the
	// record was read from. A record's meaning may depend on it: a
	// RecCreate creates a collection with fold FoldOf(Version).
	Version uint16
}

// ReplaySummary reports what a Replay pass found.
type ReplaySummary struct {
	// Records is the number of records successfully decoded and applied.
	Records int
	// Segments is the number of segment files visited.
	Segments int
	// LastGen is the highest segment generation seen; 0 when no segment
	// exists at or above the requested floor.
	LastGen uint64
	// LastVersion is the header format version of segment LastGen. A
	// writer must not append to a segment of an older version: replay
	// would read the appended records under that version's meaning.
	LastVersion uint16
	// TornTail reports that the final segment ended mid-frame (the
	// signature of a crash during an append) and was truncated back to
	// its last complete record.
	TornTail bool
	// TruncatedAt is the file offset the torn segment was truncated to.
	TruncatedAt int64
}

// Replay re-applies dir's record tail: every segment with generation >=
// fromGen, ascending, calling fn for each record in append order. The
// Record passed to fn (including its slices) is only valid during the
// call.
//
// An incomplete final frame in the final segment — a torn tail from a
// crash mid-append — is truncated in place and reported in the summary;
// the records before it are intact by the CRC check. Any other integrity
// failure (a CRC mismatch, an impossible length, a torn frame in a
// non-final segment) aborts with an ErrCorrupt error naming the file and
// byte offset: that is data loss in the middle of the history, and
// silently skipping it would replay a wrong state.
func Replay(dir string, fromGen uint64, fn func(Record) error) (ReplaySummary, error) {
	var sum ReplaySummary
	segs, err := Segments(dir)
	if err != nil {
		return sum, err
	}
	live := segs[:0]
	for _, seg := range segs {
		if seg.Gen >= fromGen {
			live = append(live, seg)
		}
	}
	for i, seg := range live {
		last := i == len(live)-1
		if err := replaySegment(seg, last, &sum, fn); err != nil {
			return sum, err
		}
		sum.Segments++
		sum.LastGen = seg.Gen
	}
	return sum, nil
}

// replaySegment scans one segment file. tolerateTorn is set only for the
// final segment, where a cut-short frame is a crash artifact rather than
// corruption.
func replaySegment(seg Segment, tolerateTorn bool, sum *ReplaySummary, fn func(Record) error) error {
	f, err := os.OpenFile(seg.Path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open segment for replay: %w", err)
	}
	defer f.Close()
	var hdr [headerSize]byte
	if n, err := io.ReadFull(f, hdr[:]); err != nil {
		if tolerateTorn {
			// A header cut short can only be the crash window inside
			// Create; nothing was ever appended.
			return truncateTorn(f, seg, 0, sum)
		}
		return fmt.Errorf("%w: %s: short header (%d bytes): %v", ErrCorrupt, seg.Path, n, err)
	}
	if err := checkHeader(hdr, segMagic); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrCorrupt, seg.Path, err)
	}
	if g := binary.LittleEndian.Uint64(hdr[8:16]); g != seg.Gen {
		return fmt.Errorf("%w: %s: header generation %d, file name says %d", ErrCorrupt, seg.Path, g, seg.Gen)
	}
	version := binary.LittleEndian.Uint16(hdr[4:6])
	sum.LastVersion = version

	offset := int64(headerSize)
	var frame [frameOverhead]byte
	var payload []byte
	for {
		n, err := io.ReadFull(f, frame[:])
		if err == io.EOF {
			return nil // clean end of segment
		}
		if err != nil { // mid-frame-header EOF
			if tolerateTorn {
				return truncateTorn(f, seg, offset, sum)
			}
			return fmt.Errorf("%w: %s: torn frame header at offset %d (%d of %d bytes)", ErrCorrupt, seg.Path, offset, n, frameOverhead)
		}
		length := binary.LittleEndian.Uint32(frame[0:4])
		wantCRC := binary.LittleEndian.Uint32(frame[4:8])
		if length == 0 || length > maxRecordSize {
			if tolerateTorn {
				return truncateTorn(f, seg, offset, sum)
			}
			return fmt.Errorf("%w: %s: impossible record length %d at offset %d", ErrCorrupt, seg.Path, length, offset)
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if n, err := io.ReadFull(f, payload); err != nil {
			if tolerateTorn {
				return truncateTorn(f, seg, offset, sum)
			}
			return fmt.Errorf("%w: %s: torn record payload at offset %d (%d of %d bytes)", ErrCorrupt, seg.Path, offset, n, length)
		}
		if got := crc32.Checksum(payload, castagnoli); got != wantCRC {
			// A full-length record with a bad checksum is corruption even
			// at the tail: the length prefix was intact, so the bytes were
			// written and then damaged. Fail loudly with the location.
			return fmt.Errorf("%w: %s: CRC mismatch at offset %d (record %d): got %#08x, want %#08x",
				ErrCorrupt, seg.Path, offset, sum.Records, got, wantCRC)
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return fmt.Errorf("%w: %s: record %d at offset %d: %v", ErrCorrupt, seg.Path, sum.Records, offset, err)
		}
		rec.Version = version
		if err := fn(rec); err != nil {
			return fmt.Errorf("wal: %s: applying record %d at offset %d: %w", seg.Path, sum.Records, offset, err)
		}
		sum.Records++
		offset += int64(frameOverhead) + int64(length)
	}
}

// truncateTorn drops a torn tail: the segment is truncated back to the
// last complete record so the reopened log appends cleanly after it.
func truncateTorn(f *os.File, seg Segment, offset int64, sum *ReplaySummary) error {
	if offset < headerSize {
		// Even the header is incomplete; rewrite it whole so the segment
		// stays openable.
		if err := f.Truncate(0); err != nil {
			return fmt.Errorf("wal: truncate torn segment: %w", err)
		}
		var hdr [headerSize]byte
		copy(hdr[:4], segMagic)
		binary.LittleEndian.PutUint16(hdr[4:6], FormatVersion)
		binary.LittleEndian.PutUint64(hdr[8:16], seg.Gen)
		if _, err := f.WriteAt(hdr[:], 0); err != nil {
			return fmt.Errorf("wal: rewrite torn segment header: %w", err)
		}
		sum.LastVersion = FormatVersion
		offset = headerSize
	} else if err := f.Truncate(offset); err != nil {
		return fmt.Errorf("wal: truncate torn segment: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: sync truncated segment: %w", err)
	}
	sum.TornTail = true
	sum.TruncatedAt = offset
	return nil
}

// decodeRecord parses one CRC-validated payload.
func decodeRecord(p []byte) (Record, error) {
	if len(p) == 0 {
		return Record{}, fmt.Errorf("empty payload")
	}
	rec := Record{Type: p[0]}
	rest := p[1:]
	key, rest, err := decodeBytes(rest, "key")
	if err != nil {
		return Record{}, err
	}
	rec.Key = string(key)
	switch rec.Type {
	case RecCreate, RecResilience:
		spec, rest2, err := decodeBytes(rest, "spec")
		if err != nil {
			return Record{}, err
		}
		rec.Spec = spec
		rest = rest2
	case RecDrop, RecFlush:
		// key only
	case RecDelete, RecInvalidate:
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return Record{}, fmt.Errorf("bad element")
		}
		rec.Elem = int(v)
		rest = rest[n:]
	case RecBatch:
		count, n := binary.Uvarint(rest)
		if n <= 0 {
			return Record{}, fmt.Errorf("bad batch count")
		}
		rest = rest[n:]
		if count > uint64(len(rest)) {
			// Each element takes >= 1 byte, so a count beyond the
			// remaining payload is structurally impossible.
			return Record{}, fmt.Errorf("batch count %d exceeds payload", count)
		}
		rec.Items = make([]int, count)
		for i := range rec.Items {
			v, n := binary.Uvarint(rest)
			if n <= 0 {
				return Record{}, fmt.Errorf("bad batch element %d", i)
			}
			rec.Items[i] = int(v)
			rest = rest[n:]
		}
	default:
		return Record{}, fmt.Errorf("unknown record type %d", rec.Type)
	}
	if len(rest) != 0 {
		return Record{}, fmt.Errorf("%d trailing bytes after record", len(rest))
	}
	return rec, nil
}

// decodeBytes reads one uvarint-length-prefixed byte string.
func decodeBytes(p []byte, what string) ([]byte, []byte, error) {
	n64, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, nil, fmt.Errorf("bad %s length", what)
	}
	p = p[n:]
	if n64 > uint64(len(p)) {
		return nil, nil, fmt.Errorf("%s length %d exceeds payload", what, n64)
	}
	return p[:n64], p[n64:], nil
}
