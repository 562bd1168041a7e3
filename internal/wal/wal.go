// Package wal implements the durability layer of the classification
// service: per-shard append-only write-ahead logs plus flat-snapshot
// checkpoints, with replay-on-boot recovery. The on-disk format is
// specified in docs/PERSISTENCE.md; this package is deliberately
// stdlib-only and free of project dependencies so the same flat-partition
// framing can later double as the multi-node wire format.
//
// Each shard goroutine of the service owns one Log: records (collection
// create/drop, accepted item batches, flush boundaries) are framed as
// [length, CRC32C, payload] and appended to segment files named
// wal-<generation>.log. A checkpoint serializes every collection's flat
// answer backing (core.Answer's one-slice layout), class offsets, and
// pending buffer to checkpoint.snap via an atomic tmp+rename, then starts
// a fresh segment generation so the segments behind it can be deleted.
// Replay loads the checkpoint (if any) and re-applies the record tail of
// every surviving segment at or above the checkpoint's generation.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Policy selects when appended records are fsynced to stable storage.
type Policy string

// The three fsync policies. SyncAlways fsyncs on every committed
// operation (maximum durability, one disk flush per ingest call);
// SyncInterval fsyncs when Options.Interval has elapsed since the last
// sync (bounded data loss, amortized flushes); SyncNever leaves flushing
// to the OS page cache (fastest; a machine crash can lose the unsynced
// tail, a clean process exit loses nothing).
const (
	SyncAlways   Policy = "always"
	SyncInterval Policy = "interval"
	SyncNever    Policy = "never"
)

// ParsePolicy validates an fsync policy name, accepting the empty string
// as the default (SyncInterval).
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case "":
		return SyncInterval, nil
	case SyncAlways, SyncInterval, SyncNever:
		return Policy(s), nil
	}
	return "", fmt.Errorf("wal: unknown fsync policy %q (want %q, %q, or %q)", s, SyncAlways, SyncInterval, SyncNever)
}

// Record types. The type byte leads every record payload.
const (
	// RecCreate registers a collection: key + its oracle-spec JSON.
	RecCreate byte = 1
	// RecDrop removes a collection.
	RecDrop byte = 2
	// RecBatch is one accepted ingest batch: key + element ids.
	RecBatch byte = 3
	// RecFlush marks a successful fold boundary: the collection's pending
	// buffer, as of this point in the log, was folded into its answer.
	// Replay re-folds at exactly these boundaries, which is what makes a
	// recovered collection bit-identical (classes and stats) to one that
	// never crashed.
	RecFlush byte = 4
	// RecDelete removes one element from a collection — the churn inverse
	// of a RecBatch entry. Format version 2.
	RecDelete byte = 5
	// RecInvalidate withdraws the merged class containing one element,
	// re-queueing its members as pending. The class is keyed by a member
	// element (not a class index) because element identity is stable
	// across replay while class ordering is not. Format version 2.
	RecInvalidate byte = 6
	// RecResilience updates a collection's resilience profile in place:
	// key + the new profile's JSON encoding (the service stores
	// ResilienceSpec JSON). Replay re-applies the update at the same
	// point in the history, so a recovered collection runs with the
	// profile the operator last PATCHed, not the one frozen at create
	// time. Format version 3.
	RecResilience byte = 7
)

// Fold policies of the incremental engine. A v4 checkpoint stores one
// per collection; a create record means the fold of its segment's
// version (FoldOf). The byte is meaningless to batch regimens, which
// store it all the same.
const (
	// FoldGroup is the fold of every collection created under format
	// versions 2–3: pending singletons and the answer merge as one CR
	// group round.
	FoldGroup byte = 0
	// FoldRepFirst is the fold of collections created under version 4:
	// pending elements are first matched against class representatives,
	// and only the unmatched merge as a group.
	FoldRepFirst byte = 1
)

// FoldOf reports the fold of a collection whose create record was read
// from a file of format version v.
func FoldOf(v uint16) byte {
	if v < 4 {
		return FoldGroup
	}
	return FoldRepFirst
}

// Format constants shared by segment and checkpoint files. See
// docs/PERSISTENCE.md for the byte-level layout.
const (
	// segMagic opens every WAL segment file.
	segMagic = "ECSW"
	// snapMagic opens every checkpoint file.
	snapMagic = "ECSS"
	// FormatVersion is the current on-disk format version, stamped into
	// every header this build writes: version 2 added the
	// RecDelete/RecInvalidate record types, version 3 added
	// RecResilience, version 4 added the per-collection fold byte to
	// checkpoints and made a create record mean FoldRepFirst (see
	// docs/PERSISTENCE.md, "Versioning").
	FormatVersion = 4
	// MinFormatVersion is the oldest version this build still reads.
	// v2 and v3 files replay as-is: v3 only added a record type, and v4
	// reads a v2–v3 create record or checkpoint entry as FoldGroup — the
	// fold those files were written under — so an upgraded node recovers
	// its old data bit-identically. Versions below the floor, or above
	// FormatVersion, are rejected loudly: a reader must never skip
	// records it cannot interpret.
	MinFormatVersion = 2
	// headerSize is the fixed size of both file headers:
	// magic[4] version[u16] reserved[u16] generation[u64].
	headerSize = 16
	// frameOverhead is the per-record framing cost: length[u32] crc[u32].
	frameOverhead = 8
	// maxRecordSize bounds one record's payload; a longer length prefix
	// means corruption, not a huge record.
	maxRecordSize = 1 << 28
)

// castagnoli is the CRC32-C table used for all record checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt wraps every integrity failure found while reading WAL or
// checkpoint files: CRC mismatches, bad magic, impossible lengths.
// Torn tails (a final record cut short by a crash) are NOT corruption —
// replay truncates them silently and reports them in the summary.
var ErrCorrupt = errors.New("wal: corrupt")

// Counters aggregates append/fsync activity across all of a service's
// logs (segment rotation replaces Log values, so the counters live
// outside). All fields are atomics, safe to read from metrics scrapes
// while shard goroutines append.
type Counters struct {
	// Appends counts records appended.
	Appends atomic.Int64
	// Bytes counts framed bytes written (payload + frame overhead).
	Bytes atomic.Int64
	// Fsyncs counts file syncs issued by the policy, Commit, or Sync.
	Fsyncs atomic.Int64
	// FsyncNanos accumulates time spent in fsync.
	FsyncNanos atomic.Int64
	// LastFsyncNanos is the duration of the most recent fsync.
	LastFsyncNanos atomic.Int64
}

// Options configures a Log.
type Options struct {
	// Policy is the fsync policy; the zero value means SyncInterval.
	Policy Policy
	// Interval is the minimum spacing between fsyncs under SyncInterval;
	// 0 means 100ms.
	Interval time.Duration
	// Counters, when non-nil, receives append/fsync accounting. A service
	// passes one shared Counters to every shard's logs.
	Counters *Counters
}

func (o Options) interval() time.Duration {
	if o.Interval <= 0 {
		return 100 * time.Millisecond
	}
	return o.Interval
}

func (o Options) policy() Policy {
	if o.Policy == "" {
		return SyncInterval
	}
	return o.Policy
}

// Log is one shard's append-only record log: a single open segment file.
// A Log is single-writer by construction — the owning shard goroutine is
// the only appender — so it needs no internal locking; the shared
// Counters are atomic for cross-goroutine metric reads.
type Log struct {
	f        *os.File
	path     string
	gen      uint64
	opts     Options
	buf      []byte // reusable frame-encoding buffer
	size     int64  // file size in bytes (header + all appended frames)
	dirty    bool   // bytes written since the last fsync
	lastSync time.Time
}

// SegmentName renders the file name of generation gen. Generations are
// zero-padded so lexical directory order matches numeric order.
func SegmentName(gen uint64) string { return fmt.Sprintf("wal-%08d.log", gen) }

// Create starts a new empty segment file for generation gen in dir,
// writing its header. It fails if the segment already exists.
func Create(dir string, gen uint64, opts Options) (*Log, error) {
	path := filepath.Join(dir, SegmentName(gen))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: create segment: %w", err)
	}
	var hdr [headerSize]byte
	copy(hdr[:4], segMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], FormatVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], gen)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: write segment header: %w", err)
	}
	l := &Log{f: f, path: path, gen: gen, opts: opts, size: headerSize, lastSync: time.Now()}
	if err := l.fsync(); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// OpenAppend reopens an existing segment for appending — the boot path
// after replay has validated (and possibly truncated) it. The header is
// verified against gen.
func OpenAppend(dir string, gen uint64, opts Options) (*Log, error) {
	path := filepath.Join(dir, SegmentName(gen))
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open segment: %w", err)
	}
	var hdr [headerSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: %s: short header: %v", ErrCorrupt, path, err)
	}
	if got := checkHeader(hdr, segMagic); got != nil {
		f.Close()
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, path, got)
	}
	if g := binary.LittleEndian.Uint64(hdr[8:16]); g != gen {
		f.Close()
		return nil, fmt.Errorf("%w: %s: header generation %d, file name says %d", ErrCorrupt, path, g, gen)
	}
	end, err := f.Seek(0, 2)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seek segment end: %w", err)
	}
	return &Log{f: f, path: path, gen: gen, opts: opts, size: end, lastSync: time.Now()}, nil
}

// checkHeader validates a 16-byte file header's magic and version.
// Versions inside [MinFormatVersion, FormatVersion] are readable; new
// files are always written at FormatVersion.
func checkHeader(hdr [headerSize]byte, magic string) error {
	if string(hdr[:4]) != magic {
		return fmt.Errorf("bad magic %q (want %q)", hdr[:4], magic)
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v < MinFormatVersion || v > FormatVersion {
		return fmt.Errorf("format version %d unsupported (this build reads versions %d through %d)", v, MinFormatVersion, FormatVersion)
	}
	return nil
}

// Gen returns the segment's generation.
func (l *Log) Gen() uint64 { return l.gen }

// Path returns the segment file's path.
func (l *Log) Path() string { return l.path }

// AppendCreate appends a collection-create record: key plus its opaque
// spec encoding (the service stores OracleSpec JSON).
func (l *Log) AppendCreate(key string, spec []byte) error {
	p := l.payload(RecCreate, key)
	p = binary.AppendUvarint(p, uint64(len(spec)))
	p = append(p, spec...)
	return l.appendFrame(p)
}

// AppendDrop appends a collection-drop record.
func (l *Log) AppendDrop(key string) error {
	return l.appendFrame(l.payload(RecDrop, key))
}

// AppendBatch appends one accepted ingest batch. The element ids are
// uvarint-encoded into the log's reusable buffer, so a steady-state
// append allocates nothing.
//
//ecsort:hotpath
func (l *Log) AppendBatch(key string, items []int) error {
	p := l.payload(RecBatch, key)
	p = binary.AppendUvarint(p, uint64(len(items)))
	for _, e := range items {
		p = binary.AppendUvarint(p, uint64(e))
	}
	return l.appendFrame(p)
}

// AppendFlush appends a fold-boundary record for key.
//
//ecsort:hotpath
func (l *Log) AppendFlush(key string) error {
	return l.appendFrame(l.payload(RecFlush, key))
}

// AppendDelete appends a single-element delete record.
func (l *Log) AppendDelete(key string, elem int) error {
	p := l.payload(RecDelete, key)
	p = binary.AppendUvarint(p, uint64(elem))
	return l.appendFrame(p)
}

// AppendInvalidate appends a class-invalidation record, keyed by one
// member element of the invalidated class.
func (l *Log) AppendInvalidate(key string, elem int) error {
	p := l.payload(RecInvalidate, key)
	p = binary.AppendUvarint(p, uint64(elem))
	return l.appendFrame(p)
}

// AppendResilience appends a resilience-profile update record: key plus
// the new profile's opaque encoding (the service stores ResilienceSpec
// JSON).
func (l *Log) AppendResilience(key string, spec []byte) error {
	p := l.payload(RecResilience, key)
	p = binary.AppendUvarint(p, uint64(len(spec)))
	p = append(p, spec...)
	return l.appendFrame(p)
}

// Size returns the segment file's current size in bytes — header plus
// every appended frame. The service's size-based rotation compares it
// against Config.MaxSegmentBytes after each operation.
func (l *Log) Size() int64 { return l.size }

// payload starts a record payload in the reusable buffer, leaving room
// for the frame header: [len u32][crc u32] are back-filled by
// appendFrame.
func (l *Log) payload(typ byte, key string) []byte {
	p := append(l.buf[:0], 0, 0, 0, 0, 0, 0, 0, 0)
	p = append(p, typ)
	p = binary.AppendUvarint(p, uint64(len(key)))
	p = append(p, key...)
	return p
}

// appendFrame back-fills the length and CRC of the encoded payload and
// writes the frame with one Write call.
//
//ecsort:hotpath
func (l *Log) appendFrame(p []byte) error {
	l.buf = p // retain growth for the next append
	payload := p[frameOverhead:]
	binary.LittleEndian.PutUint32(p[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(p[4:8], crc32.Checksum(payload, castagnoli))
	if _, err := l.f.Write(p); err != nil {
		return l.appendErr(err)
	}
	l.size += int64(len(p))
	l.dirty = true
	if c := l.opts.Counters; c != nil {
		c.Appends.Add(1)
		c.Bytes.Add(int64(len(p)))
	}
	return nil
}

// appendErr wraps a write failure with the segment path. Kept out of the
// hot append path so its formatting never costs the steady state an
// allocation.
func (l *Log) appendErr(err error) error {
	return fmt.Errorf("wal: append to %s: %w", l.path, err)
}

// Commit applies the fsync policy at an operation boundary: SyncAlways
// syncs now, SyncInterval syncs if the interval has elapsed since the
// last sync, SyncNever does nothing. The service calls Commit once per
// accepted operation, after all of the operation's records are appended,
// so a multi-record operation costs at most one fsync.
func (l *Log) Commit() error {
	switch l.opts.policy() {
	case SyncAlways:
		return l.Sync()
	case SyncInterval:
		if time.Since(l.lastSync) >= l.opts.interval() {
			return l.Sync()
		}
	}
	return nil
}

// Sync forces dirty bytes to stable storage now, regardless of policy.
func (l *Log) Sync() error {
	if !l.dirty {
		return nil
	}
	return l.fsync()
}

func (l *Log) fsync() error {
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync %s: %w", l.path, err)
	}
	d := time.Since(start)
	l.dirty = false
	l.lastSync = time.Now()
	if c := l.opts.Counters; c != nil {
		c.Fsyncs.Add(1)
		c.FsyncNanos.Add(d.Nanoseconds())
		c.LastFsyncNanos.Store(d.Nanoseconds())
	}
	return nil
}

// Close syncs and closes the segment file.
func (l *Log) Close() error {
	if err := l.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// Segment identifies one on-disk WAL segment file.
type Segment struct {
	// Gen is the generation parsed from the file name.
	Gen uint64
	// Path is the file's full path.
	Path string
}

// Segments lists dir's WAL segment files in ascending generation order.
// Non-segment files (the checkpoint, tmp leftovers) are ignored.
func Segments(dir string) ([]Segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list segments: %w", err)
	}
	var segs []Segment
	for _, ent := range entries {
		name := ent.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		gen, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64)
		if err != nil {
			continue
		}
		segs = append(segs, Segment{Gen: gen, Path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Gen < segs[j].Gen })
	return segs, nil
}

// RemoveSegmentsBelow deletes every segment of generation < gen — the
// log truncation step after a checkpoint at generation gen has been
// durably written.
func RemoveSegmentsBelow(dir string, gen uint64) error {
	segs, err := Segments(dir)
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if seg.Gen >= gen {
			continue
		}
		if err := os.Remove(seg.Path); err != nil {
			return fmt.Errorf("wal: remove stale segment: %w", err)
		}
	}
	return nil
}
