package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ecsort/internal/model"
	"ecsort/internal/oracle"
	rt "ecsort/internal/runtime"
	"ecsort/internal/wal"
)

// Errors reported by the service API. The HTTP layer maps them to status
// codes.
var (
	// ErrClosed is returned once Close has been called.
	ErrClosed = errors.New("service: closed")
	// ErrNotFound is returned for operations on a collection that does
	// not exist.
	ErrNotFound = errors.New("service: collection not found")
	// ErrExists is returned when creating a collection whose key is
	// taken.
	ErrExists = errors.New("service: collection already exists")
	// ErrBadItem is returned when an ingest batch contains an
	// out-of-range or duplicate element; the whole batch is rejected.
	ErrBadItem = errors.New("service: bad item")
	// ErrBadSpec is returned when a collection spec fails validation
	// (unknown kind, empty universe, malformed graphs, empty key).
	ErrBadSpec = errors.New("service: bad spec")
	// ErrDegraded matches (via errors.Is) the DegradedError writes
	// receive while a collection's oracle circuit breaker is open:
	// the collection is read-only — snapshots still serve — until the
	// breaker's cooldown admits a successful probe.
	ErrDegraded = errors.New("service: collection degraded (oracle unavailable)")
)

// DegradedError rejects a write against a collection whose oracle
// breaker is open. RetryAfter is how long until the breaker admits its
// next probe; the HTTP layer maps it to 503 + Retry-After.
type DegradedError struct {
	Key        string
	RetryAfter time.Duration
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("service: collection %q degraded (oracle unavailable); retry after %s", e.Key, e.RetryAfter)
}

// Is makes errors.Is(err, ErrDegraded) match.
func (e *DegradedError) Is(target error) bool { return target == ErrDegraded }

// Config tunes a Service. The zero value is ready to use.
type Config struct {
	// Shards is the number of independent single-writer goroutines
	// collections are hashed across. 0 means 8.
	Shards int
	// BatchSize is the pending-element threshold that triggers a flush
	// during ingestion. 0 flushes after every ingest call (one
	// compounding round per HTTP batch); larger values accumulate across
	// calls and amortize further, at the cost of staler snapshots.
	BatchSize int
	// FlushInterval, when positive, bounds snapshot staleness: each
	// shard flushes its dirty collections at this period even if no
	// batch fills up.
	FlushInterval time.Duration
	// Processors caps comparisons per physical round in each
	// collection's session (Valiant's p); 0 means n.
	Processors int
	// Workers is the size of the service-wide execution pool: one
	// persistent runtime.Pool shared by every collection's session, so
	// concurrent shard flushes time-slice a fixed set of goroutines
	// instead of spawning per round. 0 means GOMAXPROCS.
	Workers int

	// DataDir, when non-empty, makes collections durable: each shard
	// goroutine appends accepted operations to its own write-ahead log
	// under DataDir/shard-<i>/ and periodically checkpoints its
	// collections' flat answers, and Open replays snapshot-then-tail on
	// boot. Empty keeps the service memory-only (a restart loses all
	// collections). The on-disk format is specified in
	// docs/PERSISTENCE.md.
	DataDir string
	// Fsync selects when WAL appends reach stable storage: "always"
	// (fsync per accepted operation), "interval" (fsync at most every
	// FsyncInterval; the default), or "never" (leave flushing to the OS
	// page cache — a machine crash may lose the unsynced tail, a clean
	// shutdown loses nothing). Ignored when DataDir is empty.
	Fsync string
	// FsyncInterval bounds data loss under Fsync "interval"; 0 means
	// 100ms.
	FsyncInterval time.Duration
	// CheckpointInterval, when positive, makes each shard checkpoint its
	// collections at this period, truncating the WAL behind the
	// snapshot. 0 checkpoints only on Close and explicit Checkpoint
	// calls, so the WAL grows until then.
	CheckpointInterval time.Duration
	// MaxSegmentBytes, when positive, rotates a shard's WAL to a fresh
	// segment once the current one grows past this size, bounding the
	// largest file recovery must scan in one piece. Rotation does not
	// checkpoint — replay walks the whole segment chain — so it bounds
	// file size, not recovery work. 0 never rotates on size.
	MaxSegmentBytes int64
	// Repair configures the background self-repair daemon that samples
	// element pairs, re-verifies them against the oracle, and withdraws
	// diverging classes for re-sorting. The zero value disables the
	// daemon; RepairSweep can still be called explicitly.
	Repair RepairConfig
	// DisableBatchOracle hides every oracle's batch capability from the
	// collection sessions, forcing per-pair Same dispatch. Batch
	// answering is on by default; this switch exists for A/B
	// measurement (serve-stress -batch-oracle) and as an operational
	// escape hatch.
	DisableBatchOracle bool
}

func (c Config) shards() int {
	if c.Shards <= 0 {
		return 8
	}
	return c.Shards
}

// Snapshot is an immutable view of a collection published at its last
// flush. Readers get the snapshot without touching the writer goroutine,
// so queries never block ingestion. A snapshot is flat underneath: all
// classes are views into one backing array copied from the sorter with a
// single memmove, and an element→class index makes ClassIndexOf an O(1)
// point lookup. Treat Classes as read-only.
type Snapshot struct {
	// Version counts flushes; it increments each time a new snapshot is
	// published.
	Version int64 `json:"version"`
	// Classes is the partition of all flushed elements, members sorted
	// ascending, classes ordered by smallest member.
	Classes [][]int `json:"classes"`
	// Size is the number of elements covered by Classes.
	Size int `json:"size"`
	// Stats is the session cost at publish time.
	Stats model.Stats `json:"stats"`

	// classOf maps element -> index into Classes, -1 when the element is
	// not covered (never ingested, or still pending). nil on the empty
	// snapshot a fresh collection publishes.
	classOf []int32
}

// ClassIndexOf returns the index into Classes of element e's class, or -1
// if e is not covered by this snapshot. O(1).
//
//ecsort:hotpath
func (s *Snapshot) ClassIndexOf(e int) int {
	if s == nil || e < 0 || e >= len(s.classOf) {
		return -1
	}
	return int(s.classOf[e])
}

// numClasses is a convenience for metrics.
func (s *Snapshot) numClasses() int { return len(s.Classes) }

// ClassView is one element's class as served from a snapshot — the
// payload of the ClassOf point lookup.
type ClassView struct {
	// Element is the queried element.
	Element int `json:"element"`
	// ClassIndex is the class's index in the snapshot's Classes.
	ClassIndex int `json:"class_index"`
	// Members is the full class, sorted ascending.
	Members []int `json:"members"`
	// Version is the snapshot version the lookup was served from.
	Version int64 `json:"version"`
}

// CollectionInfo reports a collection's identity and counters for the
// stats endpoint.
type CollectionInfo struct {
	Key string `json:"key"`
	// Kind is the oracle kind behind the collection.
	Kind string `json:"kind"`
	// Algorithm is the sorting regimen folding the collection's batches
	// ("incremental" for the default online engine).
	Algorithm string `json:"algorithm"`
	// Universe is the oracle's element count (insertable ids are
	// 0..Universe-1).
	Universe int `json:"universe"`
	// Ingested counts elements accepted so far (flushed or pending).
	Ingested int64 `json:"ingested"`
	// Pending counts buffered elements not yet folded into a snapshot.
	Pending int64 `json:"pending"`
	// Batches counts accepted ingest calls.
	Batches int64 `json:"batches"`
	// Flushes counts compounding rounds spent (snapshot publications).
	Flushes int64 `json:"flushes"`
	// Classes is the class count of the current snapshot.
	Classes int `json:"classes"`
	// Deleted counts elements removed by Delete calls.
	Deleted int64 `json:"deleted,omitempty"`
	// Invalidated counts class withdrawals (explicit invalidations plus
	// repair-daemon corrections).
	Invalidated int64 `json:"invalidated,omitempty"`
	// Repaired counts divergences the repair daemon corrected.
	Repaired int64 `json:"repaired,omitempty"`
	// Breaker is the oracle circuit breaker's state ("closed", "open",
	// "half-open"); empty for collections without resilience middleware.
	Breaker string `json:"breaker,omitempty"`
	// RetryAfterSeconds is how long writes stay rejected while the
	// breaker is open; 0 when writes are admitted.
	RetryAfterSeconds float64 `json:"retry_after_seconds,omitempty"`
	// Snapshot is the current published answer.
	Snapshot *Snapshot `json:"snapshot,omitempty"`
}

// IngestResult summarizes one accepted batch.
type IngestResult struct {
	// Accepted is the number of elements buffered by this call.
	Accepted int `json:"accepted"`
	// Pending is the buffer size after the call (0 if it flushed).
	Pending int `json:"pending"`
	// Flushed reports whether this call folded the buffer into the
	// answer and published a new snapshot.
	Flushed bool `json:"flushed"`
	// Version is the snapshot version after the call.
	Version int64 `json:"version"`
}

// collection is one keyed namespace: a sorter (the incremental engine,
// or a batch regimen from the registry) plus its published snapshot.
// The srt field is owned by the shard goroutine; snap and the atomic
// counters are shared with readers.
type collection struct {
	key      string
	spec     OracleSpec
	algoName string
	fold     byte   // engine fold, persisted in checkpoints (see buildSorter)
	srt      sorter //ecsort:owned-by-shard
	// orc is the effective oracle the collection's folds test against —
	// the resilience middleware when the spec configures faults or
	// resilience, the bare spec oracle otherwise. The repair daemon
	// re-verifies sampled pairs against it.
	orc model.Oracle
	// res is the resilience middleware handle (nil for plain
	// collections): the circuit breaker the service consults for
	// degraded-mode write gating and the /metrics oracle counters.
	res *oracle.Resilient

	snap        atomic.Pointer[Snapshot]
	ingested    atomic.Int64
	pending     atomic.Int64
	batches     atomic.Int64
	flushes     atomic.Int64
	deleted     atomic.Int64
	invalidated atomic.Int64
	repaired    atomic.Int64
}

// newCollection assembles a collection around a built engine. Runs on
// the owning shard goroutine (the create op) or during Open's recovery
// pass, which precedes the goroutine and inherits its exclusivity.
//
//ecsort:shard-goroutine
func newCollection(key string, spec OracleSpec, eng engine) *collection {
	return &collection{key: key, spec: spec, algoName: eng.algoName, fold: eng.fold, srt: eng.srt, orc: eng.orc, res: eng.res}
}

// degraded reports whether the collection currently refuses writes —
// its oracle breaker is open and still cooling down — and how long
// until the next probe is admitted. Once the cooldown elapses the
// breaker is half-open and writes flow again (the first fold probes).
func (c *collection) degraded() (time.Duration, bool) {
	if c.res == nil {
		return 0, false
	}
	if ra := c.res.RetryAfter(); ra > 0 {
		return ra, true
	}
	return 0, false
}

// admitWrite is the fold-triggering write gate: like degraded, but in
// half-open it claims the breaker's single probe-write slot — one write
// per cooldown is admitted (and must fold, so the oracle is actually
// probed) while the rest stay rejected until the probe settles. This is
// how write-only workloads recover: without it no ask is ever issued
// and the breaker can never re-close. Returns (retryAfter, probe,
// admitted).
func (c *collection) admitWrite() (time.Duration, bool, bool) {
	if c.res == nil {
		return 0, false, true
	}
	return c.res.AdmitWrite()
}

// publish rebuilds the snapshot from the sorter. Shard goroutine only.
// The sorter's flat answer is copied with one memmove; classes become
// views into that copy, so publication costs a handful of allocations
// regardless of how many classes the collection has grown.
func (c *collection) publish() {
	elems, offs := c.srt.Flat()
	k := 0
	if len(offs) > 0 {
		k = len(offs) - 1
	}
	backing := make([]int, len(elems))
	copy(backing, elems)
	classes := make([][]int, k)
	for i := 0; i < k; i++ {
		cls := backing[offs[i]:offs[i+1]:offs[i+1]]
		sort.Ints(cls)
		classes[i] = cls
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i][0] < classes[j][0] })
	classOf := make([]int32, c.spec.N())
	for i := range classOf {
		classOf[i] = -1
	}
	for ci, cls := range classes {
		for _, e := range cls {
			classOf[e] = int32(ci)
		}
	}
	c.snap.Store(&Snapshot{
		Version: int64(c.srt.Flushes()),
		Classes: classes,
		Size:    len(backing),
		Stats:   c.srt.Stats(),
		classOf: classOf,
	})
	c.pending.Store(int64(c.srt.Pending()))
	c.flushes.Store(int64(c.srt.Flushes()))
}

func (c *collection) info(withSnapshot bool) CollectionInfo {
	snap := c.snap.Load()
	info := CollectionInfo{
		Key:       c.key,
		Kind:      c.spec.Kind,
		Algorithm: c.algoName,
		Universe:  c.spec.N(),
		Ingested:  c.ingested.Load(),
		Pending:   c.pending.Load(),
		Batches:   c.batches.Load(),
		Flushes:   c.flushes.Load(),
		Classes:   snap.numClasses(),
	}
	info.Deleted = c.deleted.Load()
	info.Invalidated = c.invalidated.Load()
	info.Repaired = c.repaired.Load()
	if c.res != nil {
		info.Breaker = c.res.State().String()
		info.RetryAfterSeconds = c.res.RetryAfter().Seconds()
	}
	if withSnapshot {
		info.Snapshot = snap
	}
	return info
}

// op is one unit of work executed by a shard's writer goroutine.
type op struct {
	fn   func() error
	done chan error
}

// shard owns a disjoint set of collections behind one writer goroutine:
// every mutation of a collection's sorter runs on that goroutine,
// serialized by the ops channel, so sorters need no locks and batches
// from concurrent clients interleave at batch (not element) granularity.
type shard struct {
	ops  chan op
	quit chan struct{}
	// die is the crash-test hatch: closing it makes the goroutine return
	// immediately, skipping the durable shutdown (WAL sync + final
	// checkpoint + segment close) — the in-process equivalent of SIGKILL
	// that the recovery tests are built on. Never closed in production.
	die chan struct{}

	mu   sync.RWMutex // guards cols (lookups come from reader goroutines)
	cols map[string]*collection

	// dirty tracks collections with unflushed pending elements, for the
	// FlushInterval ticker. Shard goroutine only.
	dirty map[*collection]struct{} //ecsort:owned-by-shard

	// dir is the shard's data directory; empty for a memory-only
	// service.
	dir string
	// wal is the shard's append-only log. The single-writer goroutine is
	// the only appender, which is what lets the log skip locking; nil
	// for a memory-only service. Shard goroutine only (recovery runs
	// before the goroutine starts and inherits the same exclusivity).
	wal *wal.Log //ecsort:owned-by-shard
	// gen is the current WAL segment generation, bumped by checkpoints.
	// Shard goroutine only.
	gen uint64 //ecsort:owned-by-shard
}

// Service is the sharded classification engine. Create one with New,
// serve it over HTTP with Handler, and Close it when done.
type Service struct {
	cfg    Config
	shards []*shard
	pool   *rt.Pool // execution pool shared by every collection's session
	start  time.Time

	// ctx is bound to every collection session; Close cancels it so
	// in-flight folds stop between physical rounds instead of holding
	// shutdown hostage to a large batch.
	ctx    context.Context
	cancel context.CancelFunc

	// Batch-fold latency counters: how long Flush+publish takes on the
	// shard goroutines, for the /metrics backpressure gauges.
	folds         atomic.Int64
	foldNanos     atomic.Int64
	lastFoldNanos atomic.Int64

	// Batch-oracle amortization counters, service-wide: batchRounds is
	// whole-chunk SameBatch invocations, batchPairs the pairs they
	// carried; pairs/rounds is the per-invocation amortization the
	// batch path exists for. Fed by the counting wrapper buildSorter
	// installs around batch-capable effective oracles.
	batchRounds atomic.Int64
	batchPairs  atomic.Int64

	// Durability accounting. walCtr is shared by every shard's logs
	// (segment rotation replaces Log values, so counters live here);
	// the checkpoint gauges and the recovery summary feed /metrics and
	// the boot log line.
	walCtr             wal.Counters
	checkpoints        atomic.Int64
	checkpointErrors   atomic.Int64
	lastCheckpointNano atomic.Int64
	walRotations       atomic.Int64 // size-triggered segment rotations
	recovery           RecoveryInfo // written once by Open, read-only after

	// Repair daemon state: the pair sampler built from Config.Repair
	// plus the convergence counters surfaced in /metrics. repairMu
	// serializes sweeps — the background daemon and explicit
	// RepairSweep calls share one seeded rng.
	repairMu           sync.Mutex
	repairRng          *rand.Rand
	sampler            repairSampler
	repairSweeps       atomic.Int64
	repairSamples      atomic.Int64
	repairDivergences  atomic.Int64
	repairCorrections  atomic.Int64
	repairSkipped      atomic.Int64
	repairErrors       atomic.Int64
	lastDivergenceNano atomic.Int64

	closeMu sync.RWMutex // write-held by Close; read-held around ops sends
	closed  bool
	wg      sync.WaitGroup
}

// RecoveryInfo summarizes what Open rebuilt from the data directory.
type RecoveryInfo struct {
	// Durable reports whether the service runs with a data directory.
	Durable bool `json:"durable"`
	// Collections is the number of collections restored from
	// checkpoints (tail-replayed creates are counted in Records).
	Collections int `json:"collections"`
	// Records is the number of WAL records replayed after checkpoints.
	Records int `json:"records"`
	// Segments is the number of WAL segment files visited.
	Segments int `json:"segments"`
	// TornTails counts segments whose final record was cut short by a
	// crash and truncated away.
	TornTails int `json:"torn_tails"`
	// Duration is the wall time recovery took.
	Duration time.Duration `json:"duration"`
}

// Recovery returns what Open rebuilt from Config.DataDir; the zero value
// with Durable false for a memory-only service.
func (s *Service) Recovery() RecoveryInfo { return s.recovery }

// New starts a service with cfg.shards() writer goroutines. A negative
// Workers is a caller bug and panics with model.ErrBadWorkers, matching
// the model layer's loud-failure policy for bad widths. New panics if
// durable recovery fails — a memory-only config (no DataDir) cannot
// fail; durable callers should prefer Open, which reports recovery
// errors instead.
func New(cfg Config) *Service {
	s, err := Open(cfg)
	if err != nil {
		panic(fmt.Errorf("service: New with durable config: %w (use Open to handle recovery errors)", err))
	}
	return s
}

// Open starts a service, recovering durable state first when
// Config.DataDir is set: each shard loads its latest checkpoint, replays
// the WAL tail behind it (truncating a torn final record), and resumes
// appending to the surviving segment. Recovery failures — a corrupted
// record in the middle of the history, a shard-count mismatch with the
// data directory — are returned, not papered over. The rebuilt
// collections are bit-identical (classes and stats) to the pre-crash
// state implied by the durable log. See Recovery for what was rebuilt.
func Open(cfg Config) (*Service, error) {
	if cfg.Workers < 0 {
		panic(fmt.Errorf("%w: service Workers(%d); use 0 for the GOMAXPROCS default", model.ErrBadWorkers, cfg.Workers))
	}
	if cfg.DataDir != "" {
		if _, err := wal.ParsePolicy(cfg.Fsync); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
	}
	s := &Service{cfg: cfg, pool: rt.NewPool(cfg.Workers), start: time.Now()}
	smp, err := newRepairSampler(cfg.Repair)
	if err != nil {
		s.pool.Close()
		return nil, err
	}
	s.sampler = smp
	s.repairRng = rand.New(rand.NewSource(cfg.Repair.Seed))
	//ecsort:ignore ctxflow service lifetime root: Close cancels it; per-request contexts layer on top
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.shards = make([]*shard, cfg.shards())
	for i := range s.shards {
		sh := &shard{
			ops:  make(chan op, 64),
			quit: make(chan struct{}),
			die:  make(chan struct{}),
			cols: make(map[string]*collection),
			//ecsort:ignore shardown constructed before the shard goroutine starts; the go statement publishes it
			dirty: make(map[*collection]struct{}),
		}
		if cfg.DataDir != "" {
			sh.dir = filepath.Join(cfg.DataDir, fmt.Sprintf("shard-%d", i))
		}
		s.shards[i] = sh
	}
	if cfg.DataDir != "" {
		if err := s.recoverAll(); err != nil {
			s.cancel()
			s.pool.Close()
			return nil, err
		}
	}
	for _, sh := range s.shards {
		s.wg.Add(1)
		go s.runShard(sh)
	}
	if cfg.Repair.Interval > 0 {
		s.wg.Add(1)
		go s.repairLoop()
	}
	return s, nil
}

// walOptions assembles the per-shard log options from the config, with
// the service-wide counters attached.
func (s *Service) walOptions() wal.Options {
	policy, _ := wal.ParsePolicy(s.cfg.Fsync) // validated by Open
	return wal.Options{Policy: policy, Interval: s.cfg.FsyncInterval, Counters: &s.walCtr}
}

// runShard is the single-writer loop of one shard.
//
//ecsort:shard-goroutine
func (s *Service) runShard(sh *shard) {
	defer s.wg.Done()
	var tick <-chan time.Time
	if s.cfg.FlushInterval > 0 {
		t := time.NewTicker(s.cfg.FlushInterval)
		defer t.Stop()
		tick = t.C
	}
	var ckpt <-chan time.Time
	if s.cfg.CheckpointInterval > 0 && sh.wal != nil {
		t := time.NewTicker(s.cfg.CheckpointInterval)
		defer t.Stop()
		ckpt = t.C
	}
	for {
		select {
		case o := <-sh.ops:
			o.done <- o.fn()
			s.maybeRotate(sh)
		case <-tick:
			for c := range sh.dirty {
				if err := s.fold(sh, c); err != nil {
					// An oracle/session failure here has no caller to
					// report to; leave the collection dirty and let the
					// next synchronous op surface the error.
					continue
				}
				delete(sh.dirty, c)
			}
			if sh.wal != nil {
				// Ticker folds appended flush records with no operation
				// boundary of their own; commit applies the fsync policy.
				sh.wal.Commit()
			}
			s.maybeRotate(sh)
		case <-sh.die:
			// Crash simulation: exit with the WAL unsynced and unclosed.
			return
		case <-ckpt:
			if err := s.checkpointShard(sh); err != nil {
				// Nowhere to report to synchronously; surface through the
				// error counter (and /metrics) and retry next tick.
				s.checkpointErrors.Add(1)
			}
		case <-sh.quit:
			// Reject anything that raced past the closed check.
			for {
				select {
				case o := <-sh.ops:
					o.done <- ErrClosed
				default:
					if sh.wal != nil {
						// Shutdown ordering: sync first so every acked
						// operation is durable even if the checkpoint
						// fails, then checkpoint so the next boot is
						// snapshot-only, then close the segment.
						sh.wal.Sync()
						if err := s.checkpointShard(sh); err != nil {
							s.checkpointErrors.Add(1)
						}
						sh.wal.Close()
					}
					return
				}
			}
		}
	}
}

// fold flushes c's pending buffer into its answer, publishes the new
// snapshot, and appends the fold-boundary record to the shard's WAL, so
// replay re-folds at exactly the same points (the determinism anchor).
// Batch-fold latency feeds the /metrics backpressure gauges. Shard
// goroutine only.
//
//ecsort:shard-goroutine
func (s *Service) fold(sh *shard, c *collection) error {
	start := time.Now()
	if c.res != nil {
		// Bind the fold to a cancelable context and register it with the
		// breaker: the moment the oracle trips, the fold aborts between
		// physical rounds instead of grinding through the dead oracle's
		// remaining comparisons (each burning its full timeout+retry
		// budget). The pending buffer survives the abort for retry.
		fctx, cancel := context.WithCancel(s.ctx)
		c.res.OnTrip(func(error) { cancel() })
		c.srt.SetContext(fctx)
		// The middleware's own asks follow the same fold lifetime: a trip
		// interrupts in-flight backoffs and timeouts immediately instead
		// of letting them run against the service root context.
		c.res.BindContext(fctx)
		defer func() {
			c.res.OnTrip(nil)
			cancel()
			c.srt.SetContext(s.ctx)
			c.res.BindContext(nil)
		}()
	}
	if err := c.srt.Flush(); err != nil {
		if ra, bad := c.degraded(); bad {
			// The fold died because the breaker tripped mid-flush; report
			// the degradation (503 + Retry-After upstream) rather than the
			// bare cancellation.
			return &DegradedError{Key: c.key, RetryAfter: ra}
		}
		return err
	}
	c.publish()
	d := time.Since(start).Nanoseconds()
	s.folds.Add(1)
	s.foldNanos.Add(d)
	s.lastFoldNanos.Store(d)
	if sh.wal != nil {
		// An append failure after a successful in-memory fold means the
		// fold boundary may not survive a crash — replay would leave the
		// batch pending instead, which is consistent but not what the
		// caller observed. Surface the disk error loudly.
		if err := sh.wal.AppendFlush(c.key); err != nil {
			return err
		}
	}
	return nil
}

// maybeRotate rolls the shard's WAL to a fresh segment once the current
// one exceeds Config.MaxSegmentBytes. Unlike a checkpoint rotation, no
// snapshot is taken — recovery replays the whole segment chain in
// generation order — so this only bounds individual file size. Runs
// between operations, never inside one, so every record of an accepted
// operation lands in a single segment. Shard goroutine only.
//
//ecsort:shard-goroutine
func (s *Service) maybeRotate(sh *shard) {
	if sh.wal == nil || s.cfg.MaxSegmentBytes <= 0 || sh.wal.Size() < s.cfg.MaxSegmentBytes {
		return
	}
	next, err := wal.Create(sh.dir, sh.gen+1, s.walOptions())
	if err != nil {
		// Keep appending to the oversized segment; the next boundary
		// retries. Rotation is an optimization, not a correctness step.
		return
	}
	old := sh.wal
	sh.wal = next
	sh.gen++
	// Close syncs the retired segment, so everything committed to it is
	// durable before appends move on.
	old.Close()
	s.walRotations.Add(1)
}

// RuntimeStats reports the shared execution pool's counters (parallel
// width, jobs, chunks, inline rounds) — surfaced in /metrics.
func (s *Service) RuntimeStats() rt.Stats { return s.pool.Stats() }

// do runs fn on the shard's writer goroutine and waits for it.
//
//ecsort:shard-dispatch
func (s *Service) do(sh *shard, fn func() error) error {
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		return ErrClosed
	}
	o := op{fn: fn, done: make(chan error, 1)}
	sh.ops <- o
	s.closeMu.RUnlock()
	return <-o.done
}

// Checkpoint forces an immediate checkpoint on every shard: each
// serializes its collections' flat answers to its snapshot file and
// truncates the WAL behind it. A no-op without a data directory. The
// first shard error is returned; remaining shards still checkpoint.
func (s *Service) Checkpoint() error {
	if s.cfg.DataDir == "" {
		return nil
	}
	var first error
	for _, sh := range s.shards {
		sh := sh
		if err := s.do(sh, func() error { return s.checkpointShard(sh) }); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close stops all shard goroutines. The service context is cancelled
// first, so a fold in flight stops at its next physical round (its
// collection keeps the pending buffer and stays consistent); operations
// still queued (and all subsequent calls) may be rejected with
// ErrClosed or the cancellation error. With durability on, each shard
// then syncs its WAL (every acked operation reaches disk), writes a
// final checkpoint (the next boot recovers from the snapshot alone), and
// closes its segment.
func (s *Service) Close() {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return
	}
	s.closed = true
	s.cancel()
	for _, sh := range s.shards {
		close(sh.quit)
	}
	s.closeMu.Unlock()
	s.wg.Wait()
	// All shard goroutines have exited, so no session can still be
	// submitting rounds — safe to stop the pool's workers.
	s.pool.Close()
}

// shardOf hashes a collection key onto its shard. The modulo happens in
// uint32 space: converting the hash to int first would go negative for
// half of all keys on 32-bit platforms.
func (s *Service) shardOf(key string) *shard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return s.shards[int(h.Sum32()%uint32(len(s.shards)))]
}

// lookup finds an existing collection.
func (sh *shard) lookup(key string) (*collection, error) {
	sh.mu.RLock()
	c, ok := sh.cols[key]
	sh.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return c, nil
}

// CreateCollection registers key with the given oracle spec. The oracle
// and the sorting regimen are built eagerly so spec errors surface
// here, not during ingestion. The spec's Algorithm field selects the
// regimen: the default incremental engine, or any registry regimen
// re-sorting the ingested sub-universe per flush.
func (s *Service) CreateCollection(key string, spec OracleSpec) error {
	if key == "" {
		return fmt.Errorf("%w: empty collection key", ErrBadSpec)
	}
	eng, err := s.buildSorter(spec, wal.FoldRepFirst)
	if err != nil {
		return err
	}
	var specJSON []byte
	if s.cfg.DataDir != "" {
		// Only durable creates pay for the spec encoding (the create
		// record's payload and the checkpoint's rebuild recipe).
		if specJSON, err = json.Marshal(spec); err != nil {
			return fmt.Errorf("%w: unencodable spec: %v", ErrBadSpec, err)
		}
	}
	sh := s.shardOf(key)
	return s.do(sh, func() error {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if _, ok := sh.cols[key]; ok {
			return fmt.Errorf("%w: %q", ErrExists, key)
		}
		if sh.wal != nil {
			if err := sh.wal.AppendCreate(key, specJSON); err != nil {
				return err
			}
			if err := sh.wal.Commit(); err != nil {
				return err
			}
		}
		c := newCollection(key, spec, eng)
		c.snap.Store(&Snapshot{Classes: [][]int{}})
		sh.cols[key] = c
		return nil
	})
}

// DropCollection removes key and its state. With durability on, the
// drop is logged before it takes effect, so a recovered service stays
// dropped.
func (s *Service) DropCollection(key string) error {
	sh := s.shardOf(key)
	return s.do(sh, func() error {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		c, ok := sh.cols[key]
		if !ok {
			return fmt.Errorf("%w: %q", ErrNotFound, key)
		}
		if sh.wal != nil {
			if err := sh.wal.AppendDrop(key); err != nil {
				return err
			}
			if err := sh.wal.Commit(); err != nil {
				return err
			}
		}
		delete(sh.cols, key)
		delete(sh.dirty, c)
		return nil
	})
}

// UpdateResilience replaces key's resilience profile in place — a live
// retune of votes, timeouts, and breaker settings without recreating
// the collection (the profile is otherwise frozen at create time). Only
// collections built with the middleware (a faults or resilience profile
// in their spec) can be retuned: the middleware cannot be retrofitted
// onto a bare oracle, so others reject with ErrBadSpec. The update is
// WAL-logged before it applies and the checkpointed spec carries it, so
// a recovered collection runs with the profile the operator last set.
// Breaker position and failure history survive the update.
func (s *Service) UpdateResilience(key string, rs ResilienceSpec) error {
	if err := rs.validate(); err != nil {
		return err
	}
	sh := s.shardOf(key)
	c, err := sh.lookup(key)
	if err != nil {
		return err
	}
	var specJSON []byte
	if s.cfg.DataDir != "" {
		if specJSON, err = json.Marshal(&rs); err != nil {
			return fmt.Errorf("%w: unencodable resilience spec: %v", ErrBadSpec, err)
		}
	}
	return s.do(sh, func() error {
		if cur, lookupErr := sh.lookup(key); lookupErr != nil {
			return lookupErr
		} else if cur != c {
			return fmt.Errorf("%w: %q was recreated mid-update", ErrNotFound, key)
		}
		if c.res == nil {
			return fmt.Errorf("%w: %q has no resilience middleware to retune (create it with a resilience or faults profile)", ErrBadSpec, key)
		}
		if sh.wal != nil {
			if err := sh.wal.AppendResilience(key, specJSON); err != nil {
				return err
			}
			if err := sh.wal.Commit(); err != nil {
				return err
			}
		}
		return s.applyResilience(c, rs)
	})
}

// Ingest buffers a batch of element ids into key's collection and flushes
// per the batching policy (always when forceFlush is set, when the
// pending buffer reaches Config.BatchSize, or — with BatchSize 0 — at the
// end of every call). The batch is atomic: if any item is out of range or
// already present, nothing is added and ErrBadItem is returned.
func (s *Service) Ingest(key string, items []int, forceFlush bool) (IngestResult, error) {
	sh := s.shardOf(key)
	c, err := sh.lookup(key)
	if err != nil {
		return IngestResult{}, err
	}
	var res IngestResult
	err = s.do(sh, func() error {
		// Revalidate on the writer goroutine: a concurrent drop (or
		// drop-and-recreate) between lookup and execution must not let
		// writes land on an orphaned sorter and report success.
		if cur, lookupErr := sh.lookup(key); lookupErr != nil {
			return lookupErr
		} else if cur != c {
			return fmt.Errorf("%w: %q was recreated mid-ingest", ErrNotFound, key)
		}
		ra, probe, admitted := c.admitWrite()
		if !admitted {
			// Read-only mode: accepting the batch would either wedge on
			// the dead oracle at fold time or silently defer work the
			// client believes accepted. Reject with the cooldown.
			return &DegradedError{Key: key, RetryAfter: ra}
		}
		n := c.spec.N()
		if err := validateBatch(items, n, c.srt); err != nil {
			return err
		}
		if sh.wal != nil {
			// Write-ahead: the accepted batch is logged before any sorter
			// mutation, so an append failure rejects the batch with the
			// collection untouched, and a crash after this point replays
			// the batch on boot.
			if err := sh.wal.AppendBatch(key, items); err != nil {
				return err
			}
		}
		for _, e := range items {
			if err := c.srt.Add(e); err != nil {
				// Unreachable after pre-validation; Add only rejects
				// out-of-range and duplicate elements.
				return err
			}
		}
		c.ingested.Add(int64(len(items)))
		c.batches.Add(1)
		res.Accepted = len(items)
		// A probe write must fold now: buffering it would claim the
		// half-open slot without ever asking the oracle, and nothing
		// would learn whether the backend healed.
		flush := forceFlush || probe || s.cfg.BatchSize <= 0 || c.srt.Pending() >= s.cfg.BatchSize
		if flush && c.srt.Pending() > 0 {
			if err := s.fold(sh, c); err != nil {
				// A failed fold is live now that batch regimens can fail
				// (const-round λ overestimates, Close cancellation). The
				// accepted items stay buffered; keep the pending gauge
				// truthful and the collection dirty so the interval
				// flusher retries and staleness stays bounded. The batch
				// record is already in the WAL, so the buffered items
				// survive a crash too.
				c.pending.Store(int64(c.srt.Pending()))
				sh.dirty[c] = struct{}{}
				if sh.wal != nil {
					sh.wal.Commit()
				}
				return err
			}
			delete(sh.dirty, c)
			res.Flushed = true
		} else if c.srt.Pending() > 0 {
			c.pending.Store(int64(c.srt.Pending()))
			sh.dirty[c] = struct{}{}
		}
		if sh.wal != nil {
			// One commit per accepted operation: under fsync "always" the
			// batch and its fold boundary reach disk in a single flush
			// before the client sees the ack.
			if err := sh.wal.Commit(); err != nil {
				return err
			}
		}
		res.Pending = c.srt.Pending()
		res.Version = c.snap.Load().Version
		return nil
	})
	if err != nil {
		return IngestResult{}, err
	}
	return res, nil
}

// Flush folds key's pending buffer immediately and publishes a fresh
// snapshot.
func (s *Service) Flush(key string) (*Snapshot, error) {
	sh := s.shardOf(key)
	c, err := sh.lookup(key)
	if err != nil {
		return nil, err
	}
	var snap *Snapshot
	err = s.do(sh, func() error {
		if cur, lookupErr := sh.lookup(key); lookupErr != nil {
			return lookupErr
		} else if cur != c {
			return fmt.Errorf("%w: %q was recreated mid-flush", ErrNotFound, key)
		}
		if ra, _, admitted := c.admitWrite(); !admitted {
			return &DegradedError{Key: key, RetryAfter: ra}
		}
		if c.srt.Pending() == 0 {
			// Nothing buffered: the published snapshot is already
			// current, so skip the O(n) rebuild a republish would cost.
			snap = c.snap.Load()
			return nil
		}
		if err := s.fold(sh, c); err != nil {
			// Same bookkeeping as the Ingest fold path: buffered items
			// survive, so the gauge and the dirty set must say so.
			c.pending.Store(int64(c.srt.Pending()))
			sh.dirty[c] = struct{}{}
			return err
		}
		delete(sh.dirty, c)
		if sh.wal != nil {
			if err := sh.wal.Commit(); err != nil {
				return err
			}
		}
		snap = c.snap.Load()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return snap, nil
}

// ChurnResult summarizes one delete or invalidate operation.
type ChurnResult struct {
	// Element is the element deleted, or the withdrawn class's
	// representative (its smallest member) for an invalidation.
	Element int `json:"element"`
	// Requeued counts members returned to the pending buffer for
	// re-verification (invalidate only).
	Requeued int `json:"requeued,omitempty"`
	// Pending is the collection's buffer size after the call.
	Pending int `json:"pending"`
	// Version is the published snapshot version after the call.
	Version int64 `json:"version"`
}

// DeleteItem removes element from key's collection — from the pending
// buffer or from its merged class (which disappears if emptied). The
// removal is WAL-logged before it mutates, and the snapshot republishes
// immediately (same version: the fold count is unchanged). The element
// can be re-ingested later. Deletes are rejected while the collection
// is degraded.
func (s *Service) DeleteItem(key string, element int) (ChurnResult, error) {
	sh := s.shardOf(key)
	c, err := sh.lookup(key)
	if err != nil {
		return ChurnResult{}, err
	}
	if n := c.spec.N(); element < 0 || element >= n {
		return ChurnResult{}, fmt.Errorf("%w: element %d out of range [0,%d)", ErrBadItem, element, n)
	}
	var res ChurnResult
	err = s.do(sh, func() error {
		if cur, lookupErr := sh.lookup(key); lookupErr != nil {
			return lookupErr
		} else if cur != c {
			return fmt.Errorf("%w: %q was recreated mid-delete", ErrNotFound, key)
		}
		if ra, bad := c.degraded(); bad {
			return &DegradedError{Key: key, RetryAfter: ra}
		}
		if !c.srt.Has(element) {
			return fmt.Errorf("%w: element %d not in %q", ErrNotFound, element, key)
		}
		if sh.wal != nil {
			// Write-ahead, same discipline as Ingest: an append failure
			// rejects the delete with the collection untouched.
			if err := sh.wal.AppendDelete(key, element); err != nil {
				return err
			}
		}
		if err := c.srt.Delete(element); err != nil {
			// Unreachable after the Has check; Delete only rejects
			// elements that are not added.
			return err
		}
		c.deleted.Add(1)
		c.publish()
		if c.srt.Pending() == 0 {
			delete(sh.dirty, c)
		}
		if sh.wal != nil {
			if err := sh.wal.Commit(); err != nil {
				return err
			}
		}
		res = ChurnResult{Element: element, Pending: c.srt.Pending(), Version: c.snap.Load().Version}
		return nil
	})
	if err != nil {
		return ChurnResult{}, err
	}
	return res, nil
}

// InvalidateClass withdraws class classIndex (an index into the
// published snapshot's Classes) from key's collection: its members
// leave the answer and re-enter the pending buffer, so the next fold
// re-verifies them against the oracle from scratch — the client-facing
// repair primitive for answers suspected stale or wrong. The withdrawal
// is WAL-logged keyed by the class's smallest member (class indexes are
// not replay-stable; element identity is). With foldNow set the
// re-verification happens before the call returns; otherwise the
// members wait for the next batch or interval fold. Rejected while the
// collection is degraded.
func (s *Service) InvalidateClass(key string, classIndex int, foldNow bool) (ChurnResult, error) {
	sh := s.shardOf(key)
	c, err := sh.lookup(key)
	if err != nil {
		return ChurnResult{}, err
	}
	var res ChurnResult
	err = s.do(sh, func() error {
		if cur, lookupErr := sh.lookup(key); lookupErr != nil {
			return lookupErr
		} else if cur != c {
			return fmt.Errorf("%w: %q was recreated mid-invalidate", ErrNotFound, key)
		}
		if ra, bad := c.degraded(); bad {
			return &DegradedError{Key: key, RetryAfter: ra}
		}
		// Resolve the class on the writer goroutine, where the snapshot
		// is exactly in sync with the merged answer (every mutation
		// republishes before the next op runs).
		snap := c.snap.Load()
		if classIndex < 0 || classIndex >= len(snap.Classes) {
			return fmt.Errorf("%w: class %d not in %q (snapshot has %d classes)",
				ErrNotFound, classIndex, key, len(snap.Classes))
		}
		rep := snap.Classes[classIndex][0]
		if sh.wal != nil {
			if err := sh.wal.AppendInvalidate(key, rep); err != nil {
				return err
			}
		}
		n, err := c.srt.Invalidate(rep)
		if err != nil {
			// Unreachable: a snapshot class member is merged by
			// construction.
			return err
		}
		c.invalidated.Add(1)
		c.publish()
		sh.dirty[c] = struct{}{}
		if foldNow {
			if err := s.fold(sh, c); err != nil {
				// The members stay pending; the interval flusher retries.
				c.pending.Store(int64(c.srt.Pending()))
				if sh.wal != nil {
					sh.wal.Commit()
				}
				return err
			}
			delete(sh.dirty, c)
		}
		if sh.wal != nil {
			if err := sh.wal.Commit(); err != nil {
				return err
			}
		}
		res = ChurnResult{Element: rep, Requeued: n, Pending: c.srt.Pending(), Version: c.snap.Load().Version}
		return nil
	})
	if err != nil {
		return ChurnResult{}, err
	}
	return res, nil
}

// Classes returns key's answer. With fresh=false it is the published
// snapshot — a lock-free atomic load that never waits on the writer.
// With fresh=true the call routes through the shard goroutine, flushing
// pending elements first, so it reflects every ingest accepted before
// it — unless the collection is degraded, in which case the last
// published snapshot serves instead: reads stay available while the
// oracle is down.
func (s *Service) Classes(key string, fresh bool) (*Snapshot, error) {
	if fresh {
		snap, err := s.Flush(key)
		if err == nil || !errors.Is(err, ErrDegraded) {
			return snap, err
		}
		// Degraded: fall through to the stale snapshot.
	}
	sh := s.shardOf(key)
	c, err := sh.lookup(key)
	if err != nil {
		return nil, err
	}
	return c.snap.Load(), nil
}

// CollectionStats returns key's counters plus its current snapshot.
func (s *Service) CollectionStats(key string) (CollectionInfo, error) {
	sh := s.shardOf(key)
	c, err := sh.lookup(key)
	if err != nil {
		return CollectionInfo{}, err
	}
	return c.info(true), nil
}

// Collections lists every collection's counters (no snapshots), sorted
// by key.
func (s *Service) Collections() []CollectionInfo {
	var out []CollectionInfo
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, c := range sh.cols {
			out = append(out, c.info(false))
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// ClassOf returns element's class in key's collection — an O(1) lookup
// against the published snapshot's element→class index, never touching
// the writer goroutine. With fresh=true the collection flushes first, so
// the answer reflects every ingest accepted before the call. It returns
// ErrBadItem for elements outside the collection's universe and
// ErrNotFound for elements with no flushed class yet (never ingested, or
// still pending).
func (s *Service) ClassOf(key string, element int, fresh bool) (ClassView, error) {
	sh := s.shardOf(key)
	c, err := sh.lookup(key)
	if err != nil {
		return ClassView{}, err
	}
	if n := c.spec.N(); element < 0 || element >= n {
		return ClassView{}, fmt.Errorf("%w: element %d out of range [0,%d)", ErrBadItem, element, n)
	}
	snap := c.snap.Load()
	if fresh {
		fs, err := s.Flush(key)
		if err == nil {
			snap = fs
		} else if !errors.Is(err, ErrDegraded) {
			return ClassView{}, err
		}
		// Degraded: serve the point lookup from the stale snapshot.
	}
	ci := snap.ClassIndexOf(element)
	if ci < 0 {
		return ClassView{}, fmt.Errorf("%w: element %d has no flushed class in %q", ErrNotFound, element, key)
	}
	return ClassView{
		Element:    element,
		ClassIndex: ci,
		Members:    snap.Classes[ci],
		Version:    snap.Version,
	}, nil
}

// Uptime reports how long the service has been running.
func (s *Service) Uptime() time.Duration { return time.Since(s.start) }
