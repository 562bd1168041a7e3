package service

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ecsort/internal/core"
)

// ingestTolerant ingests one batch, riding out degraded windows: an open
// breaker rejects writes with Retry-After semantics, so the stress
// writer waits and retries like a well-behaved client instead of
// failing the run. Gives up after degradedRetries attempts.
const degradedRetries = 400

func ingestTolerant(svc *Service, key string, items []int) error {
	var err error
	for attempt := 0; attempt < degradedRetries; attempt++ {
		if _, err = svc.Ingest(key, items, false); !errors.Is(err, ErrDegraded) {
			return err
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("stress writer never escaped degraded mode: %w", err)
}

// StressConfig shapes a synthetic ingestion workload: Writers concurrent
// clients streaming batched inserts into Collections independent
// label-oracle collections, hashed across the service's shards.
type StressConfig struct {
	// Collections is the number of independent collections. 0 means 8.
	Collections int
	// Elements is the universe size per collection. 0 means 2048.
	Elements int
	// Classes is the class count per collection. 0 means 16.
	Classes int
	// Batch is the number of elements per ingest call. 0 means 64.
	Batch int
	// Writers is the number of concurrent client goroutines. 0 means 4.
	Writers int
	// Seed drives the synthetic labels and ingestion order.
	Seed int64
	// Service tunes the service under test.
	Service Config

	// Faults, when set, injects this fault profile into every
	// collection's oracle (per-collection seeds derived from Seed),
	// turning the drive into a chaos soak: folds run against timeouts,
	// injected errors, and flipped answers instead of clean ground truth.
	Faults *FaultSpec
	// Resilience tunes the fault-tolerance middleware for faulted runs;
	// nil with Faults set takes the middleware defaults.
	Resilience *ResilienceSpec
	// DeleteFraction is the per-batch probability that the writer
	// deletes one element of the batch it just ingested and immediately
	// re-ingests it — churn that exercises the delete path without
	// changing the final ground truth.
	DeleteFraction float64
	// InvalidateFraction is the per-batch probability that the writer
	// withdraws the collection's first snapshot class for
	// re-verification.
	InvalidateFraction float64
	// RepairSweeps bounds how many repair sweeps the verifier may spend
	// converging a flip-contaminated run back to ground truth. 0 means
	// 40. Ignored for fault-free runs, which must verify immediately.
	RepairSweeps int
}

func (c *StressConfig) setDefaults() {
	if c.Collections <= 0 {
		c.Collections = 8
	}
	if c.Elements <= 0 {
		c.Elements = 2048
	}
	if c.Classes <= 0 {
		c.Classes = 16
	}
	if c.Batch <= 0 {
		c.Batch = 64
	}
	if c.Writers <= 0 {
		c.Writers = 4
	}
}

// StressReport is the outcome of one RunStress drive: the first
// service-level throughput numbers of the bench trajectory.
type StressReport struct {
	Config      StressConfig  `json:"config"`
	Elapsed     time.Duration `json:"elapsed"`
	Elements    int64         `json:"elements"`
	Batches     int64         `json:"batches"`
	Flushes     int64         `json:"flushes"`
	Comparisons int64         `json:"comparisons"`
	Rounds      int64         `json:"rounds"`
	// BatchRounds and BatchPairs are the service's batch-oracle
	// amortization counters after the drive: whole-chunk oracle
	// invocations and the equivalence tests they carried. Both zero when
	// Service.DisableBatchOracle is set. BatchPairs/BatchRounds is the
	// per-invocation amortization the batch path buys.
	BatchRounds int64 `json:"batch_rounds,omitempty"`
	BatchPairs  int64 `json:"batch_pairs,omitempty"`
	// ElementsPerSec is ingestion throughput end to end: buffered,
	// flushed, and snapshot-published.
	ElementsPerSec float64 `json:"elements_per_sec"`
	BatchesPerSec  float64 `json:"batches_per_sec"`
	// Deletes and Invalidates count the churn operations applied.
	Deletes     int64 `json:"deletes,omitempty"`
	Invalidates int64 `json:"invalidates,omitempty"`
	// RepairSweepsRun is how many repair sweeps the verifier spent
	// converging a faulted run (0 for fault-free runs).
	RepairSweepsRun int `json:"repair_sweeps_run,omitempty"`
	// Divergences and Corrections aggregate what those sweeps found and
	// fixed.
	Divergences int64 `json:"divergences,omitempty"`
	Corrections int64 `json:"corrections,omitempty"`
	// Verified reports that every collection's final fresh classes
	// matched its ground-truth partition — for faulted runs, after at
	// most RepairSweeps repair sweeps.
	Verified bool `json:"verified"`
}

// RunStress creates a fresh Service, drives it with cfg's concurrent
// batched workload, verifies every collection's final answer against
// ground truth, and reports throughput. Each writer goroutine works
// through a disjoint slice of the collections so batch streams for one
// collection stay ordered while different collections contend only at
// the shard level — the scaling claim this harness exists to measure.
func RunStress(cfg StressConfig) (StressReport, error) {
	cfg.setDefaults()
	svc := New(cfg.Service)
	defer svc.Close()

	type job struct {
		key    string
		labels []int
		order  []int
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	jobs := make([]job, cfg.Collections)
	for i := range jobs {
		labels := make([]int, cfg.Elements)
		for e := range labels {
			labels[e] = rng.Intn(cfg.Classes)
		}
		jobs[i] = job{
			key:    fmt.Sprintf("stress-%03d", i),
			labels: labels,
			order:  rng.Perm(cfg.Elements),
		}
		spec := OracleSpec{Kind: KindLabel, Labels: labels, Resilience: cfg.Resilience}
		if cfg.Faults != nil {
			// Each collection gets its own fault stream so chaos isn't
			// correlated across shards.
			f := *cfg.Faults
			f.Seed = cfg.Seed + int64(i)*7919
			spec.Faults = &f
		}
		if err := svc.CreateCollection(jobs[i].key, spec); err != nil {
			return StressReport{}, err
		}
	}

	errCh := make(chan error, cfg.Writers)
	var deletes, invalidates atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(cfg.Seed ^ int64(w+1)*104729))
			for i := w; i < len(jobs); i += cfg.Writers {
				j := jobs[i]
				for lo := 0; lo < len(j.order); lo += cfg.Batch {
					hi := min(lo+cfg.Batch, len(j.order))
					batch := j.order[lo:hi]
					if err := ingestTolerant(svc, j.key, batch); err != nil {
						errCh <- err
						return
					}
					// Churn: drop one element of the batch we just wrote
					// and put it straight back, so the final ground truth
					// is unchanged but the delete path sees concurrency.
					if cfg.DeleteFraction > 0 && wrng.Float64() < cfg.DeleteFraction {
						e := batch[wrng.Intn(len(batch))]
						switch _, err := svc.DeleteItem(j.key, e); {
						case err == nil:
							deletes.Add(1)
							if err := ingestTolerant(svc, j.key, []int{e}); err != nil {
								errCh <- err
								return
							}
						case errors.Is(err, ErrDegraded):
							// The breaker beat us to it; the element stays.
						default:
							errCh <- err
							return
						}
					}
					// Withdraw the front class for re-verification.
					if cfg.InvalidateFraction > 0 && wrng.Float64() < cfg.InvalidateFraction {
						switch _, err := svc.InvalidateClass(j.key, 0, false); {
						case err == nil:
							invalidates.Add(1)
						case errors.Is(err, ErrNotFound), errors.Is(err, ErrDegraded):
							// Nothing folded yet, or the oracle is down.
						default:
							errCh <- err
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return StressReport{}, err
	default:
	}

	rep := StressReport{Config: cfg, Elapsed: elapsed}
	rep.Deletes = deletes.Load()
	rep.Invalidates = invalidates.Load()

	// Verification. A fault-free run must match ground truth on the
	// first fresh read; a flip-contaminated run is allowed repair sweeps
	// to converge — the chaos soak's acceptance criterion.
	verify := func() (bool, error) {
		ok := true
		for _, j := range jobs {
			snap, err := svc.Classes(j.key, true)
			if err != nil {
				return false, err
			}
			// Full coverage first — a partition over a subset of the
			// ingested elements must not count as verified — then the
			// exact class structure against ground truth.
			got := core.Result{Classes: snap.Classes}
			if snap.Size != cfg.Elements || !core.SameClassification(got.Labels(cfg.Elements), j.labels) {
				ok = false
			}
		}
		return ok, nil
	}
	verified, err := verify()
	if err != nil {
		return StressReport{}, err
	}
	if !verified && cfg.Faults != nil {
		sweeps := cfg.RepairSweeps
		if sweeps <= 0 {
			sweeps = 40
		}
		for s := 0; s < sweeps && !verified; s++ {
			svc.RepairSweep()
			rep.RepairSweepsRun++
			if verified, err = verify(); err != nil {
				return StressReport{}, err
			}
		}
	}
	rep.Verified = verified
	rep.Divergences = svc.repairDivergences.Load()
	rep.Corrections = svc.repairCorrections.Load()
	rep.BatchRounds, rep.BatchPairs = svc.BatchOracleStats()

	for _, j := range jobs {
		snap, err := svc.Classes(j.key, false)
		if err != nil {
			return StressReport{}, err
		}
		rep.Comparisons += snap.Stats.Comparisons
		rep.Rounds += int64(snap.Stats.Rounds)
		info, err := svc.CollectionStats(j.key)
		if err != nil {
			return StressReport{}, err
		}
		rep.Elements += info.Ingested
		rep.Batches += info.Batches
		rep.Flushes += info.Flushes
	}
	secs := elapsed.Seconds()
	if secs > 0 {
		rep.ElementsPerSec = float64(rep.Elements) / secs
		rep.BatchesPerSec = float64(rep.Batches) / secs
	}
	return rep, nil
}
