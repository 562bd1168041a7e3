package main

import (
	"fmt"
	goruntime "runtime"
	"time"
)

// loadEnv is one HTTP workload's running environment.
type loadEnv interface {
	clients() []*worker
	// metrics scrapes the program's own /metrics counters (summed over
	// nodes).
	metrics() map[string]float64
	close() error
}

// pass is one load run: setup (repeated, median kept), the open-loop
// phase, the closed-loop phase, and the counters around them. The
// environment stays open for the caller to inspect and close.
type pass struct {
	env           loadEnv
	start         time.Time // when the load began, after set-up
	lr            *loadResult
	err           error
	setupS        float64
	heapMB        float64
	before, after map[string]float64
}

// openShare is the part of a pass's seconds spent in the open-loop
// phase; the rest is the closed-loop saturation phase.
const openShare = 0.6

func loadPass(sh *shape, seconds float64, repeats int, setup func() (loadEnv, error)) (*pass, error) {
	var setups []float64
	var env loadEnv
	for i := 0; i < repeats; i++ {
		if env != nil {
			if err := env.close(); err != nil {
				return nil, err
			}
		}
		t := time.Now()
		e, err := setup()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		env = e
	}
	p := &pass{env: env, setupS: median(setups), before: env.metrics(), start: time.Now()}
	p.lr, p.err = drive(env.clients(), sh.rate, secs(seconds*openShare), secs(seconds*(1-openShare)))
	p.after = env.metrics()
	p.heapMB = liveHeapMB()
	return p, nil
}

// e2eFromPass fills the end-to-end metrics, the per-op detail and the
// op counts from one untraced pass.
func e2eFromPass(o *outcome, sh *shape, p *pass) {
	lr := p.lr
	if p.err != nil {
		o.problem("%v", p.err)
	}
	o.attempted, o.failed = lr.attempted, lr.failed
	o.addE2E("setup_s", p.setupS, "s")
	o.addE2E("op_p50_ms", lr.open.ingestW.q(0.5), "ms")
	o.addE2E("op_p90_ms", lr.open.ingestW.q(0.9), "ms")
	o.addE2E("elems_per_s", lr.closed.publishedW.rate(), "1/s")
	cmp, rpf, err := paperCost(lr.costs, sh.pool)
	if err != nil {
		o.problem("%v", err)
	}
	o.addE2E("comparisons_per_elem", cmp, "count")
	o.addE2E("rounds_per_fold", rpf, "count")
	o.addE2E("heap_live_mb", p.heapMB, "MB")

	o.addLatency("ingest", &lr.open.ingest)
	o.addLatency("read", &lr.open.read)
	if lr.open.churn.n() > 0 {
		o.addLatency("churn", &lr.open.churn)
	}
	o.addLatency("admin", &lr.open.admin)
	o.addLatency("sat_ingest", &lr.closed.ingest)
	o.samples["loadgen.lag"] = lr.lag.n()
	o.addDetail("error_rate", ratio(float64(lr.failed), float64(lr.attempted)), "ratio")
	o.addDetail("loadgen.lag_p99_ms", tail(&lr.lag), "ms")
	o.addDetail("loadgen.queued_p50_ms", lr.queued.q(0.5), "ms")
	o.addDetail("loadgen.queued_p99_ms", tail(&lr.queued), "ms")
}

// passLayers adds the metrics that compare a traced pass with the
// untraced one before it (already closed).
func passLayers(o *outcome, untraced, traced *pass) {
	base := untraced.lr.open.ingest.q(0.5)
	o.addLayer("trace.overhead_share", ratio(traced.lr.open.ingest.q(0.5)-base, base), "ratio")
	o.addLayer("loadgen.lag_p99_ms", tail(&untraced.lr.lag), "ms")
	o.samples["untraced.ingest"] = untraced.lr.open.ingest.n()
	o.samples["traced.ingest"] = traced.lr.open.ingest.n()
}

// ingestPath decomposes the traced pass's mean ingest latency (timed
// from due) along its blocking path: generator wait, client-side gap,
// server self time and coordinator→node calls. extra adds components
// measured inside one of those.
func ingestPath(o *outcome, ix *spanIndex, p *pass, extra map[string]float64) {
	var total, wait samples
	total.merge(&p.lr.open.ingest)
	total.merge(&p.lr.closed.ingest)
	wait.merge(&p.lr.open.wait)
	wait.merge(&p.lr.closed.wait)
	gap := ix.clientGaps("ingest").mean()
	self := ix.selfs("http.ingest").mean()
	var callNs int64
	for _, s := range ix.byName["http.ingest"] {
		for _, k := range ix.kids[s.ID] {
			callNs += k.dur()
		}
	}
	calls := ratio(float64(callNs)/1e6, float64(ix.count("http.ingest")))
	o.path = append(o.path,
		metric{"ingest_from_due_ms", total.mean(), "ms"},
		metric{"generator_wait_ms", wait.mean(), "ms"},
		metric{"client_gap_ms", gap, "ms"},
		metric{"server_self_ms", self, "ms"},
		metric{"cluster_call_ms", calls, "ms"},
		metric{"accounted_share", ratio(wait.mean()+gap+self+calls, total.mean()), "ratio"},
	)
	for k, v := range extra {
		o.path = append(o.path, metric{k, v, "ms"})
	}
}

// zeroLayers reports count metrics of layers the workload bypasses.
func zeroLayers(o *outcome, names ...string) {
	for _, n := range names {
		o.addLayer(n, 0, unitOf(n))
	}
}

func newOutcome(sh *shape) *outcome {
	o := &outcome{env: baseEnv(), samples: make(map[string]int)}
	if sh != nil {
		o.env["elements"] = sh.elements
		o.env["post_items"] = sh.postItems
		o.env["batch_size"] = sh.batchSize
		o.env["input_pool"] = sh.pool
		o.env["clients"] = sh.clients
		o.env["rate_posts_per_s"] = sh.rate
		o.env["open_share"] = openShare
		o.env["kept_collections"] = sh.keep
		o.env["churn_every"] = sh.churnEvery
		o.env["distributions"] = "uniform(k=10)"
		if sh.rotate {
			o.env["distributions"] = "rotating: uniform(k=10), geometric(p=0.1), poisson(lambda=5), zeta(s=1.5)"
		}
	}
	return o
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// liveHeapMB forces a collection and returns the live heap in MB. The
// second GC empties what sync.Pools kept in their victim caches across
// the first, so pooled buffers do not count as live.
func liveHeapMB() float64 {
	goruntime.GC()
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
