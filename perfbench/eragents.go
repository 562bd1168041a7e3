package main

import (
	"context"
	"fmt"
	"time"

	"ecsort"
	"ecsort/internal/agents"
	"ecsort/internal/model"
	rt "ecsort/internal/runtime"
)

// er-agents: the paper's secret-handshake application through the
// library. Every sort runs ER() over a fresh key-agent network, each
// equivalence test a real two-party HMAC handshake, with the session
// built the way ecsort.NewAgentSession builds it. One caller, closed
// loop. No HTTP, service, WAL or cluster code runs.
type agentShape struct {
	agents int // agents per network
	pool   int // distinct label sets; also the deterministic cost window
}

var erAgentsShape = agentShape{agents: 512, pool: 256}

// erAgentsSmall is the self-test size.
var erAgentsSmall = agentShape{agents: 64, pool: 4}

type agentEnv struct {
	sh   agentShape
	seed int64
	pool *rt.Pool
	ins  []*input
}

func setupERAgents(sh agentShape, seed int64) (*agentEnv, error) {
	ins := make([]*input, sh.pool)
	for i := range ins {
		ins[i] = labelInput(seed, i, sh.agents, true)
	}
	env := &agentEnv{sh: sh, seed: seed, pool: rt.NewPool(0), ins: ins}
	for i := 0; i < 2; i++ {
		if _, err := env.sort(i, nil); err != nil {
			env.close()
			return nil, fmt.Errorf("warm-up sort: %w", err)
		}
	}
	return env, nil
}

func (e *agentEnv) close() { e.pool.Close() }

// sortResult is one sort's measurements.
type sortResult struct {
	ms          float64
	comparisons int64
	rounds      int
	sessions    int64
}

// sort runs ER over a fresh network for input i%pool and verifies the
// classes. With rec non-nil the session gets traced oracle and
// executor wrappers and the sort is one algo.sort span.
func (e *agentEnv) sort(i int, rec *recorder) (sortResult, error) {
	in := e.ins[i%len(e.ins)]
	nw := agents.NewNetwork(agents.GroupKeys(in.labels, e.seed+int64(i%len(e.ins))))
	var sess *model.Session
	var ex *tracedExecutor
	if rec == nil {
		sess = ecsort.NewAgentSession(nw, ecsort.Config{Runtime: e.pool})
	} else {
		ex = &tracedExecutor{inner: nw.Bound(e.pool), rec: rec}
		sess = model.NewSession(newTracedOracle(nw, rec), model.ER, model.WithPool(e.pool), model.WithExecutor(ex))
	}
	s := rec.begin("algo.sort", 0, uint64(i+1))
	if ex != nil {
		ex.parent = s.ID
	}
	t0 := time.Now()
	res, err := ecsort.ER().Sort(context.Background(), sess)
	r := sortResult{ms: msSince(t0), comparisons: res.Stats.Comparisons, rounds: res.Stats.Rounds, sessions: nw.Sessions()}
	rec.end(s)
	if err != nil {
		return r, err
	}
	if err := in.checkClasses(res.Classes); err != nil {
		return r, fmt.Errorf("sort of input %d: %w", i%len(e.ins), err)
	}
	return r, nil
}

// agentPass is one closed-loop run of sorts.
type agentPass struct {
	sort, gap            samples
	sortW, elemsW        *windowed
	costs                map[int]cost
	sessions, comparison int64
	rounds               int64
	attempted, failed    int64
	err                  error
}

func (e *agentEnv) run(d time.Duration, rec *recorder) *agentPass {
	start := time.Now()
	end := start.Add(d)
	p := &agentPass{costs: make(map[int]cost), sortW: newWindowed(start, end), elemsW: newWindowed(start, end)}
	last := start
	for i := 0; time.Now().Before(end); i++ {
		began := time.Now()
		p.gap.add(ms(began.Sub(last)))
		p.attempted++
		r, err := e.sort(i, rec)
		last = time.Now()
		if err != nil {
			p.failed++
			p.err = err
			break
		}
		p.sort.add(r.ms)
		p.sortW.add(began, r.ms)
		p.elemsW.add(last, float64(e.sh.agents))
		p.sessions += r.sessions
		p.comparison += r.comparisons
		p.rounds += int64(r.rounds)
		if i < e.sh.pool {
			p.costs[i] = cost{comparisons: r.comparisons, rounds: int64(r.rounds), folds: 1, elements: int64(e.sh.agents)}
		}
	}
	return p
}

func runERAgents(opts runOpts) (*outcome, error) {
	sh := erAgentsShape
	if opts.small {
		sh = erAgentsSmall
	}
	o := newOutcome(nil)
	o.env["agents"] = sh.agents
	o.env["input_pool"] = sh.pool
	o.env["callers"] = 1
	o.env["rate"] = "closed loop"
	o.env["fsync"] = "none (no service)"
	o.env["distributions"] = "rotating: uniform(k=10), geometric(p=0.1), poisson(lambda=5), zeta(s=1.5)"

	var setups []float64
	var env *agentEnv
	for i := 0; i < setupRepeats; i++ {
		if env != nil {
			env.close()
		}
		t := time.Now()
		var err error
		if env, err = setupERAgents(sh, opts.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer env.close()
	o.env["pool_workers"] = env.pool.Size()

	budget := opts.seconds
	if opts.trace {
		budget /= 2
	}
	p := env.run(secs(budget), nil)
	if p.err != nil {
		o.problem("%v", p.err)
	}
	o.attempted, o.failed = p.attempted, p.failed
	o.addE2E("setup_s", median(setups), "s")
	o.addE2E("op_p50_ms", p.sortW.q(0.5), "ms")
	o.addE2E("op_p90_ms", p.sortW.q(0.9), "ms")
	o.addE2E("elems_per_s", p.elemsW.rate(), "1/s")
	c, rpf, err := paperCost(p.costs, sh.pool)
	if err != nil {
		o.problem("%v", err)
	}
	o.addE2E("comparisons_per_elem", c, "count")
	o.addE2E("rounds_per_fold", rpf, "count")
	o.addE2E("heap_live_mb", liveHeapMB(), "MB")
	o.addLatency("sort", &p.sort)
	o.samples["loadgen.gap"] = p.gap.n()
	o.addDetail("error_rate", ratio(float64(p.failed), float64(p.attempted)), "ratio")
	if !opts.trace {
		return o, nil
	}

	rec := newRecorder()
	o.spans = rec
	chunks0 := env.pool.Stats().Chunks
	tp := env.run(secs(budget), rec)
	chunks := env.pool.Stats().Chunks - chunks0
	if tp.err != nil {
		o.problem("traced pass: %v", tp.err)
	}
	o.attempted += tp.attempted
	o.failed += tp.failed
	ix := indexSpans(rec.snapshot())
	ix.foldLayers(o, foldLadder{
		fold: "algo.sort", call: "model.round",
		rounds: ix.durs("model.round"), numRounds: int64(ix.count("model.round")), chunks: chunks,
		workers: 1, ops: tp.sort.n(),
	})
	o.addLayer("agents.sessions_per_comparison", ratio(float64(tp.sessions), float64(tp.comparison)), "ratio")
	o.addLayer("loadgen.lag_p99_ms", tail(&p.gap), "ms")
	base := p.sort.q(0.5)
	o.addLayer("trace.overhead_share", ratio(tp.sort.q(0.5)-base, base), "ratio")
	zeroLayers(o, "http.req_bytes_per_elem", "service.folds", "cluster.calls_per_op", "cluster.req_bytes_per_elem",
		"cluster.resp_bytes_per_op", "wal.bytes_per_elem", "wal.appends_per_op", "wal.fsyncs",
		"wal.checkpoint_bytes", "wal.recover_records")
	roundsMs := ratio(float64(ix.sum(spanDur, "model.round"))/1e6, float64(tp.sort.n()))
	selfMs := ix.selfs("algo.sort").mean()
	o.path = append(o.path,
		metric{"sort_ms", tp.sort.mean(), "ms"},
		metric{"algo_self_ms", selfMs, "ms"},
		metric{"agent_rounds_ms", roundsMs, "ms"},
		metric{"accounted_share", ratio(selfMs+roundsMs, tp.sort.mean()), "ratio"},
	)
	return o, nil
}
