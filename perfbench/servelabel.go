package main

import (
	"errors"
	"time"

	"ecsort/internal/service"
)

// serve-label: one memory-only node behind loopback HTTP, Label-oracle
// collections of 4096 elements cycling create → fill → verify → drop.
// The open-loop rate is a constant, so parent and change see the same
// offered load: about an eighth of this shape's closed-loop saturation
// on a 2-CPU machine, low enough that a host slowing down for minutes
// does not push the open loop into queueing.
var serveLabelShape = shape{
	prefix: "sl", elements: 4096, postItems: 64, batchSize: 256,
	pool: 32, clients: 2, keep: 1, rotate: true, rate: 200,
}

// serveLabelSmall is the self-test size.
var serveLabelSmall = shape{
	prefix: "sl", elements: 256, postItems: 16, batchSize: 64,
	pool: 4, clients: 2, keep: 1, rotate: true, rate: 400,
}

// setupRepeats is how many times a run builds its environment; setup_s
// is the median.
const setupRepeats = 5

// nodeEnv is a single service behind an HTTP server, with its clients.
type nodeEnv struct {
	svc     *service.Service
	srv     *httpServer
	workers []*worker
	ins     []*input
}

func setupServeLabel(sh *shape, seed int64, rec *recorder) (*nodeEnv, error) {
	ins, err := makeInputs(seed, sh.pool, sh.elements, sh.postItems, sh.rotate)
	if err != nil {
		return nil, err
	}
	env := &nodeEnv{svc: service.New(service.Config{BatchSize: sh.batchSize}), ins: ins}
	if env.srv, err = startHTTP(traceHandler(rec, env.svc.Handler())); err != nil {
		env.svc.Close()
		return nil, err
	}
	for i := 0; i < sh.clients; i++ {
		w := newWorker(sh, i, newClient(env.srv.base, i, rec), ins, seed)
		env.workers = append(env.workers, w)
		if err := w.warm(); err != nil {
			return nil, errors.Join(err, env.close())
		}
	}
	return env, nil
}

func (e *nodeEnv) close() error {
	for _, w := range e.workers {
		w.c.close()
	}
	err := e.srv.close()
	e.svc.Close()
	return err
}

func (e *nodeEnv) clients() []*worker { return e.workers }

func (e *nodeEnv) metrics() map[string]float64 { return scrapeMetrics(e.svc.Handler()) }

func runServeLabel(opts runOpts) (*outcome, error) {
	sh := serveLabelShape
	if opts.small {
		sh = serveLabelSmall
	}
	o := newOutcome(&sh)
	o.env["fsync"] = "none (memory-only node)"
	setup := func(rec *recorder) func() (loadEnv, error) {
		return func() (loadEnv, error) { return setupServeLabel(&sh, opts.seed, rec) }
	}
	if !opts.trace {
		p, err := loadPass(&sh, opts.seconds, setupRepeats, setup(nil))
		if err != nil {
			return nil, err
		}
		e2eFromPass(o, &sh, p)
		return o, p.env.close()
	}
	third := opts.seconds / 3
	untraced, err := loadPass(&sh, third, setupRepeats, setup(nil))
	if err != nil {
		return nil, err
	}
	if err := errors.Join(untraced.err, untraced.env.close()); err != nil {
		o.problem("untraced pass: %v", err)
	}
	rec := newRecorder()
	o.spans = rec
	traced, err := loadPass(&sh, third, 1, setup(rec))
	if err != nil {
		return nil, err
	}
	env := traced.env.(*nodeEnv)
	o.attempted, o.failed = traced.lr.attempted, traced.lr.failed
	if traced.err != nil {
		o.problem("traced pass: %v", traced.err)
	}
	passLayers(o, untraced, traced)
	ix := indexSpans(rec.since(traced.start))
	ix.httpLayers(o)
	o.addLayer("service.folds", ratio(traced.after["ecsort_fold_total"]-traced.before["ecsort_fold_total"],
		float64(ix.count("client.ingest"))), "folds/op")
	foldMs := 1000 * (traced.after["ecsort_fold_duration_seconds_total"] - traced.before["ecsort_fold_duration_seconds_total"])
	ingestPath(o, ix, traced, map[string]float64{"fold_ms_within_server": ratio(foldMs, float64(ix.count("client.ingest")))})
	if err := env.close(); err != nil {
		return nil, err
	}

	// Ladder: the same sequence on the Service API, then on core.
	svc := service.New(service.Config{BatchSize: sh.batchSize})
	if _, err := serviceRung(svc, &sh, env.ins, opts.seed, time.Now().Add(secs(third/2)), rec, "service"); err != nil {
		o.problem("service rung: %v", err)
	}
	svc.Close()
	ix = indexSpans(rec.snapshot())
	svcIngest := ix.durs("service.ingest")
	o.samples["ladder.service.ingest"] = svcIngest.n()
	o.addLayerDetail("service.ingest_p50_ms", svcIngest.q(0.5), "ms")
	o.addLayerDetail("service.ingest_p99_ms", tail(svcIngest), "ms")
	if err := coreLadder(o, &sh, env.ins, secs(third/2), rec); err != nil {
		o.problem("core rung: %v", err)
	}
	zeroLayers(o, "agents.sessions_per_comparison", "cluster.calls_per_op", "cluster.req_bytes_per_elem",
		"cluster.resp_bytes_per_op", "wal.bytes_per_elem", "wal.appends_per_op", "wal.fsyncs",
		"wal.checkpoint_bytes", "wal.recover_records")
	return o, nil
}
