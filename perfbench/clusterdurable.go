package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"ecsort/internal/cluster"
	"ecsort/internal/service"
)

// cluster-durable: the coordinator's HTTP surface over TCPTransport to
// two in-process durable nodes (fsync "interval", the service default).
// Small folds, so per-request overhead dominates; churn runs beside the
// reads; the run ends with a clean close and timed reopens of both
// nodes, each checked bit-identical against the state read before
// close. The open-loop rate is a constant, about an eighth of
// closed-loop saturation on a 2-CPU machine.
var clusterShape = shape{
	prefix: "cd", elements: 1024, postItems: 16, batchSize: 64,
	pool: 32, clients: 2, keep: 8, churnEvery: 4, rate: 300,
}

// clusterSmall is the self-test size.
var clusterSmall = shape{
	prefix: "cd", elements: 128, postItems: 8, batchSize: 32,
	pool: 4, clients: 2, keep: 2, churnEvery: 2, rate: 300,
}

const (
	clusterNodes = 2
	fsyncPolicy  = "interval"
	// reopens is how many times the durable nodes are reopened after
	// the load; recover_s is the median.
	reopens = 9
)

type clusterEnv struct {
	sh        *shape
	dir       string
	svcs      []*service.Service
	lns       []net.Listener
	serveDone chan error
	co        *cluster.Coordinator
	srv       *httpServer
	workers   []*worker
	ins       []*input
}

func nodeConfig(sh *shape, dir string, i int) service.Config {
	return service.Config{
		BatchSize: sh.batchSize,
		DataDir:   filepath.Join(dir, fmt.Sprintf("node-%d", i)),
		Fsync:     fsyncPolicy,
	}
}

func setupCluster(sh *shape, seed int64, dir string, rec *recorder) (*clusterEnv, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	ins, err := makeInputs(seed, sh.pool, sh.elements, sh.postItems, sh.rotate)
	if err != nil {
		return nil, err
	}
	env := &clusterEnv{sh: sh, dir: dir, ins: ins, serveDone: make(chan error, clusterNodes)}
	var backends []cluster.Backend
	for i := 0; i < clusterNodes; i++ {
		svc, err := service.Open(nodeConfig(sh, dir, i))
		if err != nil {
			return nil, errors.Join(err, env.close())
		}
		env.svcs = append(env.svcs, svc)
		node := cluster.NewNode(svc)
		node.SetLogger(nil)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, errors.Join(err, env.close())
		}
		env.lns = append(env.lns, ln)
		go func() { env.serveDone <- node.ServeTCP(ln) }()
		var t cluster.Transport = cluster.NewTCPTransport(ln.Addr().String())
		if rec != nil {
			t = &tracedTransport{inner: t, rec: rec}
		}
		backends = append(backends, cluster.Backend{Name: fmt.Sprintf("node-%d", i), Transport: t})
	}
	if env.co, err = cluster.New(cluster.Config{}, backends); err != nil {
		for _, b := range backends {
			b.Transport.Close()
		}
		return nil, errors.Join(err, env.close())
	}
	if env.srv, err = startHTTP(traceHandler(rec, env.co.Handler())); err != nil {
		return nil, errors.Join(err, env.close())
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

func (e *clusterEnv) clients() []*worker { return e.workers }

func (e *clusterEnv) metrics() map[string]float64 {
	sum := make(map[string]float64)
	for _, svc := range e.svcs {
		for k, v := range scrapeMetrics(svc.Handler()) {
			sum[k] += v
		}
	}
	return sum
}

// close shuts the stack down top first: clients, HTTP server,
// coordinator (closing its transports), node listeners, then the
// services, whose Close syncs and checkpoints every shard.
func (e *clusterEnv) close() error {
	var errs []error
	for _, w := range e.workers {
		w.c.close()
	}
	if e.srv != nil {
		errs = append(errs, e.srv.close())
	}
	if e.co != nil {
		errs = append(errs, e.co.Close())
	}
	for _, ln := range e.lns {
		errs = append(errs, ln.Close())
	}
	for range e.lns {
		errs = append(errs, <-e.serveDone)
	}
	for _, svc := range e.svcs {
		svc.Close()
	}
	e.workers, e.srv, e.co, e.lns, e.svcs = nil, nil, nil, nil, nil
	return errors.Join(errs...)
}

// durableState is what a collection looks like from outside: the
// published partition with its cost stats, and the buffered count.
type durableState struct {
	Classes [][]int
	Size    int
	Stats   any
	Pending int64
}

func stateOf(info service.CollectionInfo) durableState {
	st := durableState{Pending: info.Pending}
	if info.Snapshot != nil {
		st.Classes, st.Size, st.Stats = info.Snapshot.Classes, info.Snapshot.Size, info.Snapshot.Stats
	}
	return st
}

// captureState reads every collection the clients still own through
// the coordinator, and checks that each acknowledged ingest is in it:
// kept collections whole, the collection being filled holding every
// acknowledged item as published or pending.
func (e *clusterEnv) captureState() (map[string]durableState, error) {
	ctx := context.Background()
	out := make(map[string]durableState)
	for _, w := range e.workers {
		cols := append([]*liveCol(nil), w.resident...)
		if w.cur != nil {
			cols = append(cols, w.cur)
		}
		for _, col := range cols {
			info, err := e.co.Stats(ctx, col.key)
			if err != nil {
				return nil, fmt.Errorf("reading %s before close: %w", col.key, err)
			}
			st := stateOf(info)
			if int64(st.Size)+st.Pending != int64(col.ingested) {
				return nil, fmt.Errorf("%s: %d published + %d pending, %d acknowledged", col.key, st.Size, st.Pending, col.ingested)
			}
			out[col.key] = st
		}
	}
	return out, nil
}

// reopen opens every node's data directory, times it, checks each
// recovered collection against before, and closes again.
func reopen(sh *shape, dir string, before map[string]durableState) (d time.Duration, records int, err error) {
	start := time.Now()
	svcs := make([]*service.Service, 0, clusterNodes)
	defer func() {
		for _, svc := range svcs {
			svc.Close()
		}
	}()
	for i := 0; i < clusterNodes; i++ {
		svc, err := service.Open(nodeConfig(sh, dir, i))
		if err != nil {
			return 0, 0, err
		}
		svcs = append(svcs, svc)
	}
	d = time.Since(start)
	seen := 0
	for _, svc := range svcs {
		records += svc.Recovery().Records
		for _, c := range svc.Collections() {
			want, ok := before[c.Key]
			if !ok {
				continue // a warm-up or dropped-later key the clients no longer own
			}
			info, err := svc.CollectionStats(c.Key)
			if err != nil {
				return d, records, err
			}
			if got := stateOf(info); !reflect.DeepEqual(got, want) {
				return d, records, fmt.Errorf("%s recovered differently: %d classes/%d published/%d pending, was %d/%d/%d",
					c.Key, len(got.Classes), got.Size, got.Pending, len(want.Classes), want.Size, want.Pending)
			}
			seen++
		}
	}
	if seen != len(before) {
		return d, records, fmt.Errorf("recovered %d of %d collections", seen, len(before))
	}
	return d, records, nil
}

// checkpointBytes sums the checkpoint files under dir.
func checkpointBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(p) == ".snap" {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// closeAndRecover captures state, closes the stack and reopens it n
// times. It returns the median reopen time, the records the first
// reopen replayed, and the checkpoint bytes on disk.
func closeAndRecover(env *clusterEnv, n int) (recoverS float64, records int, ckpt int64, err error) {
	before, err := env.captureState()
	if err != nil {
		return 0, 0, 0, errors.Join(err, env.close())
	}
	if err := env.close(); err != nil {
		return 0, 0, 0, err
	}
	if ckpt, err = checkpointBytes(env.dir); err != nil {
		return 0, 0, 0, err
	}
	var times []float64
	for i := 0; i < n; i++ {
		d, recs, err := reopen(env.sh, env.dir, before)
		if err != nil {
			return 0, 0, ckpt, err
		}
		if i == 0 {
			records = recs
		}
		times = append(times, d.Seconds())
	}
	return median(times), records, ckpt, nil
}

func runClusterDurable(opts runOpts) (*outcome, error) {
	sh := clusterShape
	n := reopens
	if opts.small {
		sh, n = clusterSmall, 2
	}
	o := newOutcome(&sh)
	o.env["nodes"] = clusterNodes
	o.env["fsync"] = fsyncPolicy
	o.env["transport"] = "tcp"
	o.env["reopens"] = n
	dir := filepath.Join(opts.workdir, fmt.Sprintf("cluster-%d-%d", opts.seed, os.Getpid()))
	defer os.RemoveAll(dir)
	setup := func(rec *recorder) func() (loadEnv, error) {
		return func() (loadEnv, error) { return setupCluster(&sh, opts.seed, dir, rec) }
	}
	if !opts.trace {
		p, err := loadPass(&sh, opts.seconds, setupRepeats, setup(nil))
		if err != nil {
			return nil, err
		}
		e2eFromPass(o, &sh, p)
		recoverS, records, ckpt, err := closeAndRecover(p.env.(*clusterEnv), n)
		if err != nil {
			o.problem("close and reopen: %v", err)
		}
		o.addDetail("recover_s", recoverS, "s")
		o.addDetail("recover_records", float64(records), "count")
		o.addDetail("checkpoint_bytes", float64(ckpt), "B")
		return o, nil
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
	o.attempted, o.failed = traced.lr.attempted, traced.lr.failed
	if traced.err != nil {
		o.problem("traced pass: %v", traced.err)
	}
	passLayers(o, untraced, traced)
	ix := indexSpans(rec.since(traced.start))
	ix.httpLayers(o)
	serverOps := float64(ix.count(serverSpans...))
	calls := ix.durs("cluster.call")
	o.samples["trace.cluster.call"] = calls.n()
	o.addLayer("cluster.calls_per_op", ratio(float64(calls.n()), serverOps), "calls/op")
	o.addLayerDetail("cluster.call_p50_ms", calls.q(0.5), "ms")
	o.addLayerDetail("cluster.call_p99_ms", tail(calls), "ms")
	var ingestReq int64
	for _, s := range ix.byName["http.ingest"] {
		for _, k := range ix.kids[s.ID] {
			ingestReq += k.ReqBytes
		}
	}
	ingestItems := float64(ix.sum(spanItems, "client.ingest"))
	o.addLayer("cluster.req_bytes_per_elem", ratio(float64(ingestReq), ingestItems), "B/elem")
	o.addLayer("cluster.resp_bytes_per_op", ratio(float64(ix.sum(func(s *span) int64 { return s.RespBytes }, "cluster.call")), serverOps), "B/op")
	o.addLayerDetail("cluster.coord_self_p50_ms", ix.selfs(serverSpans...).q(0.5), "ms")

	delta := func(k string) float64 { return traced.after[k] - traced.before[k] }
	writes := float64(ix.count("client.ingest", "client.churn", "client.create", "client.drop"))
	o.addLayer("wal.bytes_per_elem", ratio(delta("ecsort_wal_bytes_total"), ingestItems+float64(ix.sum(spanItems, "client.churn"))), "B/elem")
	o.addLayer("wal.appends_per_op", ratio(delta("ecsort_wal_appends_total"), writes), "appends/op")
	o.addLayer("wal.fsyncs", delta("ecsort_wal_fsyncs_total"), "count")
	o.addLayer("service.folds", ratio(delta("ecsort_fold_total"), float64(ix.count("client.ingest"))), "folds/op")
	ingestPath(o, ix, traced, nil)
	_, records, ckpt, err := closeAndRecover(traced.env.(*clusterEnv), 1)
	if err != nil {
		o.problem("close and reopen: %v", err)
	}
	o.addLayer("wal.checkpoint_bytes", float64(ckpt), "B")
	o.addLayer("wal.recover_records", float64(records), "count")

	// Ladder: the fill sequence on one node's Service API, durable then
	// memory-only; the difference is the WAL's share. Then core.
	ladderDir := filepath.Join(dir, "ladder")
	durable, err := service.Open(nodeConfig(&sh, ladderDir, 0))
	if err != nil {
		return nil, err
	}
	_, err = serviceRung(durable, &sh, traced.env.(*clusterEnv).ins, opts.seed, time.Now().Add(secs(third/3)), rec, "durable")
	durable.Close()
	if err != nil {
		o.problem("durable rung: %v", err)
	}
	memory := service.New(service.Config{BatchSize: sh.batchSize})
	_, err = serviceRung(memory, &sh, traced.env.(*clusterEnv).ins, opts.seed, time.Now().Add(secs(third/3)), rec, "memory")
	memory.Close()
	if err != nil {
		o.problem("memory rung: %v", err)
	}
	ix = indexSpans(rec.snapshot())
	dur, mem := ix.durs("durable.ingest"), ix.durs("memory.ingest")
	o.samples["ladder.durable.ingest"] = dur.n()
	o.samples["ladder.memory.ingest"] = mem.n()
	o.addLayerDetail("service.ingest_p50_ms", dur.q(0.5), "ms")
	o.addLayerDetail("service.ingest_p99_ms", tail(dur), "ms")
	o.addLayerDetail("wal.overhead_p50_ms", dur.q(0.5)-mem.q(0.5), "ms")
	if err := coreLadder(o, &sh, traced.env.(*clusterEnv).ins, secs(third/3), rec); err != nil {
		o.problem("core rung: %v", err)
	}
	o.addLayer("agents.sessions_per_comparison", 0, "ratio")
	return o, nil
}
