package main

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"ecsort/internal/service"
)

// shape sizes one HTTP workload's collections and clients.
type shape struct {
	prefix     string // collection key prefix
	elements   int    // universe per collection
	postItems  int    // items per POST
	batchSize  int    // the node's BatchSize
	pool       int    // distinct inputs; also the deterministic cost window
	clients    int    // client goroutines, one connection each
	keep       int    // fully ingested collections kept as read/churn targets
	churnEvery int    // a churn op every churnEvery ticks; 0 disables churn
	rotate     bool   // rotate label distributions (else uniform k=10)
	rate       float64
}

// cost is one collection's paper cost, read when it was verified.
type cost struct {
	comparisons, rounds, folds, elements int64
}

// phaseStats is what one client measured in one load phase.
type phaseStats struct {
	ingest, read, churn, admin samples
	ingestW, publishedW        *windowed // ingest latency, elements published
	wait                       samples   // ingest send time minus the time it is timed from
}

// liveCol is one collection a client owns.
type liveCol struct {
	key                 string
	g                   int // global collection index; < 0 for warm-up
	in                  *input
	next, folds         int
	ingested, published int
}

// worker is one load-generating client: it owns its collections and
// walks a fixed op sequence — create, fill (one POST plus one point
// read per tick, churn every churnEvery ticks), verify, keep — so the
// sequence depends only on the seed and the run length decides how far
// it gets.
type worker struct {
	sh       *shape
	id       int
	c        *client
	ins      []*input
	rng      *rand.Rand
	seq      int
	churns   int
	ticks    int64
	cur      *liveCol
	resident []*liveCol
	costs    map[int]cost
	st       *phaseStats
}

func newWorker(sh *shape, id int, c *client, ins []*input, seed int64) *worker {
	return &worker{
		sh: sh, id: id, c: c, ins: ins,
		rng:   rand.New(rand.NewSource(seed*7919 + int64(id))),
		costs: make(map[int]cost),
		st:    &phaseStats{},
	}
}

func itemsPath(key string) string { return "/v1/collections/" + key + "/items" }

// warm creates, fills and verifies one collection outside any measured
// phase, so every later tick has a read target and every lazy
// initialization on the path has run.
func (w *worker) warm() error {
	col := &liveCol{key: fmt.Sprintf("%s-warm-%d", w.sh.prefix, w.id), g: -1, in: w.ins[w.id%len(w.ins)]}
	if err := w.create(col); err != nil {
		return err
	}
	for col.next < len(col.in.posts) {
		if _, err := w.post(col); err != nil {
			return err
		}
	}
	return w.retire(col)
}

func (w *worker) create(col *liveCol) error {
	cl, err := w.c.do("create", http.MethodPut, "/v1/collections/"+col.key, col.in.create, 0, nil)
	if err != nil {
		return err
	}
	w.st.admin.add(cl.ms)
	return nil
}

// post sends col's next batch and returns the round trip.
func (w *worker) post(col *liveCol) (call, error) {
	var res service.IngestResult
	items := col.in.posts[col.next]
	cl, err := w.c.do("ingest", http.MethodPost, itemsPath(col.key), col.in.bodies[col.next], len(items), &res)
	if err != nil {
		return cl, err
	}
	if res.Accepted != len(items) {
		return cl, fmt.Errorf("%s: %d of %d items accepted", col.key, res.Accepted, len(items))
	}
	col.next++
	col.ingested += len(items)
	if res.Flushed {
		col.folds++
		w.st.publishedW.add(time.Now(), float64(col.ingested-col.published))
		col.published = col.ingested
	}
	return cl, nil
}

// retire verifies a fully ingested collection against its labels,
// records its cost, keeps it as a read target and drops the oldest
// target beyond keep.
func (w *worker) retire(col *liveCol) error {
	var snap service.Snapshot
	cl, err := w.c.do("verify", http.MethodGet, "/v1/collections/"+col.key+"/classes?fresh=1", nil, 0, &snap)
	if err != nil {
		return err
	}
	w.st.admin.add(cl.ms)
	if err := col.in.checkClasses(snap.Classes); err != nil {
		return fmt.Errorf("%s: %w", col.key, err)
	}
	if col.g >= 0 && col.g < w.sh.pool {
		w.costs[col.g] = cost{
			comparisons: snap.Stats.Comparisons,
			rounds:      int64(snap.Stats.Rounds),
			folds:       int64(col.folds),
			elements:    int64(len(col.in.labels)),
		}
	}
	w.resident = append(w.resident, col)
	if len(w.resident) > w.sh.keep {
		old := w.resident[0]
		w.resident = w.resident[1:]
		cl, err := w.c.do("drop", http.MethodDelete, "/v1/collections/"+old.key, nil, 0, nil)
		if err != nil {
			return err
		}
		w.st.admin.add(cl.ms)
	}
	return nil
}

// startNext creates the client's next collection of its sequence. Each
// client walks the whole input pool in order from its own starting
// point, so every client sees every label distribution in turn and the
// clients' first passes together cover the pool once: that first pass
// is the cost window.
func (w *worker) startNext() error {
	share := len(w.ins) / w.sh.clients
	idx := (w.id*share + w.seq) % len(w.ins)
	g := -1
	if w.seq < share {
		g = idx
	}
	w.cur = &liveCol{key: fmt.Sprintf("%s-%d-%d", w.sh.prefix, w.id, w.seq), g: g, in: w.ins[idx]}
	w.seq++
	return w.create(w.cur)
}

// tick runs one scheduled step: the POST timed from from (see pacer),
// then a point read on a kept collection and, every churnEvery ticks, a
// churn op on it.
func (w *worker) tick(from time.Time) error {
	if w.cur == nil || w.cur.next == len(w.cur.in.posts) {
		if w.cur != nil {
			if err := w.retire(w.cur); err != nil {
				return err
			}
		}
		if err := w.startNext(); err != nil {
			return err
		}
	}
	cl, err := w.post(w.cur)
	if err != nil {
		return err
	}
	lat := msSince(from)
	w.st.ingest.add(lat)
	w.st.ingestW.add(from, lat)
	w.st.wait.add(ms(cl.send.Sub(from)))

	target := w.resident[w.rng.Intn(len(w.resident))]
	e := w.rng.Intn(len(target.in.labels))
	var view service.ClassView
	cl, err = w.c.do("read", http.MethodGet, fmt.Sprintf("/v1/collections/%s/classes/%d", target.key, e), nil, 0, &view)
	if err != nil {
		return err
	}
	w.st.read.add(cl.ms)
	if err := target.in.checkView(e, view); err != nil {
		return fmt.Errorf("%s: %w", target.key, err)
	}
	w.ticks++
	if w.sh.churnEvery > 0 && w.ticks%int64(w.sh.churnEvery) == 0 {
		return w.churn(target)
	}
	return nil
}

// churn alternates between deleting an element and re-ingesting it
// (folded at once), and withdrawing a class for re-verification
// (re-folded at once), so a kept collection is whole again afterwards.
func (w *worker) churn(target *liveCol) error {
	w.churns++
	if w.churns%2 == 1 {
		e := w.rng.Intn(len(target.in.labels))
		cl, err := w.c.do("churn", http.MethodDelete, fmt.Sprintf("%s/%d", itemsPath(target.key), e), nil, 0, nil)
		if err != nil {
			return err
		}
		w.st.churn.add(cl.ms)
		var res service.IngestResult
		cl, err = w.c.do("churn", http.MethodPost, itemsPath(target.key)+"?flush=1", []byte(fmt.Sprintf(`{"items":[%d]}`, e)), 1, &res)
		if err != nil {
			return err
		}
		w.st.churn.add(cl.ms)
		if res.Accepted != 1 || !res.Flushed {
			return fmt.Errorf("%s: re-ingest of %d not folded", target.key, e)
		}
		return nil
	}
	ci := w.rng.Intn(target.in.classes)
	cl, err := w.c.do("churn", http.MethodPost, fmt.Sprintf("/v1/collections/%s/classes/%d/invalidate?flush=1", target.key, ci), nil, 0, nil)
	if err != nil {
		return err
	}
	w.st.churn.add(cl.ms)
	return nil
}

// settle brings the client to the same state whatever the run length:
// it drops every collection it holds, then fills and keeps the first
// keep inputs of its own pass and fills the next one just past half
// way, so that one holds both published and pending items. It runs
// untimed after the load, so the live heap and the durable state the
// run ends with depend on the seed only.
func (w *worker) settle() error {
	w.st = &phaseStats{}
	held := w.resident
	if w.cur != nil {
		held = append(held, w.cur)
	}
	for _, col := range held {
		if _, err := w.c.do("drop", http.MethodDelete, "/v1/collections/"+col.key, nil, 0, nil); err != nil {
			return err
		}
	}
	w.resident, w.cur = nil, nil
	first := w.id * (len(w.ins) / w.sh.clients)
	for j := 0; j <= w.sh.keep; j++ {
		col := &liveCol{key: fmt.Sprintf("%s-%d-settled-%d", w.sh.prefix, w.id, j), g: -1, in: w.ins[(first+j)%len(w.ins)]}
		if err := w.create(col); err != nil {
			return err
		}
		posts := len(col.in.posts)
		if j == w.sh.keep {
			posts = posts/2 + 1
		}
		for col.next < posts {
			if _, err := w.post(col); err != nil {
				return err
			}
		}
		if j == w.sh.keep {
			w.cur = col
			return nil
		}
		if err := w.retire(col); err != nil {
			return err
		}
	}
	return nil
}

// runPhase drives one phase with p and returns the client's stats,
// windowed over the phase's planned span [start, end).
func (w *worker) runPhase(p *pacer, start, end time.Time) (*phaseStats, error) {
	w.st = &phaseStats{ingestW: newWindowed(start, end), publishedW: newWindowed(start, end)}
	for {
		from, ok := p.next()
		if !ok {
			break
		}
		if err := w.tick(from); err != nil {
			return w.st, err
		}
	}
	return w.st, nil
}

// loadResult merges every client's view of one workload run.
type loadResult struct {
	open, closed phaseStats
	lag, queued  samples
	costs        map[int]cost
	attempted    int64
	failed       int64
}

// drive runs the open-loop phase then the closed-loop phase on every
// worker concurrently, then settles every worker. The open phase paces
// all clients together at rate POSTs per second, each client at
// rate/clients with staggered offsets.
func drive(workers []*worker, rate float64, openFor, closedFor time.Duration) (*loadResult, error) {
	start := time.Now()
	openEnd := start.Add(openFor)
	closedEnd := openEnd.Add(closedFor)
	interval := time.Duration(float64(len(workers)) / rate * float64(time.Second))
	type res struct {
		open, closed *phaseStats
		pacer        *pacer
		err          error
	}
	out := make([]res, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			offset := time.Duration(i) * interval / time.Duration(len(workers))
			p := openLoop(start.Add(offset), openEnd, interval)
			out[i].pacer = p
			out[i].open, out[i].err = w.runPhase(p, start, openEnd)
			if out[i].err != nil {
				return
			}
			out[i].closed, out[i].err = w.runPhase(closedLoop(closedEnd), openEnd, closedEnd)
			if out[i].err == nil {
				out[i].err = w.settle()
			}
		}()
	}
	wg.Wait()
	lr := &loadResult{costs: make(map[int]cost)}
	var firstErr error
	for i, r := range out {
		if r.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("client %d: %w", i, r.err)
		}
		if r.open != nil {
			mergePhase(&lr.open, r.open)
		}
		if r.closed != nil {
			mergePhase(&lr.closed, r.closed)
		}
		lr.lag.merge(&r.pacer.lag)
		lr.queued.merge(&r.pacer.queued)
		for g, c := range workers[i].costs {
			lr.costs[g] = c
		}
	}
	for _, w := range workers {
		lr.attempted += w.c.attempted
		lr.failed += w.c.failed
	}
	return lr, firstErr
}

func mergePhase(dst, src *phaseStats) {
	dst.ingest.merge(&src.ingest)
	dst.read.merge(&src.read)
	dst.churn.merge(&src.churn)
	dst.admin.merge(&src.admin)
	dst.wait.merge(&src.wait)
	if dst.ingestW == nil {
		dst.ingestW = newWindowed(src.ingestW.start, src.ingestW.end)
		dst.publishedW = newWindowed(src.publishedW.start, src.publishedW.end)
	}
	dst.ingestW.merge(src.ingestW)
	dst.publishedW.merge(src.publishedW)
}

// paperCost sums the cost window: every input of the pool, each
// verified once. It fails when the run ended before the window closed,
// because a partial window would not repeat for the seed.
func paperCost(costs map[int]cost, pool int) (cmpPerElem, roundsPerFold float64, err error) {
	var c cost
	for g := 0; g < pool; g++ {
		k, ok := costs[g]
		if !ok {
			return 0, 0, fmt.Errorf("run ended before collection %d of the %d-collection cost window was verified", g, pool)
		}
		c.comparisons += k.comparisons
		c.rounds += k.rounds
		c.folds += k.folds
		c.elements += k.elements
	}
	return float64(c.comparisons) / float64(c.elements), float64(c.rounds) / float64(c.folds), nil
}

// httpServer is one in-process HTTP server on a loopback port.
type httpServer struct {
	srv  *http.Server
	done chan error
	base string
}

func startHTTP(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan error, 1),
		base: "http://" + ln.Addr().String(),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the server and waits for its accept loop to exit.
func (s *httpServer) close() error {
	err := s.srv.Close()
	if serveErr := <-s.done; serveErr != http.ErrServerClosed && err == nil {
		err = serveErr
	}
	return err
}
