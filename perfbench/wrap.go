package main

import (
	"context"
	"net/http"
	"strconv"
	"sync/atomic"

	"ecsort/internal/cluster"
	"ecsort/internal/model"
)

// The wrappers below time each layer from outside: every one is a type
// implementing the interface it wraps, delegating to the inner value,
// so the program under test runs unmodified. They are installed only in
// traced runs, always with a recorder; untraced runs hand the program
// its own values.

// tracedOracle times each oracle call a session makes. A batch-capable
// inner oracle keeps its capability, so a session still dispatches whole
// worker-pool chunks and each span is one chunk. (The one inner oracle
// without it, the agent network, is wrapped only behind a custom
// executor, which sessions prefer, so its dispatch is unchanged too.) round reports the
// session's round counter at call time: chunks run while the session
// goroutine waits in its round, so the chunks of one physical round
// share a value. parent is the span of the fold in progress.
type tracedOracle struct {
	inner  model.Oracle
	batch  model.BatchOracle
	rec    *recorder
	round  func() int64
	parent atomic.Uint64
}

func newTracedOracle(inner model.Oracle, rec *recorder) *tracedOracle {
	t := &tracedOracle{inner: inner, rec: rec}
	t.batch, _ = inner.(model.BatchOracle)
	return t
}

// N implements model.Oracle.
func (t *tracedOracle) N() int { return t.inner.N() }

// Same implements model.Oracle.
func (t *tracedOracle) Same(i, j int) bool {
	s := t.rec.begin("oracle.call", t.parent.Load(), 0)
	same := t.inner.Same(i, j)
	s.Items = 1
	if same {
		s.Hits = 1
	}
	t.finish(s)
	return same
}

// SameBatch implements model.BatchOracle.
func (t *tracedOracle) SameBatch(pairs []model.Pair, out []bool) {
	s := t.rec.begin("oracle.call", t.parent.Load(), 0)
	if t.batch != nil {
		t.batch.SameBatch(pairs, out)
	} else {
		for i, p := range pairs {
			out[i] = t.inner.Same(p.A, p.B)
		}
	}
	s.Items = int64(len(pairs))
	s.Hits = countTrue(out[:len(pairs)])
	t.finish(s)
}

func (t *tracedOracle) finish(s *span) {
	if t.round != nil {
		s.Round = t.round()
	}
	t.rec.end(s)
}

// tracedExecutor times each physical round a session hands its custom
// executor (the agent network's round runner).
type tracedExecutor struct {
	inner  model.Executor
	rec    *recorder
	parent uint64
}

// ExecuteRound implements model.Executor.
func (t *tracedExecutor) ExecuteRound(pairs []model.Pair) []bool {
	s := t.rec.begin("model.round", t.parent, 0)
	out := t.inner.ExecuteRound(pairs)
	s.Items = int64(len(pairs))
	s.Hits = countTrue(out)
	t.rec.end(s)
	return out
}

// tracedTransport times each coordinator→node exchange. Its span is the
// child of the HTTP server span whose request context the coordinator
// threads through to Call.
type tracedTransport struct {
	inner cluster.Transport
	rec   *recorder
}

// Call implements cluster.Transport.
func (t *tracedTransport) Call(ctx context.Context, req []byte) ([]byte, error) {
	ref := spanFrom(ctx)
	s := t.rec.begin("cluster.call", ref.id, ref.op)
	resp, err := t.inner.Call(ctx, req)
	s.ReqBytes = int64(len(req))
	s.RespBytes = int64(len(resp))
	t.rec.end(s)
	return resp, err
}

// Close implements cluster.Transport.
func (t *tracedTransport) Close() error { return t.inner.Close() }

// Headers a traced client sets so the server middleware can parent its
// span on the client's.
const (
	hdrSpan = "X-Perfbench-Span"
	hdrOp   = "X-Perfbench-Op"
	hdrKind = "X-Perfbench-Kind"
)

// traceHandler wraps an HTTP handler with a server span per request,
// carried in the request context for wrappers further down.
func traceHandler(rec *recorder, h http.Handler) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(hdrSpan), 10, 64)
		op, _ := strconv.ParseUint(r.Header.Get(hdrOp), 10, 64)
		s := rec.begin("http."+r.Header.Get(hdrKind), parent, op)
		s.ReqBytes = r.ContentLength
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), s)))
		rec.end(s)
	})
}

func countTrue(bs []bool) int64 {
	var n int64
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}
