package main

import (
	"bufio"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
)

// perLayer lists the per-layer metrics of a traced run's result line,
// with their units. Every workload reports every one; a count of a
// layer the workload bypasses is 0. Timings of such layers (the HTTP
// edge, cluster calls, the WAL rung, the Service API rung) are printed
// in the report only, because a bypassed layer has no time to report.
var perLayer = []struct{ name, unit string }{
	{"core.flush_p50_ms", "ms"},
	{"core.flush_p99_ms", "ms"},
	{"core.self_share", "ratio"},
	{"core.equal_share", "ratio"},
	{"oracle.pairs_per_call", "pairs"},
	{"oracle.ns_per_pair", "ns"},
	{"oracle.busy_share", "ratio"},
	{"agents.sessions_per_comparison", "ratio"},
	{"model.rounds_per_op", "rounds"},
	{"model.pairs_per_round", "pairs"},
	{"model.round_p50_us", "us"},
	{"runtime.chunks_per_round", "chunks"},
	{"algo.sort_self_p50_ms", "ms"},
	{"http.req_bytes_per_elem", "B/elem"},
	{"service.folds", "folds/op"},
	{"cluster.calls_per_op", "calls/op"},
	{"cluster.req_bytes_per_elem", "B/elem"},
	{"cluster.resp_bytes_per_op", "B/op"},
	{"wal.bytes_per_elem", "B/elem"},
	{"wal.appends_per_op", "appends/op"},
	{"wal.fsyncs", "count"},
	{"wal.checkpoint_bytes", "B"},
	{"wal.recover_records", "count"},
	{"loadgen.lag_p99_ms", "ms"},
	{"trace.overhead_share", "ratio"},
}

func unitOf(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	return "count"
}

// spanIndex answers the per-layer questions over one run's spans.
type spanIndex struct {
	self   map[uint64]int64
	byName map[string][]*span
	kids   map[uint64][]*span
}

func indexSpans(sp []span) *spanIndex {
	ix := &spanIndex{
		self:   selfTimes(sp),
		byName: make(map[string][]*span),
		kids:   make(map[uint64][]*span),
	}
	for i := range sp {
		s := &sp[i]
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			ix.kids[s.Parent] = append(ix.kids[s.Parent], s)
		}
	}
	return ix
}

func (ix *spanIndex) count(names ...string) int {
	n := 0
	for _, name := range names {
		n += len(ix.byName[name])
	}
	return n
}

// durs returns the durations of the named spans, in ms.
func (ix *spanIndex) durs(names ...string) *samples {
	var s samples
	for _, name := range names {
		for _, sp := range ix.byName[name] {
			s.add(float64(sp.dur()) / 1e6)
		}
	}
	return &s
}

// selfs returns the self times of the named spans, in ms.
func (ix *spanIndex) selfs(names ...string) *samples {
	var s samples
	for _, name := range names {
		for _, sp := range ix.byName[name] {
			s.add(float64(ix.self[sp.ID]) / 1e6)
		}
	}
	return &s
}

// sum adds up a field over the named spans.
func (ix *spanIndex) sum(field func(*span) int64, names ...string) int64 {
	var t int64
	for _, name := range names {
		for _, sp := range ix.byName[name] {
			t += field(sp)
		}
	}
	return t
}

func spanDur(s *span) int64   { return s.dur() }
func spanItems(s *span) int64 { return s.Items }
func spanHits(s *span) int64  { return s.Hits }

// tail returns the tail quantile of s by the ten-beyond rule, or its
// maximum when there are too few samples for even that.
func tail(s *samples) float64 {
	if q := tailLevel(s.n()); q > 0 {
		return s.q(q)
	}
	return s.q(1)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// foldLayers derives the core/oracle/model/runtime/algo metrics from
// one fold-level ladder: fold spans (a service fold replayed on
// core.Incremental, or a whole ER sort), the oracle-call spans under
// them, and the physical rounds they ran. workers is how many oracle
// calls may run at once inside a fold; ops is the number of client ops
// the folds served; chunks the runtime chunks the rounds were split
// into.
type foldLadder struct {
	fold, call string
	rounds     *samples // physical round durations, ms
	numRounds  int64
	chunks     int64
	workers    int
	ops        int
}

func (ix *spanIndex) foldLayers(o *outcome, fl foldLadder) {
	folds := ix.durs(fl.fold)
	foldNs := float64(ix.sum(spanDur, fl.fold))
	callNs := float64(ix.sum(spanDur, fl.call))
	pairs := float64(ix.sum(spanItems, fl.call))
	hits := float64(ix.sum(spanHits, fl.call))
	calls := float64(ix.count(fl.call))
	self := ix.selfs(fl.fold)
	o.samples["ladder."+fl.fold] = folds.n()
	o.samples["ladder.rounds"] = fl.rounds.n()
	o.addLayer("core.flush_p50_ms", folds.q(0.5), "ms")
	o.addLayer("core.flush_p99_ms", tail(folds), "ms")
	o.addLayer("core.self_share", ratio(self.sum(), foldNs/1e6), "ratio")
	o.addLayer("core.equal_share", ratio(hits, pairs), "ratio")
	o.addLayer("oracle.pairs_per_call", ratio(pairs, calls), "pairs")
	o.addLayer("oracle.ns_per_pair", ratio(callNs, pairs), "ns")
	o.addLayer("oracle.busy_share", ratio(callNs, foldNs*float64(fl.workers)), "ratio")
	o.addLayer("model.rounds_per_op", ratio(float64(fl.numRounds), float64(fl.ops)), "rounds")
	o.addLayer("model.pairs_per_round", ratio(pairs, float64(fl.numRounds)), "pairs")
	o.addLayer("model.round_p50_us", fl.rounds.q(0.5)*1000, "us")
	o.addLayer("runtime.chunks_per_round", ratio(float64(fl.chunks), float64(fl.numRounds)), "chunks")
	o.addLayer("algo.sort_self_p50_ms", self.q(0.5), "ms")
}

// chunkRounds groups oracle-call spans into physical rounds by their
// fold and round counter, and returns each round's wall time (first
// chunk start to last chunk end, ms), the round count and the chunk
// count.
func (ix *spanIndex) chunkRounds(call string) (*samples, int64, int64) {
	type key struct{ parent, round uint64 }
	type iv struct{ lo, hi int64 }
	groups := make(map[key]iv)
	var chunks int64
	for _, sp := range ix.byName[call] {
		chunks++
		k := key{sp.Parent, uint64(sp.Round)}
		g, ok := groups[k]
		if !ok {
			g = iv{sp.Start, sp.End}
		}
		g.lo, g.hi = min(g.lo, sp.Start), max(g.hi, sp.End)
		groups[k] = g
	}
	var rounds samples
	for _, g := range groups {
		rounds.add(float64(g.hi-g.lo) / 1e6)
	}
	return &rounds, int64(len(groups)), chunks
}

// httpLayers derives the HTTP-edge metrics from a traced pass: server
// spans per op kind and the client-minus-server gap of each op.
func (ix *spanIndex) httpLayers(o *outcome) {
	o.addLayerDetail("http.ingest.server_p50_ms", ix.durs("http.ingest").q(0.5), "ms")
	o.addLayerDetail("http.read.server_p50_ms", ix.durs("http.read").q(0.5), "ms")
	gap := ix.clientGaps("ingest", "read", "churn")
	o.samples["trace.client_gap"] = gap.n()
	o.addLayerDetail("http.client_gap_p50_ms", gap.q(0.5), "ms")
	o.addLayer("http.req_bytes_per_elem", ratio(float64(ix.sum(func(s *span) int64 { return s.ReqBytes }, "client.ingest")),
		float64(ix.sum(spanItems, "client.ingest"))), "B/elem")
}

// clientGaps returns, per op of the given kinds, the client span minus
// its server span: connection, loopback and client-side codec time.
func (ix *spanIndex) clientGaps(kinds ...string) *samples {
	var gap samples
	for _, k := range kinds {
		for _, c := range ix.byName["client."+k] {
			for _, s := range ix.kids[c.ID] {
				if s.Name == "http."+k {
					gap.add(float64(c.dur()-s.dur()) / 1e6)
				}
			}
		}
	}
	return &gap
}

// serverSpans lists the HTTP server span names of the load ops.
var serverSpans = []string{"http.ingest", "http.read", "http.churn", "http.create", "http.verify", "http.drop"}

// scrapeMetrics reads the service's own /metrics counters in-process.
func scrapeMetrics(h http.Handler) map[string]float64 {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := make(map[string]float64)
	sc := bufio.NewScanner(rr.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil && !math.IsNaN(v) {
			out[name] = v
		}
	}
	return out
}
