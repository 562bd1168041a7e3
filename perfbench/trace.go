package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one client
// operation share Op; Parent links a span to the span that caused it.
// The counters carry the work the call moved, so ratios are measured
// where the work happened.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Items counts the elements or pairs the call carried, Hits the
	// "same" answers among them, Round the physical round a chunk ran
	// in, ReqBytes/RespBytes the payload sizes.
	Items     int64 `json:"items,omitempty"`
	Hits      int64 `json:"hits,omitempty"`
	Round     int64 `json:"round,omitempty"`
	ReqBytes  int64 `json:"req_bytes,omitempty"`
	RespBytes int64 `json:"resp_bytes,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder keeps finished spans in memory until the run ends. A nil
// recorder records nothing, so untraced runs pay one nil check per
// boundary.
type recorder struct {
	epoch time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span; the caller fills its counters and passes it to
// end. On a nil recorder it returns nil.
func (r *recorder) begin(name string, parent, op uint64) *span {
	if r == nil {
		return nil
	}
	return &span{
		ID:     r.next.Add(1),
		Parent: parent,
		Op:     op,
		Name:   name,
		Start:  int64(time.Since(r.epoch)),
	}
}

func (r *recorder) end(s *span) {
	if r == nil || s == nil {
		return
	}
	s.End = int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans = append(r.spans, *s)
	r.mu.Unlock()
}

// snapshot returns a copy of the spans finished so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// since returns the finished spans that started at or after t.
func (r *recorder) since(t time.Time) []span {
	from := int64(t.Sub(r.epoch))
	var out []span
	for _, s := range r.snapshot() {
		if s.Start >= from {
			out = append(out, s)
		}
	}
	return out
}

// writeFile dumps every span as one JSON object per line.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanRef is the span a request context carries across a layer, so a
// wrapper deeper down can parent its span on it.
type spanRef struct{ id, op uint64 }

type spanKey struct{}

func withSpan(ctx context.Context, s *span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, spanRef{id: s.ID, op: s.Op})
}

func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children (overlapping children count
// once).
func selfTimes(spans []span) map[uint64]int64 {
	kids := make(map[uint64][][2]int64)
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[uint64]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		self[s.ID] = s.dur() - covered(kids[s.ID], s.Start, s.End)
	}
	return self
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if curHi < 0 || a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	return total + curHi - curLo
}
