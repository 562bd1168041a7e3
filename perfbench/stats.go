package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of sorted: the smallest
// sample with at least q of all samples at or below it. It returns 0 for
// an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	r := int(math.Ceil(q * float64(len(sorted))))
	r = max(1, min(r, len(sorted)))
	return sorted[r-1]
}

// tailLevels are the percentiles a tail is reported at, highest first.
var tailLevels = []float64{0.999, 0.99, 0.9, 0.5}

// tailLevel returns the highest percentile in tailLevels that leaves at
// least ten of n samples strictly beyond its nearest rank, so a reported
// tail is never a single outlier. It returns 0 when even the median has
// fewer than ten samples beyond it.
func tailLevel(n int) float64 {
	for _, q := range tailLevels {
		r := int(math.Ceil(q * float64(n)))
		if n-r >= 10 {
			return q
		}
	}
	return 0
}

// samples collects one op type's latencies in milliseconds.
type samples struct {
	xs     []float64
	sorted bool
}

func (s *samples) add(ms float64) {
	s.xs = append(s.xs, ms)
	s.sorted = false
}

func (s *samples) merge(o *samples) {
	s.xs = append(s.xs, o.xs...)
	s.sorted = false
}

func (s *samples) n() int { return len(s.xs) }

func (s *samples) q(q float64) float64 {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	return quantile(s.xs, q)
}

func (s *samples) sum() float64 {
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum
}

func (s *samples) mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.sum() / float64(len(s.xs))
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return quantile(c, 0.5)
}

// phaseWindows is how many equal windows a phase is cut into. The
// headline figures are medians over windows, so a burst of host noise
// shorter than half the phase moves them little.
const phaseWindows = 8

// windowed collects one phase's samples by time window.
type windowed struct {
	start, end time.Time
	width      time.Duration
	wins       map[int]*samples
}

func newWindowed(start, end time.Time) *windowed {
	return &windowed{start: start, end: end, width: end.Sub(start) / phaseWindows, wins: make(map[int]*samples)}
}

func (w *windowed) add(at time.Time, x float64) {
	if w == nil || w.width <= 0 {
		return
	}
	i := int(at.Sub(w.start) / w.width)
	s, ok := w.wins[i]
	if !ok {
		s = &samples{}
		w.wins[i] = s
	}
	s.add(x)
}

func (w *windowed) merge(o *windowed) {
	if o == nil {
		return
	}
	for i, s := range o.wins {
		if _, ok := w.wins[i]; !ok {
			w.wins[i] = &samples{}
		}
		w.wins[i].merge(s)
	}
}

// full returns the phase's windows in order (empty ones included).
func (w *windowed) full() []*samples {
	out := make([]*samples, phaseWindows)
	for i := range out {
		if out[i] = w.wins[i]; out[i] == nil {
			out[i] = &samples{}
		}
	}
	return out
}

// q returns the median over windows of each window's q-quantile,
// skipping windows with fewer than ten samples.
func (w *windowed) q(q float64) float64 {
	var per []float64
	for _, s := range w.full() {
		if s.n() >= 10 {
			per = append(per, s.q(q))
		}
	}
	return median(per)
}

// rate returns the median over windows of each window's sum per second.
func (w *windowed) rate() float64 {
	var per []float64
	for _, s := range w.full() {
		per = append(per, s.sum()/w.width.Seconds())
	}
	return median(per)
}
