package main

import "testing"

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.01, 1}, {0.5, 50}, {0.9, 90}, {0.99, 99}, {0.991, 100}, {1, 100},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(nil) = %v, want 0", got)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile([7], 0.99) = %v, want 7", got)
	}
}

func TestTailLevelKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSamplesAndMedian(t *testing.T) {
	var s samples
	for _, x := range []float64{5, 1, 4, 2, 3} {
		s.add(x)
	}
	if s.q(0.5) != 3 || s.mean() != 3 || s.n() != 5 {
		t.Fatalf("samples: p50 %v mean %v n %d", s.q(0.5), s.mean(), s.n())
	}
	s.add(0)
	if s.q(0) != 0 {
		t.Fatalf("adding after a quantile must re-sort: min = %v", s.q(0))
	}
	xs := []float64{3, 1, 2}
	if median(xs) != 2 || xs[0] != 3 {
		t.Fatalf("median must not reorder its input: %v", xs)
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 40}, // overlaps span 2
		{ID: 4, Parent: 1, Start: 50, End: 60},
		{ID: 5, Parent: 1, Start: 95, End: 130}, // runs past its parent
		{ID: 6, Parent: 2, Start: 12, End: 14},
	}
	self := selfTimes(spans)
	if self[1] != 100-30-10-5 {
		t.Errorf("self(parent) = %d, want 55", self[1])
	}
	if self[2] != 18 {
		t.Errorf("self(child with grandchild) = %d, want 18", self[2])
	}
	if self[4] != 10 {
		t.Errorf("self(leaf) = %d, want 10", self[4])
	}
}
