// Package oracle provides concrete equivalence oracles for the equivalence
// class sorting problem: a plain label oracle used as ground truth in
// experiments, plus simulated versions of the paper's three motivating
// applications — cryptographic secret handshakes, generalized fault
// diagnosis, and graph mining via graph isomorphism.
//
// All oracles implement model.Oracle and are safe for concurrent use.
package oracle

import (
	"fmt"
	"math/rand"

	"ecsort/internal/model"
)

// Label is the reference oracle: element i belongs to the class labels[i].
// Same(i,j) is a single slice lookup, so experiments measure the
// combinatorics of the algorithms, not oracle overhead.
type Label struct {
	labels []int
}

// NewLabel builds a label oracle. The label values are arbitrary integers;
// equality of labels defines the equivalence relation.
func NewLabel(labels []int) *Label {
	cp := make([]int, len(labels))
	copy(cp, labels)
	return &Label{labels: cp}
}

// N returns the number of elements.
func (o *Label) N() int { return len(o.labels) }

// Same reports whether elements i and j carry the same label.
func (o *Label) Same(i, j int) bool { return o.labels[i] == o.labels[j] }

// SameBatch implements model.BatchOracle: one slice walk answers a
// whole worker-pool chunk, so a parallel round costs one oracle
// invocation per chunk instead of one per pair.
//
//ecsort:hotpath
func (o *Label) SameBatch(pairs []model.Pair, out []bool) {
	labels := o.labels
	for i, p := range pairs {
		out[i] = labels[p.A] == labels[p.B]
	}
}

// Labels returns a copy of the underlying labels.
func (o *Label) Labels() []int {
	cp := make([]int, len(o.labels))
	copy(cp, o.labels)
	return cp
}

// Classes returns the ground-truth classes as element-index groups, ordered
// by smallest member.
func (o *Label) Classes() [][]int {
	first := make(map[int]int) // label -> order of first appearance
	var order []int
	for i, l := range o.labels {
		if _, ok := first[l]; !ok {
			first[l] = len(order)
			order = append(order, i)
		}
	}
	groups := make([][]int, len(order))
	for i, l := range o.labels {
		groups[first[l]] = append(groups[first[l]], i)
	}
	return groups
}

// NumClasses returns the number of distinct classes.
func (o *Label) NumClasses() int {
	seen := make(map[int]struct{})
	for _, l := range o.labels {
		seen[l] = struct{}{}
	}
	return len(seen)
}

// MinClassSize returns the size of the smallest class (0 for an empty
// oracle).
func (o *Label) MinClassSize() int {
	counts := make(map[int]int)
	for _, l := range o.labels {
		counts[l]++
	}
	m := 0
	for _, c := range counts {
		if m == 0 || c < m {
			m = c
		}
	}
	return m
}

// RandomBalanced returns a label oracle over n elements split into k
// classes whose sizes differ by at most one, with class assignment
// shuffled by rng. It panics if k < 1 or k > n.
func RandomBalanced(n, k int, rng *rand.Rand) *Label {
	if k < 1 || k > n {
		panic(fmt.Sprintf("oracle: invalid balanced split n=%d k=%d", n, k))
	}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % k
	}
	rng.Shuffle(n, func(i, j int) { labels[i], labels[j] = labels[j], labels[i] })
	return NewLabel(labels)
}

// RandomSizes returns a label oracle whose class c has exactly sizes[c]
// members, positions shuffled by rng.
//
//ecsort:ignore deadexport fixed-class-size input fixture shared by the core, majority and oracle tests
func RandomSizes(sizes []int, rng *rand.Rand) *Label {
	n := 0
	for c, s := range sizes {
		if s < 1 {
			panic(fmt.Sprintf("oracle: class %d has size %d", c, s))
		}
		n += s
	}
	labels := make([]int, 0, n)
	for c, s := range sizes {
		for i := 0; i < s; i++ {
			labels = append(labels, c)
		}
	}
	rng.Shuffle(n, func(i, j int) { labels[i], labels[j] = labels[j], labels[i] })
	return NewLabel(labels)
}
