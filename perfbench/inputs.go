package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"ecsort/internal/core"
	"ecsort/internal/dist"
	"ecsort/internal/service"
)

// distributions are the paper's four class-size distributions; input
// collection i draws its labels from distributions[i%4].
var distributions = []struct {
	name string
	make func() dist.Distribution
}{
	{"uniform(k=10)", func() dist.Distribution { return dist.NewUniform(10) }},
	{"geometric(p=0.1)", func() dist.Distribution { return dist.NewGeometric(0.1) }},
	{"poisson(lambda=5)", func() dist.Distribution { return dist.NewPoisson(5) }},
	{"zeta(s=1.5)", func() dist.Distribution { return dist.NewZeta(1.5) }},
}

// input is one collection's ground truth and its pre-encoded requests.
type input struct {
	labels []int
	// classSize[l] is how many elements carry label l (zeta labels are
	// sparse and can be large, hence a map).
	classSize map[int]int
	classes   int
	// order is the ingest order; posts[i] carries order[i*per:(i+1)*per].
	order  []int
	posts  [][]int
	create []byte   // PUT body
	bodies [][]byte // POST items bodies, one per posts entry
}

// labelInput derives input i of a workload from seed: n labels from the
// distribution rotation (or uniform(10) when rotate is false), and a
// shuffled ingest order.
func labelInput(seed int64, i, n int, rotate bool) *input {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
	d := distributions[0].make()
	if rotate {
		d = distributions[i%len(distributions)].make()
	}
	in := &input{labels: dist.Labels(d, n, rng), order: rng.Perm(n)}
	in.classSize = make(map[int]int)
	for _, l := range in.labels {
		in.classSize[l]++
	}
	in.classes = len(in.classSize)
	return in
}

// makeInputs derives count inputs for an HTTP workload: labels, the
// ingest order cut into per-item posts, and the pre-encoded request
// bodies, so clients spend no time encoding while they measure.
func makeInputs(seed int64, count, n, per int, rotate bool) ([]*input, error) {
	ins := make([]*input, count)
	for i := range ins {
		in := labelInput(seed, i, n, rotate)
		var err error
		if in.create, err = json.Marshal(service.OracleSpec{Kind: service.KindLabel, Labels: in.labels}); err != nil {
			return nil, err
		}
		for lo := 0; lo < n; lo += per {
			items := in.order[lo:min(lo+per, n)]
			body, err := json.Marshal(map[string][]int{"items": items})
			if err != nil {
				return nil, err
			}
			in.posts = append(in.posts, items)
			in.bodies = append(in.bodies, body)
		}
		ins[i] = in
	}
	return ins, nil
}

// checkClasses verifies a published partition against the input's
// labels: every element present exactly once, classes exactly the
// label classes.
func (in *input) checkClasses(classes [][]int) error {
	n := len(in.labels)
	got := core.Result{Classes: classes}
	size := 0
	for _, c := range classes {
		size += len(c)
	}
	if size != n {
		return fmt.Errorf("partition covers %d of %d elements", size, n)
	}
	if !core.SameClassification(got.Labels(n), in.labels) {
		return fmt.Errorf("partition differs from ground truth")
	}
	return nil
}

// checkView verifies a point read: e's class is exactly the elements
// sharing e's label (the collection being fully ingested and folded).
func (in *input) checkView(e int, v service.ClassView) error {
	l := in.labels[e]
	if v.Element != e || len(v.Members) != in.classSize[l] {
		return fmt.Errorf("class of %d has %d members, want %d", e, len(v.Members), in.classSize[l])
	}
	for _, m := range v.Members {
		if in.labels[m] != l {
			return fmt.Errorf("class of %d holds %d, which carries another label", e, m)
		}
	}
	return nil
}
