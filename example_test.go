package ecsort_test

import (
	"context"
	"fmt"
	"math/rand"

	"ecsort"
)

// The basic flow: wrap data in an oracle, sort, read classes and cost.
func ExampleSort_cr() {
	oracle := ecsort.NewLabelOracle([]int{7, 3, 7, 3, 7, 9})
	res, err := ecsort.Sort(context.Background(), oracle, ecsort.CR(3), ecsort.Config{})
	if err != nil {
		panic(err)
	}
	fmt.Println("classes:", res.Canonical())
	// Output:
	// classes: [[0 2 4] [1 3] [5]]
}

// ER needs no knowledge of the number of classes.
func ExampleSort_er() {
	oracle := ecsort.NewLabelOracle([]int{1, 2, 1, 2})
	res, err := ecsort.Sort(context.Background(), oracle, ecsort.ER(), ecsort.Config{})
	if err != nil {
		panic(err)
	}
	fmt.Println("classes:", res.NumClasses())
	// Output:
	// classes: 2
}

// A custom oracle: any type with N and a concurrency-safe Same works.
type modOracle struct{ n, m int }

func (o modOracle) N() int             { return o.n }
func (o modOracle) Same(i, j int) bool { return i%o.m == j%o.m }

func ExampleOracle() {
	res, err := ecsort.Sort(context.Background(), modOracle{n: 9, m: 3}, ecsort.ER(), ecsort.Config{})
	if err != nil {
		panic(err)
	}
	fmt.Println("classes:", res.Canonical())
	// Output:
	// classes: [[0 3 6] [1 4 7] [2 5 8]]
}

// Certify validates a classification with a minimal test schedule.
func ExampleCertify() {
	oracle := ecsort.NewLabelOracle([]int{0, 0, 1})
	fmt.Println("good:", ecsort.Certify(oracle, [][]int{{0, 1}, {2}}, ecsort.Config{}))
	err := ecsort.Certify(oracle, [][]int{{0, 1, 2}}, ecsort.Config{})
	fmt.Println("bad is rejected:", err != nil)
	// Output:
	// good: <nil>
	// bad is rejected: true
}

// Sampling inputs from the paper's Section 4 distributions.
func ExampleSampleLabels() {
	rng := rand.New(rand.NewSource(1))
	labels := ecsort.SampleLabels(ecsort.NewGeometric(0.5), 6, rng)
	fmt.Println("len:", len(labels))
	// Output:
	// len: 6
}

// The Theorem 5 adversary forces any algorithm to spend Ω(n²/f).
func ExampleNewEqualSizeAdversary() {
	adv := ecsort.NewEqualSizeAdversary(64, 4)
	res, err := ecsort.Sort(context.Background(), adv, ecsort.RoundRobin(), ecsort.Config{Workers: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println("forced at least n²/(64f):", res.Stats.Comparisons >= 64*64/(64*4))
	fmt.Println("adversary consistent:", adv.Audit() == nil)
	// Output:
	// forced at least n²/(64f): true
	// adversary consistent: true
}

// CRUnknownK adapts the concurrent-read schedule when k is not known.
func ExampleSort_crUnknownK() {
	oracle := ecsort.NewLabelOracle([]int{4, 4, 8, 8, 8, 15})
	res, err := ecsort.Sort(context.Background(), oracle, ecsort.CRUnknownK(), ecsort.Config{})
	if err != nil {
		panic(err)
	}
	fmt.Println("classes:", res.Canonical())
	// Output:
	// classes: [[0 1] [2 3 4] [5]]
}

// ConstRoundER needs a lower bound λ on (smallest class size)/n;
// ConstRoundERAdaptive halves a too-large λ until it succeeds.
func ExampleSort_constRoundER() {
	labels := make([]int, 40)
	for i := range labels {
		labels[i] = i % 2
	}
	oracle := ecsort.NewLabelOracle(labels)
	opt := ecsort.ConstRoundOptions{Lambda: 0.4, MaxRetries: 3, Seed: 1}
	for _, alg := range []ecsort.Algorithm{ecsort.ConstRoundER(opt), ecsort.ConstRoundERAdaptive(opt)} {
		res, err := ecsort.Sort(context.Background(), oracle, alg, ecsort.Config{})
		if err != nil {
			panic(err)
		}
		fmt.Println("classes:", res.NumClasses(), "correct:", ecsort.SameClassification(res.Labels(len(labels)), labels))
	}
	// Output:
	// classes: 2 correct: true
	// classes: 2 correct: true
}

// TwoClassER handles inputs with at most two classes in O(1) ER rounds.
func ExampleSort_twoClassER() {
	oracle := ecsort.NewLabelOracle([]int{0, 1, 1, 0, 1, 0, 0, 1})
	res, err := ecsort.Sort(context.Background(), oracle, ecsort.TwoClassER(3, 1), ecsort.Config{})
	if err != nil {
		panic(err)
	}
	fmt.Println("classes:", res.Canonical())
	// Output:
	// classes: [[0 3 5 6] [1 2 4 7]]
}

// RoundRobin and Naive are the sequential regimens; both account one
// test per round.
func ExampleSort_sequential() {
	oracle := ecsort.NewLabelOracle([]int{2, 5, 2, 5, 2})
	for _, alg := range []ecsort.Algorithm{ecsort.RoundRobin(), ecsort.Naive()} {
		res, err := ecsort.Sort(context.Background(), oracle, alg, ecsort.Config{Workers: 1})
		if err != nil {
			panic(err)
		}
		fmt.Println("classes:", res.Canonical(), "one test per round:", int64(res.Stats.Rounds) == res.Stats.Comparisons)
	}
	// Output:
	// classes: [[0 2 4] [1 3]] one test per round: true
	// classes: [[0 2 4] [1 3]] one test per round: true
}

// A distributed sort runs an algorithm over an agent network's session:
// every equivalence test is one pairwise handshake.
func ExampleNewAgentSession() {
	nw := ecsort.NewAgentNetwork(ecsort.KeyAgents([]int{0, 1, 0, 1, 2}, 7))
	res, err := ecsort.ER().Sort(context.Background(), ecsort.NewAgentSession(nw, ecsort.Config{}))
	if err != nil {
		panic(err)
	}
	fmt.Println("classes:", res.Canonical())
	fmt.Println("one handshake per test:", nw.Sessions() == res.Stats.Comparisons)
	// Output:
	// classes: [[0 2] [1 3] [4]]
	// one handshake per test: true
}
