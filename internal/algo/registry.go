package algo

import (
	"fmt"
	"sort"
)

// Info describes one registry entry for listings: the GET /v1/algorithms
// endpoint serves the JSON form, and the CLIs render the same rows.
type Info struct {
	// Name is the canonical registry name.
	Name string `json:"name"`
	// Mode is the comparison-model variant ("ER" or "CR"); "any" for
	// auto, which plans across both.
	Mode string `json:"mode"`
	// Hints lists the Hints fields the factory consumes, required ones
	// first (see Required).
	Hints []string `json:"hints,omitempty"`
	// Required lists the hints that must be set for the factory to
	// succeed (e.g. "k" for cr, "lambda" for const-round-er).
	Required []string `json:"required,omitempty"`
	// Rounds is the regimen's round complexity in Valiant's model.
	Rounds string `json:"rounds"`
	// Description is a one-line summary.
	Description string `json:"description"`
}

// entry is one registered factory.
type entry struct {
	info    Info
	aliases []string
	make    func(h Hints) (Algorithm, error)
}

// registry is the fixed table of built-in regimens, in listing order
// (cheapest-round families first, the planner last).
var registry = []entry{
	{
		info: Info{
			Name: "cr", Mode: "CR",
			Hints: []string{"k"}, Required: []string{"k"},
			Rounds:      "O(k + log log n)",
			Description: "Theorem 1 two-phase compounding; k steers the round schedule",
		},
		make: func(h Hints) (Algorithm, error) {
			if h.K < 1 {
				return nil, fmt.Errorf("algo: %q needs hint K >= 1, got %d", "cr", h.K)
			}
			return CR(h.K), nil
		},
	},
	{
		info: Info{
			Name: "cr-unknown-k", Mode: "CR",
			Rounds:      "O(k + log log n)",
			Description: "Theorem 1 compounding with the phase switch adapted to the observed class count",
		},
		aliases: []string{"cr-unknown"},
		make:    func(Hints) (Algorithm, error) { return CRUnknownK(), nil },
	},
	{
		info: Info{
			Name: "er", Mode: "ER",
			Rounds:      "O(k log n)",
			Description: "Theorem 2 level-synchronous merge tree of disjoint representative tests",
		},
		make: func(Hints) (Algorithm, error) { return ER(), nil },
	},
	{
		info: Info{
			Name: "const-round-er", Mode: "ER",
			Hints: []string{"lambda", "d", "max_retries", "seed"}, Required: []string{"lambda"},
			Rounds:      "O(1)",
			Description: "Theorem 4 random-Hamiltonian-cycle regimen; needs smallest class >= lambda*n",
		},
		aliases: []string{"const"},
		make: func(h Hints) (Algorithm, error) {
			if h.Lambda <= 0 || h.Lambda > 0.4 {
				return nil, fmt.Errorf("algo: %q needs hint Lambda in (0, 0.4], got %v", "const-round-er", h.Lambda)
			}
			return ConstRoundER(ConstRoundOpts{Lambda: h.Lambda, D: h.D, MaxRetries: h.retries(), Seed: h.Seed}), nil
		},
	},
	{
		info: Info{
			Name: "const-round-er-adaptive", Mode: "ER",
			Hints:       []string{"lambda", "d", "max_retries", "seed"},
			Rounds:      "O(1) for the final lambda",
			Description: "Theorem 4 without knowing lambda: halve a starting guess after every failure",
		},
		aliases: []string{"const-adaptive"},
		make: func(h Hints) (Algorithm, error) {
			return ConstRoundERAdaptive(ConstRoundOpts{Lambda: h.Lambda, D: h.D, MaxRetries: h.retries(), Seed: h.Seed}), nil
		},
	},
	{
		info: Info{
			Name: "two-class-er", Mode: "ER",
			Hints:       []string{"max_retries", "seed"},
			Rounds:      "O(1)",
			Description: "k = 2 constant-round sort (parallel fault diagnosis reduction); Certify if the promise is untrusted",
		},
		aliases: []string{"two-class"},
		make: func(h Hints) (Algorithm, error) {
			return TwoClassER(h.retries(), h.Seed), nil
		},
	},
	{
		info: Info{
			Name: "round-robin", Mode: "ER",
			Rounds:      "one comparison per round",
			Description: "sequential regimen of Jayapaul et al., the Section 4 analysis subject",
		},
		aliases: []string{"rr"},
		make:    func(Hints) (Algorithm, error) { return RoundRobin(), nil },
	},
	{
		info: Info{
			Name: "naive", Mode: "ER",
			Rounds:      "one comparison per round",
			Description: "sequential one-representative-per-class baseline (<= n*k comparisons)",
		},
		make: func(Hints) (Algorithm, error) { return Naive(), nil },
	},
	{
		info: Info{
			Name: "auto", Mode: "any",
			Hints:       []string{"k", "lambda", "mode", "online", "seed", "d", "max_retries"},
			Rounds:      "cheapest applicable",
			Description: "plans the cheapest applicable regimen from the workload hints and records its choice",
		},
		make: func(h Hints) (Algorithm, error) {
			a := Auto(h)
			if _, err := a.(*auto).Chosen(); err != nil {
				return nil, err
			}
			return a, nil
		},
	},
}

// Infos lists every registered regimen in registry order.
func Infos() []Info {
	out := make([]Info, len(registry))
	for i, e := range registry {
		out[i] = e.info
	}
	return out
}

// Names lists the canonical registry names, sorted.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.info.Name
	}
	sort.Strings(out)
	return out
}

// ByName builds the named regimen from the registry, resolving the
// short CLI aliases ("const", "rr", ...) to their canonical entries.
// The error distinguishes an unknown name from a known regimen whose
// required hints are missing.
func ByName(name string, h Hints) (Algorithm, error) {
	for _, e := range registry {
		if e.info.Name == name {
			return e.make(h)
		}
		for _, a := range e.aliases {
			if a == name {
				return e.make(h)
			}
		}
	}
	return nil, fmt.Errorf("algo: unknown algorithm %q (known: %v)", name, Names())
}
