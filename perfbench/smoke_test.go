package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks
// the program against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

type resultLine struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// TestSmokeEveryWorkload runs each workload at its self-test size, with
// and without tracing, and checks that the result line carries exactly
// the metrics BENCHMARK.json names, each with its unit, that the run
// verified correct with no failed op, and that the report records the
// run's configuration and sample counts.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a few seconds")
	}
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		if _, ok := workloads[wl.Name]; !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", wl.Name)
		}
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			o, err := runWorkload(wl.Name, runOpts{seed: 7, seconds: 3, trace: trace, workdir: t.TempDir(), small: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			var buf bytes.Buffer
			writeReport(&buf, o, trace)
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d problems=%q", wl.Name, trace, res.Correct, res.Failed, res.Attempted, o.problems)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", wl.Name, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", wl.Name, trace, m.Name, got.Unit, m.Unit)
				}
				if !trace && got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", wl.Name, m.Name)
				}
			}
			report := lines[len(lines)-2]
			for _, key := range []string{`"nproc"`, `"gomaxprocs"`, `"go"`, `"seed"`, `"samples"`} {
				if !strings.Contains(report, key) {
					t.Errorf("%s trace=%v: report line lacks %s", wl.Name, trace, key)
				}
			}
			if len(o.samples) == 0 {
				t.Errorf("%s trace=%v: no sample counts recorded", wl.Name, trace)
			}
		}
	}
}

// TestPerLayerTableMatchesSpec keeps the program's per-layer table and
// BENCHMARK.json in step.
func TestPerLayerTableMatchesSpec(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s/%s, program %s/%s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
