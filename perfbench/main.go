// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against the in-process program, checks every output against
// ground truth, and prints a report followed by one JSON result line:
//
//	go run . --workload serve-label --seed 1 --seconds 20 --trace 0
//
// Workloads: serve-label (memory-only node over loopback HTTP, Label
// oracle), er-agents (the library's ER sort over secret-handshake agent
// networks), cluster-durable (coordinator over TCP to two durable
// nodes, with churn and a close/reopen). --trace 0 measures the
// end-to-end metrics with no instrumentation installed; --trace 1 runs
// an untraced pass, a traced pass and a layer ladder, and prints the
// per-layer metrics derived from the benchmark's own spans. See
// README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"
	"time"
)

// metric is one named, unit-carrying number.
type metric struct {
	name  string
	value float64
	unit  string
}

// outcome is everything one workload run reports.
type outcome struct {
	// env records the run's configuration: sizes, rates, policies.
	env map[string]any
	// e2e holds the contract metrics printed with --trace 0.
	e2e []metric
	// detail holds workload-specific end-to-end figures (per-op
	// percentiles, recovery time, error rate) printed in the report.
	detail []metric
	// layer holds the per-layer metrics of a traced run; layerDetail
	// the workload-specific ones printed in the report only.
	layer       []metric
	layerDetail []metric
	// samples counts the samples behind each percentile, by op type.
	samples map[string]int
	// path decomposes the blocking path of a traced run (mean ms per
	// op): each component and the end-to-end mean it accounts for.
	path []metric

	attempted, failed int64
	problems          []string
	spans             *recorder
}

func (o *outcome) addE2E(name string, v float64, unit string) {
	o.e2e = append(o.e2e, metric{name, v, unit})
}

func (o *outcome) addDetail(name string, v float64, unit string) {
	o.detail = append(o.detail, metric{name, v, unit})
}

func (o *outcome) addLayer(name string, v float64, unit string) {
	o.layer = append(o.layer, metric{name, v, unit})
}

func (o *outcome) addLayerDetail(name string, v float64, unit string) {
	o.layerDetail = append(o.layerDetail, metric{name, v, unit})
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// addLatency records an op type's median and tail into detail, under
// the given metric prefix, and its sample count.
func (o *outcome) addLatency(prefix string, s *samples) {
	o.samples[prefix] = s.n()
	o.addDetail(prefix+"_p50_ms", s.q(0.5), "ms")
	if q := tailLevel(s.n()); q > 0.5 {
		o.addDetail(fmt.Sprintf("%s_p%s_ms", prefix, pctName(q)), s.q(q), "ms")
	}
}

func pctName(q float64) string {
	return strings.TrimSuffix(strings.TrimRight(fmt.Sprintf("%.1f", q*100), "0"), ".")
}

// checkFinite turns a NaN or infinite metric — a division by an empty
// count — into a reported problem, since JSON cannot carry it.
func (o *outcome) checkFinite() {
	for _, set := range [][]metric{o.e2e, o.detail, o.layer, o.layerDetail, o.path} {
		for i := range set {
			if v := set[i].value; math.IsNaN(v) || math.IsInf(v, 0) {
				o.problem("metric %s is %v", set[i].name, v)
				set[i].value = 0
			}
		}
	}
}

// runOpts is what every workload receives.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
	workdir string
	small   bool // tiny sizes, for the benchmark's own tests
}

var workloads = map[string]func(runOpts) (*outcome, error){
	"serve-label":     runServeLabel,
	"er-agents":       runERAgents,
	"cluster-durable": runClusterDurable,
}

func main() {
	workload := flag.String("workload", "", "workload: serve-label | er-agents | cluster-durable")
	seed := flag.Int64("seed", 1, "seed the workload inputs derive from")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced ladder and prints per-layer metrics")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "perfbench"), "scratch directory for data files and span dumps")
	flag.Parse()

	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	opts := runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir}
	o, err := runWorkload(*workload, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(2)
	}
	if o.spans != nil {
		path := filepath.Join(*workdir, fmt.Sprintf("spans-%s-%d.jsonl", *workload, *seed))
		if err := o.spans.writeFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(2)
		}
		o.env["spans_file"] = path
	}
	writeReport(os.Stdout, o, opts.trace)
	if len(o.problems) > 0 {
		os.Exit(1)
	}
}

// runWorkload runs one workload and records its options in the report.
func runWorkload(name string, opts runOpts) (*outcome, error) {
	o, err := workloads[name](opts)
	if err != nil {
		return nil, err
	}
	o.env["workload"] = name
	o.env["seed"] = opts.seed
	o.env["seconds"] = opts.seconds
	o.env["trace"] = opts.trace
	o.checkFinite()
	return o, nil
}

// baseEnv records the machine facts every output carries.
func baseEnv() map[string]any {
	return map[string]any{
		"nproc":      goruntime.NumCPU(),
		"gomaxprocs": goruntime.GOMAXPROCS(0),
		"go":         goruntime.Version(),
		"goos":       goruntime.GOOS,
		"goarch":     goruntime.GOARCH,
		"started":    time.Now().UTC().Format(time.RFC3339),
	}
}

// writeReport prints the human-readable report, a JSON report line, and
// last the contract result line.
func writeReport(w io.Writer, o *outcome, trace bool) {
	keys := make([]string, 0, len(o.env))
	for k := range o.env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintln(w, "# perfbench")
	for _, k := range keys {
		fmt.Fprintf(w, "env %-22s %v\n", k, o.env[k])
	}
	sk := make([]string, 0, len(o.samples))
	for k := range o.samples {
		sk = append(sk, k)
	}
	sort.Strings(sk)
	for _, k := range sk {
		fmt.Fprintf(w, "samples %-18s %d\n", k, o.samples[k])
	}
	section := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(w, "## %s\n", title)
		for _, m := range ms {
			fmt.Fprintf(w, "%-34s %14.6g %s\n", m.name, m.value, m.unit)
		}
	}
	section("end-to-end", o.e2e)
	section("end-to-end detail", o.detail)
	section("per-layer", o.layer)
	section("per-layer detail", o.layerDetail)
	section("blocking path (mean ms per op)", o.path)
	for _, p := range o.problems {
		fmt.Fprintf(w, "PROBLEM %s\n", p)
	}

	asMap := func(ms []metric) map[string]any {
		out := make(map[string]any, len(ms))
		for _, m := range ms {
			out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
		return out
	}
	report := map[string]any{
		"env": o.env, "samples": o.samples,
		"end_to_end": asMap(o.e2e), "detail": asMap(o.detail),
		"per_layer": asMap(o.layer), "per_layer_detail": asMap(o.layerDetail),
		"blocking_path": asMap(o.path), "problems": o.problems,
	}
	line, _ := json.Marshal(map[string]any{"report": report})
	fmt.Fprintln(w, string(line))

	metrics := o.e2e
	if trace {
		metrics = o.layer
	}
	result := map[string]any{
		"correct":   len(o.problems) == 0,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   asMap(metrics),
	}
	line, _ = json.Marshal(result)
	fmt.Fprintln(w, string(line))
}
