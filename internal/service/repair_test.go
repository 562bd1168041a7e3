package service

import (
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ecsort/internal/core"
)

// TestRepairSamplerValidation pins the repair-config boundary: unknown
// distribution names are ErrBadSpec at Open time, and every supported
// sampler draws in-range positions.
func TestRepairSamplerValidation(t *testing.T) {
	if _, err := Open(Config{Repair: RepairConfig{Dist: "nosuch"}}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("Open with unknown repair distribution: %v, want ErrBadSpec", err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, name := range []string{"", "uniform", "geometric", "poisson", "zeta"} {
		sp, err := newRepairSampler(RepairConfig{Dist: name, Param: 0})
		if err != nil {
			t.Fatalf("sampler %q: %v", name, err)
		}
		for k := 0; k < 200; k++ {
			if got := sp.index(rng, 7); got < 0 || got >= 7 {
				t.Fatalf("sampler %q drew %d, want [0,7)", name, got)
			}
		}
	}
}

// matchesTruth reports whether a snapshot covers all n elements and its
// partition equals the label partition.
func matchesTruth(snap *Snapshot, labels []int) bool {
	if snap.Size != len(labels) {
		return false
	}
	got := core.Result{Classes: snap.Classes}
	return core.SameClassification(got.Labels(len(labels)), labels)
}

// TestRepairConvergence is the robustness anchor: a collection folded
// through a noisy oracle (30% transient failures masked by retries, 12%
// silent flips masked by 5-vote majorities — residual wrong-verdict
// rate under 2%) accumulates wrong merges, and repeated repair sweeps
// must converge the published partition back to ground truth.
func TestRepairConvergence(t *testing.T) {
	// Small universe on purpose: every retry pays a jittered backoff
	// sleep, and a full re-fold is O(n²) comparisons, so the wall clock
	// scales with n² × FailRate. 16 elements keep the worst-case fold
	// under half a second while still leaving room for wrong merges.
	const n = 16
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % 4
	}
	svc := New(Config{Shards: 1, Workers: 1, Repair: RepairConfig{Samples: 48, Seed: 3}})
	defer svc.Close()
	spec := OracleSpec{
		Kind: KindLabel, Labels: labels,
		Faults: &FaultSpec{FailRate: 0.3, FlipRate: 0.12, Seed: 9},
		Resilience: &ResilienceSpec{
			Votes: 5, Retries: 3, BackoffMs: 1, MaxBackoffMs: 2,
			// High enough that the fail rate cannot produce the
			// consecutive-exhaustion streak that would trip the breaker:
			// this test is about flipped answers, not availability.
			BreakerThreshold: 1000,
		},
	}
	if err := svc.CreateCollection("noisy", spec); err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < n; lo += 4 {
		items := make([]int, 4)
		for i := range items {
			items[i] = lo + i
		}
		if _, err := svc.Ingest("noisy", items, true); err != nil {
			t.Fatal(err)
		}
	}

	converged := -1
	for sweep := 0; sweep < 60; sweep++ {
		snap, err := svc.Classes("noisy", false)
		if err != nil {
			t.Fatal(err)
		}
		if matchesTruth(snap, labels) {
			converged = sweep
			break
		}
		svc.RepairSweep()
	}
	if converged < 0 {
		snap, _ := svc.Classes("noisy", false)
		t.Fatalf("no convergence after 60 repair sweeps; classes %v", snap.Classes)
	}
	t.Logf("converged after %d sweeps, %d samples, %d divergences, %d corrections, %d errors",
		converged, svc.repairSamples.Load(), svc.repairDivergences.Load(),
		svc.repairCorrections.Load(), svc.repairErrors.Load())
	info, err := svc.CollectionStats("noisy")
	if err != nil {
		t.Fatal(err)
	}
	if svc.repairCorrections.Load() != info.Repaired {
		t.Errorf("corrections %d != collection repaired counter %d", svc.repairCorrections.Load(), info.Repaired)
	}
}

// TestRepairDaemonLoop pins the background daemon wiring: with an
// interval set, sweeps run without explicit calls.
func TestRepairDaemonLoop(t *testing.T) {
	svc := New(Config{Shards: 1, Workers: 1, Repair: RepairConfig{Interval: time.Millisecond, Samples: 4}})
	defer svc.Close()
	labels := []int{0, 0, 1, 1}
	if err := svc.CreateCollection("k", OracleSpec{Kind: KindLabel, Labels: labels}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Ingest("k", []int{0, 1, 2, 3}, true); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for svc.repairSweeps.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if svc.repairSweeps.Load() == 0 {
		t.Fatal("repair daemon never swept")
	}
	if svc.repairDivergences.Load() != 0 {
		t.Errorf("fault-free collection produced %d divergences", svc.repairDivergences.Load())
	}
}

// TestDegradedBreakerHTTP pins the degraded-mode contract over HTTP: a
// collection whose oracle breaker is open keeps serving its last
// snapshot on reads, rejects every write with 503 and a Retry-After
// header, reports degraded on the readiness probe while liveness stays
// 200, and is skipped by repair sweeps.
func TestDegradedBreakerHTTP(t *testing.T) {
	svc := New(Config{Shards: 1, Workers: 1})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()

	spec := OracleSpec{
		Kind: KindLabel, Labels: []int{0, 0, 1, 1},
		Faults: &FaultSpec{FailRate: 1, Seed: 1},
		Resilience: &ResilienceSpec{
			TimeoutMs: 200, Retries: 1, BackoffMs: 1, MaxBackoffMs: 1,
			BreakerThreshold: 1, BreakerCooldownMs: 600_000, // stays open for the whole test
		},
	}
	if code := call(t, client, "PUT", ts.URL+"/v1/collections/d", spec, nil); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}

	// The first folding ingest meets the dead oracle, trips the breaker
	// mid-fold, and comes back degraded.
	req, err := http.NewRequest("POST", ts.URL+"/v1/collections/d/items?flush=1",
		strings.NewReader(`{"items":[0,1,2,3]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("folding ingest against a dead oracle: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("degraded ingest response has no Retry-After header")
	}

	// Writes stay rejected with Retry-After while the breaker is open.
	for _, w := range []struct{ method, path, body string }{
		{"POST", "/v1/collections/d/items", `{"items":[0]}`},
		{"DELETE", "/v1/collections/d/items/0", ""},
		{"POST", "/v1/collections/d/classes/0/invalidate", ""},
	} {
		var body io.Reader
		if w.body != "" {
			body = strings.NewReader(w.body)
		}
		req, err := http.NewRequest(w.method, ts.URL+w.path, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s %s while degraded: %d, want 503", w.method, w.path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s %s while degraded: no Retry-After header", w.method, w.path)
		}
	}

	// Reads fall back to the last published snapshot — both the stale
	// path and the fresh path, whose flush is refused.
	var snap Snapshot
	if code := call(t, client, "GET", ts.URL+"/v1/collections/d/classes", nil, &snap); code != http.StatusOK {
		t.Fatalf("stale read while degraded: %d, want 200", code)
	}
	if code := call(t, client, "GET", ts.URL+"/v1/collections/d/classes?fresh=1", nil, &snap); code != http.StatusOK {
		t.Fatalf("fresh read while degraded: %d, want 200 (stale fallback)", code)
	}

	// Liveness stays up; readiness reports the degraded collection.
	if code := call(t, client, "GET", ts.URL+"/healthz/live", nil, nil); code != http.StatusOK {
		t.Fatalf("liveness while degraded: %d, want 200", code)
	}
	req, _ = http.NewRequest("GET", ts.URL+"/healthz/ready", nil)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	ready, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readiness while degraded: %d, want 503", resp.StatusCode)
	}
	for _, want := range []string{`"status":"degraded"`, `"key":"d"`, `"breaker":"open"`} {
		if !strings.Contains(string(ready), want) {
			t.Errorf("readiness body missing %s:\n%s", want, ready)
		}
	}

	// Metrics expose the degraded gauge and the breaker trip.
	resp, err = client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`ecsort_collection_degraded{collection="d"} 1`,
		`ecsort_oracle_breaker_trips_total{collection="d"} 1`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Repair skips the collection instead of hammering the dead oracle.
	if rep := svc.RepairSweep(); rep.SkippedDegraded != 1 {
		t.Errorf("repair sweep on a degraded collection: %+v, want SkippedDegraded 1", rep)
	}

	// The collection's stats name the breaker state.
	info, err := svc.CollectionStats("d")
	if err != nil {
		t.Fatal(err)
	}
	if info.Breaker != "open" || info.RetryAfterSeconds <= 0 {
		t.Errorf("degraded stats = breaker %q, retry-after %v", info.Breaker, info.RetryAfterSeconds)
	}
}

// TestHealthzSplit pins the healthy case of the liveness/readiness
// split: both probes answer 200, and the legacy /healthz stays alive.
func TestHealthzSplit(t *testing.T) {
	svc := New(Config{Shards: 1, Workers: 1})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()
	for _, path := range []string{"/healthz", "/healthz/live"} {
		if code := call(t, client, "GET", ts.URL+path, nil, nil); code != http.StatusOK {
			t.Errorf("GET %s: %d, want 200", path, code)
		}
	}
	resp, err := client.Get(ts.URL + "/healthz/ready")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz/ready: %d, want 200", resp.StatusCode)
	}
	if !strings.Contains(string(body), `"status":"ready"`) {
		t.Errorf("readiness body missing ready status:\n%s", body)
	}
}
