package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"ecsort/internal/service"
)

// testLogf silences node logs under test while still exercising them.
func testLogf(t *testing.T) func(string, ...any) {
	return func(format string, args ...any) { t.Logf(format, args...) }
}

// newChanCluster assembles a coordinator over n in-process nodes.
func newChanCluster(t *testing.T, n int, cfg Config, svcCfg service.Config) (*Coordinator, []*service.Service) {
	t.Helper()
	svcs := make([]*service.Service, n)
	backends := make([]Backend, n)
	for i := range svcs {
		svcs[i] = service.New(svcCfg)
		node := NewNode(svcs[i])
		node.SetLogger(testLogf(t))
		backends[i] = Backend{Name: fmt.Sprintf("node-%d", i), Transport: NewChanTransport(node)}
	}
	co, err := New(cfg, backends)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		co.Close()
		for _, s := range svcs {
			s.Close()
		}
	})
	return co, svcs
}

// newTCPCluster assembles a coordinator over n nodes listening on
// loopback TCP.
func newTCPCluster(t *testing.T, n int, cfg Config, svcCfg service.Config) (*Coordinator, []*service.Service, []*Node) {
	t.Helper()
	svcs := make([]*service.Service, n)
	nodes := make([]*Node, n)
	backends := make([]Backend, n)
	for i := range svcs {
		svcs[i] = service.New(svcCfg)
		nodes[i] = NewNode(svcs[i])
		nodes[i].SetLogger(testLogf(t))
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		go nodes[i].ServeTCP(l)
		t.Cleanup(func() { l.Close() })
		backends[i] = Backend{Name: fmt.Sprintf("node-%d", i), Transport: NewTCPTransport(l.Addr().String())}
	}
	co, err := New(cfg, backends)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		co.Close()
		for _, s := range svcs {
			s.Close()
		}
	})
	return co, svcs, nodes
}

// workload is the fixed-seed multi-collection drive used by the
// bit-identity tests: every collection gets zeta-ish skewed labels and
// its items arrive shuffled in uneven batches.
type workload struct {
	keys   []string
	labels map[string][]int
	order  map[string][]int
}

func makeWorkload(seed int64, collections, n int) workload {
	rng := rand.New(rand.NewSource(seed))
	w := workload{labels: make(map[string][]int), order: make(map[string][]int)}
	for c := 0; c < collections; c++ {
		key := fmt.Sprintf("col-%d", c)
		labels := make([]int, n)
		for i := range labels {
			// Skewed: label 0 claims roughly half the universe, the rest
			// spread over a handful of classes.
			if rng.Intn(2) == 0 {
				labels[i] = 0
			} else {
				labels[i] = 1 + rng.Intn(5)
			}
		}
		order := rng.Perm(n)
		w.keys = append(w.keys, key)
		w.labels[key] = labels
		w.order[key] = order
	}
	return w
}

// clusterAPI is the slice of the coordinator/service surface the
// equivalence tests drive, so one driver serves both.
type clusterAPI interface {
	CreateCollection(ctx context.Context, key string, spec service.OracleSpec) (service.CollectionInfo, error)
	Ingest(ctx context.Context, key string, items []int, flush bool) (service.IngestResult, error)
	Classes(ctx context.Context, key string, fresh bool) (*service.Snapshot, error)
	DeleteItem(ctx context.Context, key string, element int) (service.ChurnResult, error)
	InvalidateClass(ctx context.Context, key string, class int, flush bool) (service.ChurnResult, error)
	Stats(ctx context.Context, key string) (service.CollectionInfo, error)
}

// localAPI adapts a plain single-binary service to clusterAPI — the
// control arm of the equivalence experiment.
type localAPI struct{ svc *service.Service }

func (l localAPI) CreateCollection(_ context.Context, key string, spec service.OracleSpec) (service.CollectionInfo, error) {
	if err := l.svc.CreateCollection(key, spec); err != nil {
		return service.CollectionInfo{}, err
	}
	return l.svc.CollectionStats(key)
}
func (l localAPI) Ingest(_ context.Context, key string, items []int, flush bool) (service.IngestResult, error) {
	return l.svc.Ingest(key, items, flush)
}
func (l localAPI) Classes(_ context.Context, key string, fresh bool) (*service.Snapshot, error) {
	return l.svc.Classes(key, fresh)
}
func (l localAPI) DeleteItem(_ context.Context, key string, element int) (service.ChurnResult, error) {
	return l.svc.DeleteItem(key, element)
}
func (l localAPI) InvalidateClass(_ context.Context, key string, class int, flush bool) (service.ChurnResult, error) {
	return l.svc.InvalidateClass(key, class, flush)
}
func (l localAPI) Stats(_ context.Context, key string) (service.CollectionInfo, error) {
	return l.svc.CollectionStats(key)
}

// drive runs the deterministic workload against one API arm and returns
// each collection's final state: classes JSON + the deterministic stats
// counters, marshaled so arms compare bit-for-bit.
func drive(t *testing.T, api clusterAPI, w workload) map[string]string {
	t.Helper()
	ctx := context.Background()
	for _, key := range w.keys {
		spec := service.OracleSpec{Kind: service.KindLabel, Labels: w.labels[key]}
		if _, err := api.CreateCollection(ctx, key, spec); err != nil {
			t.Fatalf("create %s: %v", key, err)
		}
	}
	// Uneven deterministic batches, interleaved across collections so
	// routing is exercised mid-stream, then churn: one delete and one
	// invalidation per collection.
	for _, key := range w.keys {
		order := w.order[key]
		for len(order) > 0 {
			sz := 1 + len(order)%7
			if sz > len(order) {
				sz = len(order)
			}
			if _, err := api.Ingest(ctx, key, order[:sz], false); err != nil {
				t.Fatalf("ingest %s: %v", key, err)
			}
			order = order[sz:]
		}
		if _, err := api.Ingest(ctx, key, nil, true); err != nil {
			t.Fatalf("flush %s: %v", key, err)
		}
		if _, err := api.DeleteItem(ctx, key, w.order[key][0]); err != nil {
			t.Fatalf("delete %s: %v", key, err)
		}
		if _, err := api.InvalidateClass(ctx, key, 0, true); err != nil {
			t.Fatalf("invalidate %s: %v", key, err)
		}
	}
	out := make(map[string]string)
	for _, key := range w.keys {
		snap, err := api.Classes(ctx, key, false)
		if err != nil {
			t.Fatalf("classes %s: %v", key, err)
		}
		info, err := api.Stats(ctx, key)
		if err != nil {
			t.Fatalf("stats %s: %v", key, err)
		}
		state := struct {
			Classes  [][]int `json:"classes"`
			Version  int64   `json:"version"`
			Size     int     `json:"size"`
			Ingested int64   `json:"ingested"`
			Pending  int64   `json:"pending"`
			Batches  int64   `json:"batches"`
			Flushes  int64   `json:"flushes"`
			NClasses int     `json:"n_classes"`
			Deleted  int64   `json:"deleted"`
			Invalid  int64   `json:"invalidated"`
		}{snap.Classes, snap.Version, snap.Size, info.Ingested, info.Pending,
			info.Batches, info.Flushes, info.Classes, info.Deleted, info.Invalidated}
		b, err := json.Marshal(state)
		if err != nil {
			t.Fatal(err)
		}
		out[key] = string(b)
	}
	return out
}

// TestTransportEquivalence is the transport-independence acceptance
// check: the same fixed-seed workload produces bit-identical classes and
// stats through a ChanTransport cluster, a TCPTransport cluster, and a
// plain single-binary service. The transports must be invisible.
func TestTransportEquivalence(t *testing.T) {
	const seed, collections, n = 42, 6, 90
	svcCfg := service.Config{Shards: 2, BatchSize: 16}

	control := service.New(svcCfg)
	defer control.Close()
	want := drive(t, localAPI{control}, makeWorkload(seed, collections, n))

	chanCo, _ := newChanCluster(t, 3, Config{}, svcCfg)
	gotChan := drive(t, chanCo, makeWorkload(seed, collections, n))

	tcpCo, _, _ := newTCPCluster(t, 3, Config{}, svcCfg)
	gotTCP := drive(t, tcpCo, makeWorkload(seed, collections, n))

	for _, key := range []string{"col-0", "col-1", "col-2", "col-3", "col-4", "col-5"} {
		if gotChan[key] != want[key] {
			t.Errorf("chan cluster diverged from single-node control on %s:\n  cluster: %s\n  control: %s",
				key, gotChan[key], want[key])
		}
		if gotTCP[key] != want[key] {
			t.Errorf("tcp cluster diverged from single-node control on %s:\n  cluster: %s\n  control: %s",
				key, gotTCP[key], want[key])
		}
	}
}

// TestClusterSpread checks collections actually land on more than one
// node — the coordinator is a router, not a proxy to node zero.
func TestClusterSpread(t *testing.T) {
	co, svcs := newChanCluster(t, 3, Config{}, service.Config{Shards: 1})
	ctx := context.Background()
	for i := 0; i < 12; i++ {
		key := fmt.Sprintf("spread-%d", i)
		if _, err := co.CreateCollection(ctx, key, service.OracleSpec{Kind: service.KindLabel, Labels: []int{0, 1}}); err != nil {
			t.Fatalf("create %s: %v", key, err)
		}
	}
	occupied := 0
	for _, s := range svcs {
		if len(s.Collections()) > 0 {
			occupied++
		}
	}
	if occupied < 2 {
		t.Fatalf("12 collections all landed on one node; want spread across >= 2 of 3")
	}
	if got := len(co.List(ctx)); got != 12 {
		t.Fatalf("List: got %d collections, want 12", got)
	}
}

// TestNodeDownRouting is the degraded-fleet acceptance check: killing
// one node 503s ONLY its collections (with Retry-After), everything on
// the surviving nodes keeps serving, and health reports the loss.
func TestNodeDownRouting(t *testing.T) {
	co, svcs := newChanCluster(t, 2, Config{DownCooldown: 50 * time.Millisecond}, service.Config{Shards: 1})
	ctx := context.Background()

	// Find one key per node so both sides of the partition are covered.
	keyOn := map[int]string{}
	for i := 0; len(keyOn) < 2; i++ {
		key := fmt.Sprintf("k-%d", i)
		keyOn[hashSlot(key, 2)] = key
	}
	for _, key := range keyOn {
		if _, err := co.CreateCollection(ctx, key, service.OracleSpec{Kind: service.KindLabel, Labels: []int{0, 0, 1, 1, 1}}); err != nil {
			t.Fatalf("create %s: %v", key, err)
		}
		if _, err := co.Ingest(ctx, key, []int{0, 1, 2}, true); err != nil {
			t.Fatalf("ingest %s: %v", key, err)
		}
	}

	// Kill node 1: close its transport. Calls now fail at the exchange.
	co.nodes[1].t.Close()

	if _, err := co.Ingest(ctx, keyOn[1], []int{0}, true); err == nil {
		t.Fatal("ingest to dead node succeeded")
	} else {
		var de *service.DegradedError
		if !errors.As(err, &de) {
			t.Fatalf("dead-node error: got %v (%T), want DegradedError", err, err)
		}
		if de.RetryAfter <= 0 {
			t.Fatalf("dead-node DegradedError carries no Retry-After: %v", err)
		}
	}
	// Second call hits the down-cooldown short-circuit, no transport use.
	if _, err := co.Ingest(ctx, keyOn[1], []int{0}, true); err == nil {
		t.Fatal("ingest during down cooldown succeeded")
	}

	// The surviving node is untouched: reads AND writes still serve.
	if _, err := co.Ingest(ctx, keyOn[0], []int{3, 4}, true); err != nil {
		t.Fatalf("surviving node rejected a write: %v", err)
	}
	snap, err := co.Classes(ctx, keyOn[0], false)
	if err != nil {
		t.Fatalf("surviving node rejected a read: %v", err)
	}
	if snap.Size == 0 {
		t.Fatal("surviving node returned an empty snapshot")
	}

	// Health names the dead node and keeps the live one up.
	states := co.Health(ctx)
	if states[0].Up != true || states[1].Up != false {
		t.Fatalf("health: got up=[%v %v], want [true false]", states[0].Up, states[1].Up)
	}
	if states[1].Collections != 1 {
		t.Fatalf("dead node should still show its 1 routed collection, got %d", states[1].Collections)
	}

	// Listing still includes the dead node's key as a placeholder.
	keys := map[string]bool{}
	for _, info := range co.List(ctx) {
		keys[info.Key] = true
	}
	if !keys[keyOn[0]] || !keys[keyOn[1]] {
		t.Fatalf("List dropped a key during partial outage: %v", keys)
	}

	_ = svcs
}

// TestDiscovery: nodes that already own collections (durable restarts)
// are routed to, and duplicate ownership fails loudly instead of
// splitting a collection's history.
func TestDiscovery(t *testing.T) {
	svcA, svcB := service.New(service.Config{Shards: 1}), service.New(service.Config{Shards: 1})
	defer svcA.Close()
	defer svcB.Close()
	spec := service.OracleSpec{Kind: service.KindLabel, Labels: []int{0, 1, 1}}
	if err := svcA.CreateCollection("alpha", spec); err != nil {
		t.Fatal(err)
	}
	if err := svcB.CreateCollection("beta", spec); err != nil {
		t.Fatal(err)
	}

	co, err := New(Config{}, []Backend{
		{Name: "a", Transport: NewChanTransport(NewNode(svcA))},
		{Name: "b", Transport: NewChanTransport(NewNode(svcB))},
	})
	if err != nil {
		t.Fatalf("New with pre-owned collections: %v", err)
	}
	defer co.Close()
	ctx := context.Background()
	for _, key := range []string{"alpha", "beta"} {
		if _, err := co.Ingest(ctx, key, []int{0, 1, 2}, true); err != nil {
			t.Fatalf("ingest discovered collection %s: %v", key, err)
		}
	}
	// Typed service errors cross the wire as *service.RemoteError
	// carrying the node's status mapping (only DegradedError is
	// reconstructed).
	var re *service.RemoteError
	if _, err := co.CreateCollection(ctx, "alpha", spec); !errors.As(err, &re) || re.Status != 409 {
		t.Fatalf("re-create discovered collection: got %v, want RemoteError 409", err)
	}

	// Duplicate ownership across nodes is a deployment error.
	if err := svcB.CreateCollection("alpha", spec); err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{}, []Backend{
		{Name: "a", Transport: NewChanTransport(NewNode(svcA))},
		{Name: "b", Transport: NewChanTransport(NewNode(svcB))},
	})
	if err == nil {
		t.Fatal("New accepted a collection owned by two nodes")
	}
}

// TestRemoteErrorsKeepNodeUp: a service-level failure (404, 409, 400)
// crossing the wire must NOT mark the node down — only transport
// failures degrade.
func TestRemoteErrorsKeepNodeUp(t *testing.T) {
	co, _ := newChanCluster(t, 1, Config{}, service.Config{Shards: 1})
	ctx := context.Background()
	spec := service.OracleSpec{Kind: service.KindLabel, Labels: []int{0, 1}}
	if _, err := co.CreateCollection(ctx, "x", spec); err != nil {
		t.Fatal(err)
	}
	var re *service.RemoteError
	if _, err := co.CreateCollection(ctx, "x", spec); !errors.As(err, &re) || re.Status != 409 {
		t.Fatalf("duplicate create: got %v, want RemoteError 409", err)
	}
	_, err := co.Ingest(ctx, "x", []int{99}, false) // out of universe
	if !errors.As(err, &re) || re.Status != 400 {
		t.Fatalf("bad item: got %v, want RemoteError status 400", err)
	}
	if _, err := co.Stats(ctx, "ghost"); !errors.Is(err, service.ErrNotFound) {
		t.Fatalf("unknown key: got %v, want ErrNotFound (local route miss)", err)
	}
	if st := co.Health(ctx); !st[0].Up {
		t.Fatalf("service errors marked the node down: %+v", st[0])
	}
}

// TestClusterResilienceOps drives the degraded-collection path through
// the cluster: a faulty collection trips its breaker on one node, the
// coordinator relays 503 + Retry-After as a typed DegradedError, and a
// PATCH-equivalent UpdateResilience crosses the wire.
func TestClusterResilienceOps(t *testing.T) {
	co, _ := newChanCluster(t, 2, Config{}, service.Config{Shards: 1})
	ctx := context.Background()
	spec := service.OracleSpec{
		Kind:   service.KindLabel,
		Labels: []int{0, 0, 1, 1},
		Resilience: &service.ResilienceSpec{
			TimeoutMs: 200, Retries: 1, BackoffMs: 1, MaxBackoffMs: 1,
		},
	}
	if _, err := co.CreateCollection(ctx, "tuned", spec); err != nil {
		t.Fatal(err)
	}
	if _, err := co.Ingest(ctx, "tuned", []int{0, 1, 2, 3}, true); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	update := service.ResilienceSpec{TimeoutMs: 500, Retries: 3, BackoffMs: 2, MaxBackoffMs: 20}
	if err := co.UpdateResilience(ctx, "tuned", update); err != nil {
		t.Fatalf("UpdateResilience over the wire: %v", err)
	}
	info, err := co.Stats(ctx, "tuned")
	if err != nil {
		t.Fatal(err)
	}
	if info.Breaker != "closed" {
		t.Fatalf("breaker: got %q, want closed", info.Breaker)
	}
	// Retuning a plain collection is rejected with the node's 400.
	if _, err := co.CreateCollection(ctx, "plain", service.OracleSpec{Kind: service.KindLabel, Labels: []int{0, 1}}); err != nil {
		t.Fatal(err)
	}
	err = co.UpdateResilience(ctx, "plain", update)
	var re *service.RemoteError
	if !errors.As(err, &re) || re.Status != 400 {
		t.Fatalf("retune plain collection: got %v, want RemoteError 400", err)
	}
}

// TestWireCodec pins the request/response byte format.
func TestWireCodec(t *testing.T) {
	req := encodeRequest(nil, opIngest, "key-1", []byte(`{"items":[1]}`))
	o, key, body, err := decodeRequest(req)
	if err != nil || o != opIngest || key != "key-1" || string(body) != `{"items":[1]}` {
		t.Fatalf("round trip: op=%d key=%q body=%q err=%v", o, key, body, err)
	}
	if _, _, _, err := decodeRequest([]byte{}); err == nil {
		t.Fatal("empty request decoded")
	}
	if _, _, _, err := decodeRequest([]byte{99, 0}); err == nil {
		t.Fatal("unknown op decoded")
	}
	if _, _, _, err := decodeRequest([]byte{byte(opList), 200}); err == nil {
		t.Fatal("key length past payload decoded")
	}

	if body, err := decodeResponse(encodeOK(nil, []byte("hi"))); err != nil || string(body) != "hi" {
		t.Fatalf("ok response: %q %v", body, err)
	}
	_, err = decodeResponse(encodeErr(nil, 503, 1500*time.Millisecond, "degraded"))
	var re *service.RemoteError
	if !errors.As(err, &re) || re.Status != 503 || re.RetryAfter != 1500*time.Millisecond || re.Msg != "degraded" {
		t.Fatalf("err response: %v", err)
	}
	if _, err := decodeResponse(nil); err == nil {
		t.Fatal("empty response decoded")
	}
	if _, err := decodeResponse([]byte{7}); err == nil {
		t.Fatal("unknown tag decoded")
	}
	bad := encodeErr(nil, 9999, 0, "x")
	if _, err := decodeResponse(bad); err == nil || errors.As(err, &re) && re.Status == 9999 {
		t.Fatal("impossible status accepted")
	}
}

// TestPlacementEstimator pins the weight model: skew raises a
// collection's score, and a heavy collection abandons its hash slot for
// the least-loaded node.
func TestPlacementEstimator(t *testing.T) {
	n := 1024
	uniform := make([]int, n)
	for i := range uniform {
		uniform[i] = i % 64
	}
	skewed := make([]int, n) // all one class: maximal skew
	wUniform := estimateWeight(&service.OracleSpec{Kind: service.KindLabel, Labels: uniform})
	wSkewed := estimateWeight(&service.OracleSpec{Kind: service.KindLabel, Labels: skewed})
	if wSkewed <= wUniform {
		t.Fatalf("skewed weight %v not above uniform %v", wSkewed, wUniform)
	}
	if wSkewed != float64(n)*1.5 {
		t.Fatalf("single-class weight: got %v, want %v", wSkewed, float64(n)*1.5)
	}
	if w := estimateWeight(&service.OracleSpec{}); w != 0 {
		t.Fatalf("empty spec weight: got %v, want 0", w)
	}

	// place: loads [100, 10, 100] and a heavy weight → node 1, counted.
	co := &Coordinator{
		nodes:       []*nodeClient{{name: "a"}, {name: "b"}, {name: "c"}},
		heavyFactor: 2.0,
		load:        []float64{100, 10, 100},
		routes:      map[string]route{},
	}
	if got := co.place("whatever", 1000); got != 1 {
		t.Fatalf("heavy placement: got node %d, want 1 (least loaded)", got)
	}
	if co.HeavyPlacements() != 1 {
		t.Fatalf("heavy placement not counted")
	}
	// A light collection sticks to its hash slot regardless of load.
	for _, key := range []string{"a", "b", "c", "d"} {
		if got, want := co.place(key, 1), hashSlot(key, 3); got != want {
			t.Fatalf("light placement of %q: got %d, want hash slot %d", key, got, want)
		}
	}
	// Empty cluster: hash slot even for heavy specs.
	co.load = []float64{0, 0, 0}
	if got, want := co.place("x", 1e9), hashSlot("x", 3); got != want {
		t.Fatalf("empty-cluster placement: got %d, want hash slot %d", got, want)
	}
}

// TestHeavyPlacementEndToEnd: after uniform collections build baseline
// load, a giant skewed collection is steered to the least-loaded node.
func TestHeavyPlacementEndToEnd(t *testing.T) {
	co, svcs := newChanCluster(t, 2, Config{}, service.Config{Shards: 1})
	ctx := context.Background()
	small := make([]int, 32)
	for i := range small {
		small[i] = i
	}
	for i := 0; i < 6; i++ {
		key := fmt.Sprintf("light-%d", i)
		if _, err := co.CreateCollection(ctx, key, service.OracleSpec{Kind: service.KindLabel, Labels: small}); err != nil {
			t.Fatal(err)
		}
	}
	before := [2]int{len(svcs[0].Collections()), len(svcs[1].Collections())}
	argmin := 0
	if before[1] < before[0] {
		argmin = 1
	}
	giant := make([]int, 100_000) // one class, 100k universe: unmistakably heavy
	if _, err := co.CreateCollection(ctx, "giant", service.OracleSpec{Kind: service.KindLabel, Labels: giant}); err != nil {
		t.Fatal(err)
	}
	if co.HeavyPlacements() == 0 {
		t.Fatal("giant skewed collection was not heavy-placed")
	}
	found := false
	for _, info := range svcs[argmin].Collections() {
		if info.Key == "giant" {
			found = true
		}
	}
	if !found {
		t.Fatalf("giant not on least-loaded node %d (loads before: %v)", argmin, before)
	}
}

// TestShardownAnnotationsPresent pins the node-side ownership
// annotations: dropping one silently drops ecs-vet's static proof that
// the per-connection read buffer has a single owner goroutine.
func TestShardownAnnotationsPresent(t *testing.T) {
	data, err := os.ReadFile("tcp.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"buf []byte //ecsort:owned-by-shard",
		"//ecsort:shard-goroutine\nfunc (t *TCPTransport) Call(",
		"//ecsort:shard-goroutine\nfunc (n *Node) serveConn(",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("tcp.go lost its shardown annotation %q", want)
		}
	}
}

// TestListSorted pins the merged listing's order contract.
func TestListSorted(t *testing.T) {
	co, _ := newChanCluster(t, 3, Config{}, service.Config{Shards: 1})
	ctx := context.Background()
	for _, key := range []string{"zeta", "alpha", "mid"} {
		if _, err := co.CreateCollection(ctx, key, service.OracleSpec{Kind: service.KindLabel, Labels: []int{0}}); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for _, info := range co.List(ctx) {
		got = append(got, info.Key)
	}
	if want := []string{"alpha", "mid", "zeta"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("List order: got %v, want %v", got, want)
	}
}

// TestEstimateWeightKindMismatch: the estimator sizes its sampling loop
// by OracleSpec.N(), which is keyed off Kind — so the sampled field must
// be selected by Kind too. A spec carrying a stray second identity field
// (valid to the node, which also picks by Kind) used to index the wrong
// field out of range.
func TestEstimateWeightKindMismatch(t *testing.T) {
	states := make([]uint64, 100)
	for i := range states {
		states[i] = uint64(i % 7)
	}
	// Kind says fault (N = len(States) = 100) but a short Labels field
	// rides along: sampling must stay inside States.
	spec := &service.OracleSpec{Kind: service.KindFault, States: states, Labels: []int{7}}
	if w := estimateWeight(spec); w <= 0 {
		t.Fatalf("fault spec with stray labels: weight %v, want > 0", w)
	}
	// Kind selects a field that is empty: N() is 0, weight 0, no panic.
	if w := estimateWeight(&service.OracleSpec{Kind: service.KindGraphIso, Labels: []int{1, 2, 3}}); w != 0 {
		t.Fatalf("graph-iso spec without graphs: weight %v, want 0", w)
	}
}

// TestMismatchedSpecCreateDoesNotWedge drives the same shape end to end:
// the old estimator panicked while CreateCollection held the route lock,
// wedging every later coordinator request.
func TestMismatchedSpecCreateDoesNotWedge(t *testing.T) {
	co, _ := newChanCluster(t, 2, Config{}, service.Config{Shards: 1})
	ctx := context.Background()
	states := make([]uint64, 100)
	mixed := service.OracleSpec{Kind: service.KindFault, States: states, Labels: []int{7}}
	if _, err := co.CreateCollection(ctx, "mixed", mixed); err != nil {
		t.Fatalf("create with stray second field: %v", err)
	}
	if _, err := co.Ingest(ctx, "mixed", []int{0, 1, 99}, true); err != nil {
		t.Fatalf("ingest after mixed create: %v", err)
	}
	if _, err := co.CreateCollection(ctx, "after", service.OracleSpec{Kind: service.KindLabel, Labels: []int{0, 1}}); err != nil {
		t.Fatalf("coordinator wedged after mixed create: %v", err)
	}
}

// TestNegativeHeavyFactorDisables pins the documented Config contract:
// a negative HeavyFactor means pure hash placement, never least-loaded.
func TestNegativeHeavyFactorDisables(t *testing.T) {
	co := &Coordinator{
		nodes:       []*nodeClient{{name: "a"}, {name: "b"}, {name: "c"}},
		heavyFactor: -1,
		load:        []float64{100, 10, 100},
		routes:      map[string]route{},
	}
	for _, key := range []string{"a", "b", "c", "heavy"} {
		if got, want := co.place(key, 1e12), hashSlot(key, 3); got != want {
			t.Fatalf("disabled heavy placement of %q: got %d, want hash slot %d", key, got, want)
		}
	}
	if co.HeavyPlacements() != 0 {
		t.Fatalf("heavy placements counted while disabled: %d", co.HeavyPlacements())
	}
}

// ctxErrTransport surfaces caller-context failures the way both real
// transports do: as a transport-level error wrapping ctx.Err().
type ctxErrTransport struct{ inner Transport }

func (t *ctxErrTransport) Call(ctx context.Context, req []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("cluster: test transport: %w", err)
	}
	return t.inner.Call(ctx, req)
}

func (t *ctxErrTransport) Close() error { return t.inner.Close() }

// TestCallerCtxErrorKeepsNodeUp: a canceled caller context must surface
// as the context error, not mark the node down — one impatient client
// must not 503 the node's collections for everyone else.
func TestCallerCtxErrorKeepsNodeUp(t *testing.T) {
	svc := service.New(service.Config{Shards: 1})
	defer svc.Close()
	node := NewNode(svc)
	node.SetLogger(testLogf(t))
	co, err := New(Config{}, []Backend{{Name: "n", Transport: &ctxErrTransport{inner: NewChanTransport(node)}}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer co.Close()
	ctx := context.Background()
	if _, err := co.CreateCollection(ctx, "x", service.OracleSpec{Kind: service.KindLabel, Labels: []int{0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	_, err = co.Ingest(canceled, "x", []int{0}, false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ingest: got %v, want context.Canceled", err)
	}
	var de *service.DegradedError
	if errors.As(err, &de) {
		t.Fatalf("caller cancellation misreported as degraded: %v", err)
	}
	// No cooldown: the very next call must reach the node.
	if _, err := co.Ingest(ctx, "x", []int{0, 1, 2}, true); err != nil {
		t.Fatalf("node marked down by caller cancellation: %v", err)
	}
	if st := co.Health(ctx); !st[0].Up {
		t.Fatalf("health down after caller cancellation: %+v", st[0])
	}
}

// TestCreateRollbackOnFailure: a create the node rejects must free its
// reserved route so the key can be created again.
func TestCreateRollbackOnFailure(t *testing.T) {
	co, _ := newChanCluster(t, 2, Config{}, service.Config{Shards: 1})
	ctx := context.Background()
	// Kind fault with no states: N() = 0, node rejects with 400.
	if _, err := co.CreateCollection(ctx, "k", service.OracleSpec{Kind: service.KindFault}); err == nil {
		t.Fatal("empty-universe spec accepted")
	}
	if _, err := co.Stats(ctx, "k"); !errors.Is(err, service.ErrNotFound) {
		t.Fatalf("failed create left a route behind: %v", err)
	}
	// The key is placeable again with a corrected spec.
	if _, err := co.CreateCollection(ctx, "k", service.OracleSpec{Kind: service.KindFault, States: []uint64{1, 2, 2}}); err != nil {
		t.Fatalf("re-create after rollback: %v", err)
	}
	if _, err := co.Ingest(ctx, "k", []int{0, 1, 2}, true); err != nil {
		t.Fatalf("ingest after re-create: %v", err)
	}
}

// TestConcurrentCreateSingleOwner: concurrent creates of one key must
// converge on a single node — the route is reserved before the remote
// create, so latecomers forward to the same owner (and get its 409)
// instead of re-running placement against shifted load.
func TestConcurrentCreateSingleOwner(t *testing.T) {
	co, svcs := newChanCluster(t, 2, Config{}, service.Config{Shards: 1})
	ctx := context.Background()
	labels := make([]int, 50_000) // heavy enough to trigger least-loaded placement
	const racers = 8
	errs := make(chan error, racers)
	for i := 0; i < racers; i++ {
		go func() {
			_, err := co.CreateCollection(ctx, "raced", service.OracleSpec{Kind: service.KindLabel, Labels: labels})
			errs <- err
		}()
	}
	okCount := 0
	for i := 0; i < racers; i++ {
		if err := <-errs; err == nil {
			okCount++
		} else {
			var re *service.RemoteError
			if !errors.As(err, &re) || re.Status != 409 {
				t.Fatalf("raced create: got %v, want nil or RemoteError 409", err)
			}
		}
	}
	if okCount != 1 {
		t.Fatalf("raced create succeeded %d times, want exactly 1", okCount)
	}
	owners := 0
	for i, svc := range svcs {
		for _, info := range svc.Collections() {
			if info.Key == "raced" {
				owners++
				if node, err := co.owner("raced"); err != nil || node != i {
					t.Fatalf("route (node %d, err %v) disagrees with owner node %d", node, err, i)
				}
			}
		}
	}
	if owners != 1 {
		t.Fatalf("collection exists on %d nodes, want exactly 1", owners)
	}
}
