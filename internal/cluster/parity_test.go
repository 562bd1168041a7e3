package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"ecsort/internal/core"
	"ecsort/internal/service"
)

// parityStep is one request of the role-parity table, with the status
// both roles must answer.
type parityStep struct {
	method, path, body string
	want               int
}

// parityTable drives every collection route, in order, through the
// success paths and the error paths whose handling used to differ
// between a node and a coordinator: body decoding (field-name case,
// floats, overflow, empty bodies, unknown fields), path parsing,
// range checks relayed from the owning node, missing keys, and
// degraded rejections.
var parityTable = []parityStep{
	{"PUT", "/v1/collections/p", `{"kind":"label","labels":[0,0,1,1,2,2,0,1]}`, 201},
	{"PUT", "/v1/collections/p", `{"kind":"label","labels":[0,0,1,1,2,2,0,1]}`, 409},
	{"PUT", "/v1/collections/q", `{"kind":"label","labels":[0],"bogus":1}`, 400},
	{"PUT", "/v1/collections/q", ``, 400},
	{"PUT", "/v1/collections/q", `{"kind":"nope"}`, 400},
	{"POST", "/v1/collections/p/items", `{"Items":[3]}`, 400},
	{"POST", "/v1/collections/p/items", `{"items":[1.5]}`, 400},
	{"POST", "/v1/collections/p/items", `{"items":[99999999999999999999]}`, 400},
	{"POST", "/v1/collections/p/items", ``, 400},
	{"POST", "/v1/collections/p/items", `{"items":[8]}`, 400},
	{"POST", "/v1/collections/ghost/items", `{"items":[0]}`, 404},
	{"POST", "/v1/collections/p/items", `{"items":[0,1,2,3,4,5]}`, 202},
	{"POST", "/v1/collections/p/items?flush=1", `{"items":[6,7]}`, 202},
	{"GET", "/v1/collections/p/classes", ``, 200},
	{"GET", "/v1/collections/p/classes?fresh=1", ``, 200},
	{"GET", "/v1/collections/ghost/classes", ``, 404},
	{"GET", "/v1/collections/p/classes/3", ``, 200},
	{"GET", "/v1/collections/p/classes/xyz", ``, 400},
	{"GET", "/v1/collections/p/classes/99", ``, 400},
	{"GET", "/v1/collections/ghost/classes/0", ``, 404},
	{"DELETE", "/v1/collections/p/items/5", ``, 200},
	{"DELETE", "/v1/collections/p/items/5", ``, 404},
	{"DELETE", "/v1/collections/p/items/abc", ``, 400},
	{"DELETE", "/v1/collections/p/items/99", ``, 400},
	{"POST", "/v1/collections/p/classes/0/invalidate?flush=1", ``, 202},
	{"POST", "/v1/collections/p/classes/x/invalidate", ``, 400},
	{"POST", "/v1/collections/p/classes/99/invalidate", ``, 404},
	{"GET", "/v1/collections/p/stats", ``, 200},
	{"GET", "/v1/collections/ghost/stats", ``, 404},
	{"GET", "/v1/collections", ``, 200},
	{"GET", "/v1/algorithms", ``, 200},
	{"PATCH", "/v1/collections/p/resilience", `{"retries":2}`, 400},
	{"PATCH", "/v1/collections/p/resilience", `{"retriez":2}`, 400},
	{"PATCH", "/v1/collections/ghost/resilience", `{"retries":2}`, 404},
	{"DELETE", "/v1/collections/ghost", ``, 404},
	{"DELETE", "/v1/collections/p", ``, 204},
	{"GET", "/v1/collections/p/stats", ``, 404},
	// A collection whose oracle always fails: the first fold trips its
	// breaker, and writes are then refused with 503 + Retry-After.
	{"PUT", "/v1/collections/d", `{"kind":"label","labels":[0,1,0,1],"faults":{"fail_rate":1},` +
		`"resilience":{"retries":0,"breaker_threshold":1,"breaker_cooldown_ms":600000}}`, 201},
	{"POST", "/v1/collections/d/items?flush=1", `{"items":[0,1,2,3]}`, 503},
	{"POST", "/v1/collections/d/items", `{"items":[0]}`, 503},
	{"DELETE", "/v1/collections/d/items/0", ``, 503},
	{"POST", "/v1/collections/d/classes/0/invalidate", ``, 503},
	{"GET", "/v1/collections/d/classes", ``, 200},
	{"PATCH", "/v1/collections/d/resilience", `{"breaker_threshold":5}`, 200},
}

// retryIn masks the remaining cooldown that degraded messages carry:
// it shrinks between the two requests of a step.
var retryIn = regexp.MustCompile(`retry after [0-9.a-zµ]+`)

type parityReply struct {
	status     int
	retryAfter bool
	body       string
}

func parityDo(t *testing.T, client *http.Client, base string, st parityStep) parityReply {
	t.Helper()
	var body io.Reader
	if st.body != "" {
		body = strings.NewReader(st.body)
	}
	req, err := http.NewRequest(st.method, base+st.path, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parityReply{
		status:     resp.StatusCode,
		retryAfter: resp.Header.Get("Retry-After") != "",
		body:       retryIn.ReplaceAllString(string(raw), "retry after _"),
	}
}

// TestRoleParity runs one request table through a single node's handler
// and through a coordinator's, over both transports: a client must not
// be able to tell the roles apart, so every collection route answers
// the same status, the same Retry-After presence and the same body.
// Health, readiness and metrics are role extras and stay out.
func TestRoleParity(t *testing.T) {
	svcCfg := service.Config{Shards: 2, BatchSize: 4, Workers: 1}
	for _, transport := range []string{"chan", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			single := service.New(svcCfg)
			t.Cleanup(single.Close)
			var co *Coordinator
			if transport == "chan" {
				co, _ = newChanCluster(t, 2, Config{}, svcCfg)
			} else {
				co, _, _ = newTCPCluster(t, 2, Config{}, svcCfg)
			}
			node := httptest.NewServer(single.Handler())
			defer node.Close()
			coord := httptest.NewServer(co.Handler())
			defer coord.Close()

			for _, st := range parityTable {
				a := parityDo(t, node.Client(), node.URL, st)
				b := parityDo(t, coord.Client(), coord.URL, st)
				step := st.method + " " + st.path + " " + st.body
				if a.status != st.want {
					t.Errorf("%s: node status %d, want %d (%s)", step, a.status, st.want, a.body)
				}
				if a != b {
					t.Errorf("%s: roles differ\n  node:        %d retry-after=%v %s  coordinator: %d retry-after=%v %s",
						step, a.status, a.retryAfter, a.body, b.status, b.retryAfter, b.body)
				}
			}
		})
	}
}

// staticTransport answers discovery with an empty listing and every
// other call with one canned response.
type staticTransport struct{ resp []byte }

func (s staticTransport) Call(_ context.Context, req []byte) ([]byte, error) {
	if op(req[0]) == opList {
		return encodeOK(nil, []byte("[]")), nil
	}
	return s.resp, nil
}

func (staticTransport) Close() error { return nil }

// failingAPI fails every Stats call with err; the rest of the API is
// never reached.
type failingAPI struct {
	service.API
	err error
}

func (f failingAPI) Stats(context.Context, string) (service.CollectionInfo, error) {
	return service.CollectionInfo{}, f.err
}

// TestNodeFailureStatusMatchesHTTP: for every error class, what a node
// encodes on the wire, relayed by a coordinator's HTTP layer, is the
// status, Retry-After and body the HTTP layer writes for the error
// itself.
func TestNodeFailureStatusMatchesHTTP(t *testing.T) {
	for _, err := range []error{
		fmt.Errorf("%w: %q", service.ErrNotFound, "k"),
		fmt.Errorf("%w: %q", service.ErrExists, "k"),
		fmt.Errorf("%w: element 9 out of range [0,4)", service.ErrBadItem),
		fmt.Errorf("%w: undecodable spec", service.ErrBadSpec),
		fmt.Errorf("fold: %w", core.ErrConstRoundFailed),
		core.ErrAdaptiveExhausted,
		service.ErrClosed,
		context.Canceled,
		&service.DegradedError{Key: "k", RetryAfter: 1200 * time.Millisecond},
		&service.RemoteError{Status: 409, Msg: "relayed twice"},
		errors.New("boom"),
	} {
		t.Run(err.Error(), func(t *testing.T) {
			direct := httptest.NewServer(service.NewHandler(failingAPI{err: err}))
			defer direct.Close()
			co, cerr := New(Config{}, []Backend{{Name: "n", Transport: staticTransport{encodeFailure(err)}}})
			if cerr != nil {
				t.Fatal(cerr)
			}
			co.routes["k"] = route{}
			relayed := httptest.NewServer(co.Handler())
			defer relayed.Close()

			st := parityStep{method: "GET", path: "/v1/collections/k/stats"}
			want := parityDo(t, direct.Client(), direct.URL, st)
			wantStatus, wantRA := service.StatusOf(err)
			if want.status != wantStatus || want.retryAfter != (wantRA > 0) {
				t.Fatalf("HTTP layer wrote %d retry-after=%v; StatusOf says %d, %v", want.status, want.retryAfter, wantStatus, wantRA)
			}
			if got := parityDo(t, relayed.Client(), relayed.URL, st); got != want {
				t.Errorf("node-encoded failure relayed as %+v, HTTP layer writes %+v", got, want)
			}
		})
	}
}
