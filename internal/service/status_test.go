package service

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"ecsort/internal/core"
)

// TestStatusOf pins the one error → status table that the HTTP handler
// writes and a cluster node encodes on the wire: every sentinel, the
// typed degraded and relayed-remote errors, wrapped forms, and the 500
// fallback. writeError must answer the same status, carry Retry-After
// exactly when StatusOf returns a retry-after, and write the error text
// as a compact JSON envelope.
func TestStatusOf(t *testing.T) {
	cases := []struct {
		name       string
		err        error
		status     int
		retryAfter time.Duration
	}{
		{"not found", fmt.Errorf("%w: %q", ErrNotFound, "k"), 404, 0},
		{"exists", fmt.Errorf("%w: %q", ErrExists, "k"), 409, 0},
		{"bad item", fmt.Errorf("%w: element 9 out of range [0,4)", ErrBadItem), 400, 0},
		{"bad spec", fmt.Errorf("%w: empty collection key", ErrBadSpec), 400, 0},
		{"const-round failed", fmt.Errorf("fold: %w", core.ErrConstRoundFailed), 409, 0},
		{"adaptive exhausted", core.ErrAdaptiveExhausted, 409, 0},
		{"closed", ErrClosed, 503, 0},
		// A coordinator call whose client went away and a fold aborted
		// by Close answer alike.
		{"canceled", context.Canceled, 503, 0},
		{"degraded", &DegradedError{Key: "k", RetryAfter: 1500 * time.Millisecond}, 503, 1500 * time.Millisecond},
		{"wrapped degraded", fmt.Errorf("fold: %w", &DegradedError{Key: "k", RetryAfter: time.Second}), 503, time.Second},
		{"remote", &RemoteError{Status: 409, Msg: "service: collection already exists: \"k\""}, 409, 0},
		{"remote with retry", &RemoteError{Status: 503, Msg: "busy", RetryAfter: 2 * time.Second}, 503, 2 * time.Second},
		{"deadline", context.DeadlineExceeded, 500, 0},
		{"unknown", errors.New("boom"), 500, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, ra := StatusOf(c.err)
			if status != c.status || ra != c.retryAfter {
				t.Fatalf("StatusOf(%v) = %d, %v; want %d, %v", c.err, status, ra, c.status, c.retryAfter)
			}
			rec := httptest.NewRecorder()
			writeError(rec, c.err)
			if rec.Code != c.status {
				t.Errorf("writeError status %d, want %d", rec.Code, c.status)
			}
			if got := rec.Header().Get("Retry-After") != ""; got != (c.retryAfter > 0) {
				t.Errorf("Retry-After present = %v, want %v", got, c.retryAfter > 0)
			}
			want := fmt.Sprintf("{\"error\":%q}\n", c.err.Error())
			if rec.Body.String() != want {
				t.Errorf("body %q, want %q", rec.Body.String(), want)
			}
		})
	}
}

// TestRetryAfterCeiling pins how a retry-after becomes the header's
// whole seconds: rounded up, so no sub-second wait reads as 0.
func TestRetryAfterCeiling(t *testing.T) {
	for _, c := range []struct {
		d    time.Duration
		want string
	}{
		{time.Nanosecond, "1"},
		{time.Second, "1"},
		{1200 * time.Millisecond, "2"},
		{time.Minute, "60"},
	} {
		rec := httptest.NewRecorder()
		writeError(rec, &DegradedError{Key: "k", RetryAfter: c.d})
		if got := rec.Header().Get("Retry-After"); got != c.want {
			t.Errorf("retry-after %v: header %q, want %q", c.d, got, c.want)
		}
	}
}
