package main

import (
	"testing"
	"time"
)

// TestOpenLoopChargesStallToQueuedOps: one stalled op must raise the
// measured latency of the ops due behind it, because latency is taken
// from each op's due time, not from when it was finally sent.
func TestOpenLoopChargesStallToQueuedOps(t *testing.T) {
	const (
		interval = 2 * time.Millisecond
		stall    = 60 * time.Millisecond
		ops      = 60
	)
	start := time.Now()
	p := openLoop(start, start.Add(ops*interval), interval)
	var fromDue, fromSend []float64
	for i := 0; ; i++ {
		from, ok := p.next()
		if !ok {
			break
		}
		send := time.Now()
		if i == 5 {
			time.Sleep(stall)
		}
		fromDue = append(fromDue, msSince(from))
		fromSend = append(fromSend, msSince(send))
	}
	if len(fromDue) < 7 {
		t.Fatalf("only %d ops ran", len(fromDue))
	}
	// Op 6 was due 2ms after the stalled op started and could not be
	// sent until it ended.
	if fromDue[6] < 40 {
		t.Errorf("op queued behind the stall measured %.2fms from due, want ≥ 40ms", fromDue[6])
	}
	if fromSend[6] > 20 {
		t.Errorf("op 6 itself took %.2fms from send; the test expects it to be quick", fromSend[6])
	}
	if p.queued.q(1) < 40 {
		t.Errorf("longest queued wait = %.2fms, want ≥ 40ms after a %v stall", p.queued.q(1), stall)
	}
}

// TestOpenLoopStopsAtPhaseEnd: ops a late generator still owes when the
// phase ends are not sent.
func TestOpenLoopStopsAtPhaseEnd(t *testing.T) {
	start := time.Now().Add(-time.Second)
	p := openLoop(start, time.Now(), time.Millisecond)
	if _, ok := p.next(); ok {
		t.Fatal("an op was sent after the phase ended")
	}
}

func TestClosedLoopRunsBackToBack(t *testing.T) {
	p := closedLoop(time.Now().Add(20 * time.Millisecond))
	n := 0
	for {
		from, ok := p.next()
		if !ok {
			break
		}
		if d := time.Since(from); d > 5*time.Millisecond {
			t.Fatalf("closed-loop op timed from %v ago", d)
		}
		n++
		time.Sleep(time.Millisecond)
	}
	if n < 5 {
		t.Errorf("%d closed-loop ops in 20ms of 1ms ops", n)
	}
}
