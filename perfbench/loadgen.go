package main

import "time"

// pacer hands one client goroutine its op start times for one phase.
//
// Open loop: op k is due at start + k*interval whether or not earlier
// ops have finished. A goroutine that falls behind sends late, and
// callers time each op from its due time, so a stalled op also charges
// its wait to every op queued behind it. Closed loop (interval 0): the
// next op is due the moment the previous one returns.
type pacer struct {
	start    time.Time
	end      time.Time
	interval time.Duration
	k        int64
	// lag is how late the generator itself sent each open-loop op: the
	// sleep overshoot past the moment it could have sent (its due time,
	// or the end of the op before it when that ran past the due time).
	lag samples
	// queued is how long each open-loop op waited for the op before it,
	// past its due time.
	queued samples
}

func openLoop(start, end time.Time, interval time.Duration) *pacer {
	return &pacer{start: start, end: end, interval: interval}
}

func closedLoop(end time.Time) *pacer { return &pacer{end: end} }

// next blocks until the next op is due and returns the time the op is
// timed from; ok is false once the phase is over. In open loop that is
// the op's due time, moved later only by the generator's own lateness:
// a sleep that overshoots an idle wait is the generator's timer error,
// not the program's latency, and is reported in lag instead. Waiting
// for a previous op that ran past the due time is charged in full.
func (p *pacer) next() (from time.Time, ok bool) {
	now := time.Now()
	if p.interval <= 0 {
		return now, now.Before(p.end)
	}
	due := p.start.Add(time.Duration(p.k) * p.interval)
	if !due.Before(p.end) || !now.Before(p.end) {
		// Past the phase end, ops a stalled generator still owes are
		// not sent: the phase measures its own window only.
		return due, false
	}
	p.k++
	ready := due
	if now.After(due) {
		ready = now
	}
	if d := due.Sub(now); d > 0 {
		time.Sleep(d)
	}
	late := time.Since(ready)
	p.lag.add(ms(late))
	p.queued.add(ms(ready.Sub(due)))
	return due.Add(late), true
}

// msSince returns the milliseconds elapsed since t.
func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
