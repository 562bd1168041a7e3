package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ecsort/internal/model"
	"ecsort/internal/oracle"
)

// certifyLive checks classes against ground truth with Certify, which
// needs a partition of a whole universe: the live elements are renumbered
// into a sub-universe of their own.
func certifyLive(labels []int, classes [][]int) error {
	var sub []int
	var mapped [][]int
	for _, cls := range classes {
		m := make([]int, len(cls))
		for i, e := range cls {
			m[i] = len(sub)
			sub = append(sub, labels[e])
		}
		mapped = append(mapped, m)
	}
	return Certify(model.NewSession(oracle.NewLabel(sub), model.ER), mapped)
}

// restoreCopy checkpoints inc the way the service does (Flat,
// PendingElements, Stats, Flushes) and restores a fresh sorter of the
// same fold over a new session.
func restoreCopy(inc *Incremental, newInc func(*model.Session) (*Incremental, error), labels []int) (*Incremental, error) {
	fresh, err := newInc(model.NewSession(oracle.NewLabel(labels), model.CR))
	if err != nil {
		return nil, err
	}
	elems, offs := inc.Flat()
	err = fresh.Restore(elems, offs, inc.PendingElements(), inc.Stats(), inc.Flushes())
	return fresh, err
}

// TestFoldPropertyRandomized drives the representative-first fold and the
// group fold through the same random history — batches of random size,
// deletes, class invalidations and checkpoint/Restore cycles between
// flushes — and requires after every flush that both folds reach the
// same partition and that Certify accepts it against the labels.
func TestFoldPropertyRandomized(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			n := 40 + rng.Intn(160)
			k := 1 + rng.Intn(12)
			labels := make([]int, n)
			for i := range labels {
				labels[i] = rng.Intn(k)
			}
			ctors := []func(*model.Session) (*Incremental, error){NewIncremental, NewIncrementalGroupFold}
			incs := make([]*Incremental, len(ctors))
			for i, ctor := range ctors {
				inc, err := ctor(model.NewSession(oracle.NewLabel(labels), model.CR))
				if err != nil {
					t.Fatal(err)
				}
				incs[i] = inc
			}
			live := map[int]bool{}
			for step := 0; step < 60; step++ {
				switch op := rng.Intn(10); {
				case op < 4: // a batch of random size
					for size := 1 + rng.Intn(n/3); size > 0; size-- {
						e := rng.Intn(n)
						if live[e] {
							continue
						}
						live[e] = true
						for _, inc := range incs {
							if err := inc.Add(e); err != nil {
								t.Fatalf("step %d: Add(%d): %v", step, e, err)
							}
						}
					}
				case op < 6: // delete
					e := rng.Intn(n)
					if !live[e] {
						continue
					}
					delete(live, e)
					for _, inc := range incs {
						if err := inc.Delete(e); err != nil {
							t.Fatalf("step %d: Delete(%d): %v", step, e, err)
						}
					}
				case op < 7: // invalidate the merged class of e
					e := rng.Intn(n)
					if !live[e] {
						continue
					}
					// Both folds flush at the same points, so e is merged
					// in both or pending in both.
					_, err0 := incs[0].InvalidateClassOf(e)
					_, err1 := incs[1].InvalidateClassOf(e)
					if (err0 == nil) != (err1 == nil) {
						t.Fatalf("step %d: InvalidateClassOf(%d) disagrees: %v vs %v", step, e, err0, err1)
					}
				case op < 8: // checkpoint and restore
					for i, inc := range incs {
						fresh, err := restoreCopy(inc, ctors[i], labels)
						if err != nil {
							t.Fatalf("step %d: restore: %v", step, err)
						}
						incs[i] = fresh
					}
				default: // flush and verify
					var got [][][]int
					for _, inc := range incs {
						classes, err := inc.Classes()
						if err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
						if err := certifyLive(labels, classes); err != nil {
							t.Fatalf("step %d: Certify: %v", step, err)
						}
						got = append(got, canonical(classes))
					}
					var liveList []int
					for e := range live {
						liveList = append(liveList, e)
					}
					if want := wantPartition(labels, liveList); !partitionEq(got[0], want) {
						t.Fatalf("step %d: representative-first classes %v, want %v", step, got[0], want)
					}
					if !partitionEq(got[0], got[1]) {
						t.Fatalf("step %d: folds disagree: %v vs %v", step, got[0], got[1])
					}
				}
			}
		})
	}
}

// cancelOracle cancels a context on its at-th Same call. Its method set
// is exactly N/Same, so a Workers(1) session calls it in pair order.
type cancelOracle struct {
	o      model.Oracle
	calls  int
	at     int
	cancel context.CancelFunc
}

func (c *cancelOracle) N() int { return c.o.N() }

func (c *cancelOracle) Same(i, j int) bool {
	c.calls++
	if c.calls == c.at {
		c.cancel()
	}
	return c.o.Same(i, j)
}

// TestFlushCanceledInEitherRound cancels the fold's context on the last
// test of round A, and on the last test of round B. Either way the last
// physical round runs to completion, so only the sorter's own re-check
// can notice: Flush must fail, leave the pending buffer and the answer
// as they were, and succeed on retry under a live context.
func TestFlushCanceledInEitherRound(t *testing.T) {
	// 0..9 hold labels 0..4 twice; 10..19 repeat them; 20..29 hold
	// labels 5..9 twice.
	labels := make([]int, 30)
	for e := range labels {
		labels[e] = e % 5
		if e >= 20 {
			labels[e] = 5 + e%5
		}
	}
	const procs = 8
	for _, tc := range []struct {
		name  string
		batch []int
		// at counts the fold's tests up to the canceling one.
		at int
	}{
		// All ten match: round A is 10·5 tests and there is no round B,
		// so nothing after round A would notice the cancellation.
		{"roundA", span(10, 20), 10 * 5},
		// Ten new elements in five classes: 10·5 tests, then 45.
		{"roundB", span(20, 30), 10*5 + 45},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			orc := &cancelOracle{o: oracle.NewLabel(labels), cancel: cancel}
			s := model.NewSession(orc, model.CR, model.Workers(1), model.Processors(procs), model.WithContext(ctx))
			inc, err := NewIncremental(s)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range span(0, 10) {
				if err := inc.Add(e); err != nil {
					t.Fatal(err)
				}
			}
			if err := inc.Flush(); err != nil {
				t.Fatal(err)
			}
			for _, e := range tc.batch {
				if err := inc.Add(e); err != nil {
					t.Fatal(err)
				}
			}
			orc.at = orc.calls + tc.at
			elems, offs := inc.Flat()
			wantElems, wantOffs := append([]int{}, elems...), append([]int{}, offs...)
			wantPending := append([]int{}, inc.PendingElements()...)
			flushes := inc.Flushes()

			if err := inc.Flush(); !errors.Is(err, context.Canceled) {
				t.Fatalf("Flush = %v, want context.Canceled", err)
			}
			if orc.calls != orc.at {
				t.Fatalf("oracle saw %d calls, canceled at %d: the cancel did not land in the fold's last physical round", orc.calls, orc.at)
			}
			elems, offs = inc.Flat()
			if !reflect.DeepEqual(elems, wantElems) || !reflect.DeepEqual(offs, wantOffs) || inc.Flushes() != flushes {
				t.Fatalf("canceled fold published: answer %v %v (was %v %v), flushes %d (was %d)", elems, offs, wantElems, wantOffs, inc.Flushes(), flushes)
			}
			if got := inc.PendingElements(); !reflect.DeepEqual(got, wantPending) {
				t.Fatalf("canceled fold touched pending: %v, want %v", got, wantPending)
			}

			inc.SetContext(context.Background())
			classes, err := inc.Classes()
			if err != nil {
				t.Fatal(err)
			}
			if err := certifyLive(labels, classes); err != nil {
				t.Fatalf("retry after cancel: %v", err)
			}
			if want := wantPartition(labels, append(span(0, 10), tc.batch...)); !partitionEq(canonical(classes), want) {
				t.Fatalf("retry after cancel: classes %v, want %v", classes, want)
			}
		})
	}
}

func span(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for e := lo; e < hi; e++ {
		out = append(out, e)
	}
	return out
}
