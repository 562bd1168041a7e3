package main

import (
	"fmt"
	"math/rand"
	"time"

	"ecsort/internal/core"
	"ecsort/internal/model"
	"ecsort/internal/oracle"
	rt "ecsort/internal/runtime"
	"ecsort/internal/service"
)

// The ladder replays a workload's seeded op sequence one layer lower at
// a time — the Service Go API with no HTTP in front, then core.Incremental
// with no service around it — at the same batch boundaries, so the
// difference between rungs is the cost of the layer in between. Rungs
// run closed loop on one goroutine until their deadline.

// serviceRung replays the fill-and-read sequence against svc directly:
// every POST becomes one Service.Ingest span, every point read one
// Service.ClassOf span. It returns the ingest spans' count.
func serviceRung(svc *service.Service, sh *shape, ins []*input, seed int64, until time.Time, rec *recorder, name string) (int, error) {
	rng := rand.New(rand.NewSource(seed))
	var prev *input
	prevKey := ""
	posts := 0
	for g := 0; time.Now().Before(until); g++ {
		in := ins[g%len(ins)]
		key := fmt.Sprintf("%s-%s-%d", sh.prefix, name, g)
		if err := svc.CreateCollection(key, service.OracleSpec{Kind: service.KindLabel, Labels: in.labels}); err != nil {
			return posts, err
		}
		for _, items := range in.posts {
			s := rec.begin(name+".ingest", 0, 0)
			res, err := svc.Ingest(key, items, false)
			s.Items = int64(len(items))
			rec.end(s)
			if err != nil {
				return posts, err
			}
			if res.Accepted != len(items) {
				return posts, fmt.Errorf("%s: %d of %d items accepted", key, res.Accepted, len(items))
			}
			posts++
			if prev != nil {
				e := rng.Intn(len(prev.labels))
				s := rec.begin(name+".read", 0, 0)
				view, err := svc.ClassOf(prevKey, e, false)
				rec.end(s)
				if err != nil {
					return posts, err
				}
				if err := prev.checkView(e, view); err != nil {
					return posts, err
				}
			}
		}
		snap, err := svc.Classes(key, true)
		if err != nil {
			return posts, err
		}
		if err := in.checkClasses(snap.Classes); err != nil {
			return posts, fmt.Errorf("%s: %w", key, err)
		}
		if prev != nil {
			if err := svc.DropCollection(prevKey); err != nil {
				return posts, err
			}
		}
		prev, prevKey = in, key
	}
	return posts, nil
}

// coreRung replays the same inputs on core.Incremental directly, with a
// traced Label oracle on a session built the way the service builds one
// (shared pool, Workers = pool width): items are added per POST and
// folded whenever batchSize are pending. Every fold is one core.flush
// span; the oracle chunks under it are oracle.call spans.
func coreRung(sh *shape, ins []*input, until time.Time, rec *recorder, pool *rt.Pool) (posts int, err error) {
	for g := 0; time.Now().Before(until); g++ {
		in := ins[g%len(ins)]
		o := newTracedOracle(oracle.NewLabel(in.labels), rec)
		sess := model.NewSession(o, model.CR, model.WithPool(pool), model.Workers(pool.Size()))
		o.round = func() int64 { return int64(sess.Stats().Rounds) }
		inc, err := core.NewIncremental(sess)
		if err != nil {
			return posts, err
		}
		for _, items := range in.posts {
			for _, e := range items {
				if err := inc.Add(e); err != nil {
					return posts, err
				}
			}
			posts++
			if inc.Pending() >= sh.batchSize {
				s := rec.begin("core.flush", 0, 0)
				o.parent.Store(s.ID)
				err := inc.Flush()
				rec.end(s)
				if err != nil {
					return posts, err
				}
			}
		}
		if err := inc.Flush(); err != nil {
			return posts, err
		}
		classes, err := inc.Classes()
		if err != nil {
			return posts, err
		}
		if err := in.checkClasses(classes); err != nil {
			return posts, fmt.Errorf("core rung input %d: %w", g%len(ins), err)
		}
	}
	return posts, nil
}

// coreLadder runs coreRung for budget and adds the fold-level metrics.
func coreLadder(o *outcome, sh *shape, ins []*input, budget time.Duration, rec *recorder) error {
	pool := rt.NewPool(0)
	defer pool.Close()
	posts, err := coreRung(sh, ins, time.Now().Add(budget), rec, pool)
	if err != nil {
		return err
	}
	ix := indexSpans(rec.snapshot())
	rounds, n, chunks := ix.chunkRounds("oracle.call")
	ix.foldLayers(o, foldLadder{
		fold: "core.flush", call: "oracle.call",
		rounds: rounds, numRounds: n, chunks: chunks,
		workers: pool.Size(), ops: posts,
	})
	return nil
}
