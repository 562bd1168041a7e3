package core

import (
	"fmt"

	"ecsort/internal/model"
)

// Incremental maintains a complete equivalence class sorting answer while
// elements arrive over time — the online counterpart of the batch sorts,
// built from the same Answer merge calculus. Each insert buffers the
// element, and Flush (or any query) folds the buffer into the answer in
// two logical rounds: every pending element is first tested against one
// representative of each existing class, and only the elements that
// matched none then merge among themselves as a CR group of singletons.
// Under the paper's label distributions nearly every arrival belongs to
// a class the answer already holds, so a fold costs about p·k tests for
// p pending elements over k classes instead of the p(p−1)/2 pending
// pairs a single group round would test.
//
// This is the library feature the paper's applications want in steady
// state: a convention where interns keep arriving, a fleet where machines
// come online one by one. Flush is the service's hottest path, so the
// sorter is built for allocation-free steady state: pending elements live
// in one flat buffer viewed as zero-alloc singleton answers, merge and
// match scratch persist in the sorter, and the answer's flat storage
// double-buffers with a spare so each flush is two memmove-style passes.
type Incremental struct {
	session *model.Session
	answer  Answer
	sc      mergeScratch
	// bufElems/bufOffs are the two full-capacity backing pools the answer
	// double-buffers between: the answer views bufElems[cur], and the
	// next flush builds into the other pool. Tracking the pools (not
	// capacity-capped answer views) keeps growth amortized: a pool grown
	// by one flush keeps its capacity for all later ones.
	bufElems [2][]int
	bufOffs  [2][]int
	cur      int
	pending  []int    // buffered elements awaiting the next flush
	group    []Answer // reusable group view: the singletons a flush merges
	// match[i] is the existing class pending[i] joined in the
	// representative round, or -1; cursor holds per-class match counts,
	// then write positions, while the new answer is laid out.
	match  []int
	cursor []int
	seen   []bool // seen[e] reports e was added (universe is fixed)
	added  int
	// groupFold selects the one-round group fold of
	// NewIncrementalGroupFold in place of the representative-first fold.
	groupFold bool
	flushes   int
}

// NewIncremental creates an incremental sorter over the session's
// elements. Elements must still be drawn from 0..N()-1 (the oracle
// defines the universe); they may be added in any order, each at most
// once. The session must be in CR mode.
func NewIncremental(s *model.Session) (*Incremental, error) {
	if s.Mode() != model.CR {
		return nil, fmt.Errorf("core: Incremental requires a CR session, got %v", s.Mode())
	}
	return &Incremental{session: s, seen: make([]bool, s.N())}, nil
}

// NewIncrementalGroupFold creates an incremental sorter that folds with
// the original one-round group fold: the pending singletons and the
// answer merge as one CR group, testing every pending pair. It reaches
// the same partitions as NewIncremental at a higher cost, with classes
// in a different order. It exists so durable logs recorded under that
// fold replay to bit-identical classes and stats; new collections use
// NewIncremental.
func NewIncrementalGroupFold(s *model.Session) (*Incremental, error) {
	inc, err := NewIncremental(s)
	if err != nil {
		return nil, err
	}
	inc.groupFold = true
	return inc, nil
}

// Add buffers element e for classification. It returns an error if e is
// out of range or already added.
func (inc *Incremental) Add(e int) error {
	if e < 0 || e >= inc.session.N() {
		return fmt.Errorf("core: element %d out of range [0,%d)", e, inc.session.N())
	}
	if inc.seen[e] {
		return fmt.Errorf("core: element %d added twice", e)
	}
	inc.seen[e] = true
	inc.added++
	inc.pending = append(inc.pending, e)
	return nil
}

// Flush folds all buffered elements into the answer in two logical
// rounds. Round A tests each pending element against one representative
// of each of the k existing classes (p·k tests); an element matches at
// most one class, because classes are mutually unequal. Round B merges
// the u elements that matched nothing as a CR group of singletons
// (u(u−1)/2 tests). In the new answer the existing classes keep their
// order and representatives, each followed by its matched members in
// arrival order; the classes round B found follow, ordered by their
// first pending member.
//
// A failed or canceled fold publishes nothing and leaves the pending
// buffer intact for a retry. In steady state a flush allocates nothing:
// the tests stream through the arena, the match bookkeeping reuses the
// sorter's scratch, and the new answer is written into the spare
// backing, which then swaps with the current one.
//
//ecsort:hotpath
func (inc *Incremental) Flush() error {
	if len(inc.pending) == 0 {
		return nil
	}
	if inc.groupFold {
		return inc.flushGroup()
	}
	sc := &inc.sc
	k := inc.answer.K()
	match := growInts(inc.match[:0], len(inc.pending))
	inc.match = match
	for i := range match {
		match[i] = -1
	}
	if k > 0 {
		sc.pairs = appendRepTests(sc.pairs[:0], inc.pending, inc.answer)
		res, err := sc.round(inc.session)
		if err != nil {
			return err
		}
		// A context canceled during the final physical round slips past
		// the per-round check inside the session; re-check after each
		// logical round so an aborted fold never builds on a poisoned
		// one.
		if err := inc.session.Err(); err != nil {
			return err
		}
		// A faulty oracle may report several matches; the first wins,
		// and repair re-verifies what it got wrong.
		for i := range match {
			for j, eq := range res[i*k : (i+1)*k] {
				if eq {
					match[i] = j
					break
				}
			}
		}
	}
	group := inc.group[:0]
	for i, m := range match {
		if m < 0 {
			group = append(group, Answer{elems: inc.pending[i : i+1 : i+1], offs: singletonOffs})
		}
	}
	inc.group = group
	if len(group) > 1 {
		if err := sc.streamGroup(inc.session, group); err != nil {
			return err
		}
		if err := inc.session.Err(); err != nil {
			return err
		}
	}

	// Lay out the existing classes, each grown by its matched members.
	cursor := growInts(inc.cursor[:0], k)
	inc.cursor = cursor
	clear(cursor)
	matched := 0
	for _, m := range match {
		if m >= 0 {
			cursor[m]++
			matched++
		}
	}
	dst := 1 - inc.cur
	elems := growInts(inc.bufElems[dst][:0], inc.answer.Size()+matched)
	offs := append(inc.bufOffs[dst][:0], 0)
	for j := 0; j < k; j++ {
		cls := inc.answer.Class(j)
		copy(elems[offs[j]:], cls)
		n := cursor[j]
		cursor[j] = offs[j] + len(cls)
		offs = append(offs, cursor[j]+n)
	}
	for i, m := range match {
		if m >= 0 {
			elems[cursor[m]] = inc.pending[i]
			cursor[m]++
		}
	}
	// Then the classes round B found.
	switch len(group) {
	case 0:
	case 1:
		elems = append(elems, group[0].elems[0])
		offs = append(offs, len(elems))
	default:
		base := len(elems)
		// buildMerged appends base as the first offset of its answer
		// (restoring offs[k]) and rebases its offsets to that answer's own
		// view; shift them back into the whole answer's frame.
		_, elems, offs = sc.buildMerged(group, elems, offs[:k])
		for i := k; i < len(offs); i++ {
			offs[i] += base
		}
	}
	inc.commit(dst, elems, offs, Answer{
		elems: elems[:len(elems):len(elems)],
		offs:  offs[:len(offs):len(offs)],
	})
	return nil
}

// appendRepTests appends round A of a fold to dst: each pending element,
// in arrival order, against the representative of each class of a.
//
//ecsort:hotpath
func appendRepTests(dst []model.Pair, pending []int, a Answer) []model.Pair {
	k := a.K()
	for _, x := range pending {
		for j := 0; j < k; j++ {
			dst = append(dst, model.Pair{A: x, B: a.Rep(j)})
		}
	}
	return dst
}

// flushGroup is the fold of NewIncrementalGroupFold: buffered singletons
// and the current answer merge as one CR group — a single logical round
// of every cross test, (|pending| + k)² at most. Classes come out ordered
// by their first slot: pending singletons in arrival order, then the
// answer's classes.
//
//ecsort:hotpath
func (inc *Incremental) flushGroup() error {
	group := inc.group[:0]
	for i := range inc.pending {
		group = append(group, Answer{elems: inc.pending[i : i+1 : i+1], offs: singletonOffs})
	}
	if inc.answer.K() > 0 {
		group = append(group, inc.answer)
	}
	inc.group = group
	sc := &inc.sc
	if err := sc.streamGroup(inc.session, group); err != nil {
		return err
	}
	// See Flush: re-check before committing a merge built from a round
	// the context may have poisoned.
	if err := inc.session.Err(); err != nil {
		return err
	}
	dst := 1 - inc.cur
	merged, elems, offs := sc.buildMerged(group, inc.bufElems[dst][:0], inc.bufOffs[dst][:0])
	inc.commit(dst, elems, offs, merged)
	return nil
}

// commit publishes a fold built into pool dst: it retains the (possibly
// grown) pool slices, flips the double buffer so the old answer's pool
// becomes the next build target, and empties the pending buffer.
//
//ecsort:hotpath
func (inc *Incremental) commit(dst int, elems, offs []int, answer Answer) {
	inc.bufElems[dst], inc.bufOffs[dst] = elems, offs
	inc.cur = dst
	inc.answer = answer
	inc.pending = inc.pending[:0]
	inc.group = inc.group[:0]
	inc.flushes++
}

// Classes returns the current classes over everything added so far,
// flushing first. The classes are fresh copies sharing one backing array;
// they stay valid across later flushes.
func (inc *Incremental) Classes() ([][]int, error) {
	if err := inc.Flush(); err != nil {
		return nil, err
	}
	return inc.answer.Classes(), nil
}

// ClassOf returns the current class of element e (flushing first), or an
// error if e has not been added. The returned slice is a fresh copy.
func (inc *Incremental) ClassOf(e int) ([]int, error) {
	if e < 0 || e >= len(inc.seen) || !inc.seen[e] {
		return nil, fmt.Errorf("core: element %d not added", e)
	}
	if err := inc.Flush(); err != nil {
		return nil, err
	}
	for i := 0; i < inc.answer.K(); i++ {
		cls := inc.answer.Class(i)
		for _, x := range cls {
			if x == e {
				out := make([]int, len(cls))
				copy(out, cls)
				return out, nil
			}
		}
	}
	panic("core: element added and flushed but not in any class")
}

// Size returns how many elements have been added (buffered or merged).
func (inc *Incremental) Size() int { return inc.added }

// Has reports whether element e has already been added (buffered or
// merged). Callers batching inserts can pre-validate a whole batch with
// Has before committing any Add, keeping the batch atomic.
func (inc *Incremental) Has(e int) bool {
	return e >= 0 && e < len(inc.seen) && inc.seen[e]
}

// Pending returns the number of buffered elements awaiting the next
// Flush.
func (inc *Incremental) Pending() int { return len(inc.pending) }

// Flushes returns how many non-empty flushes have folded batches into
// the answer.
func (inc *Incremental) Flushes() int { return inc.flushes }

// Snapshot returns a copy of the classes merged so far, excluding pending
// (unflushed) elements. It never triggers a flush, performs no
// comparisons, and the returned classes share no memory with the sorter
// (they are views into one fresh backing array), so a service can publish
// them to concurrent readers while ingestion continues — the
// copy-on-flush pattern. For an index-carrying flat copy, use Flat.
func (inc *Incremental) Snapshot() [][]int {
	return inc.answer.Classes()
}

// Flat exposes the merged answer's flat storage — elements grouped by
// class and the class offset table — as read-only views that are only
// valid until the next Flush. Snapshot publishers copy these two slices
// instead of materializing per-class allocations.
func (inc *Incremental) Flat() (elems, offs []int) {
	return inc.answer.Flat()
}

// Stats exposes the underlying session's cost.
func (inc *Incremental) Stats() model.Stats { return inc.session.Stats() }

// PendingElements exposes the buffered elements in arrival order, as a
// read-only view valid until the next Add or Flush. Arrival order is
// part of the sorter's determinism contract — the next flush merges
// pending singletons in exactly this order — so checkpointing code must
// persist it as is.
func (inc *Incremental) PendingElements() []int { return inc.pending }

// Restore rebuilds a fresh sorter from checkpointed state: the flat
// answer (elems grouped by class, offs the class-offset table), the
// pending buffer in arrival order, the accumulated session cost, and the
// flush count. After Restore the sorter continues bit-identically to one
// that reached this state by live Adds and Flushes — same classes, same
// stats trajectory — which is the recovery correctness anchor. It must
// be called on a sorter with no prior Adds.
func (inc *Incremental) Restore(elems, offs, pending []int, st model.Stats, flushes int) error {
	if inc.added != 0 || inc.flushes != 0 {
		return fmt.Errorf("core: Restore on a used sorter (%d adds, %d flushes)", inc.added, inc.flushes)
	}
	if len(elems) > 0 && (len(offs) < 2 || offs[0] != 0 || offs[len(offs)-1] != len(elems)) {
		return fmt.Errorf("core: Restore: malformed offset table (len %d over %d elements)", len(offs), len(elems))
	}
	if len(elems) == 0 && len(offs) > 1 {
		return fmt.Errorf("core: Restore: %d class offsets over zero elements", len(offs))
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] <= offs[i-1] {
			return fmt.Errorf("core: Restore: class %d is empty or out of order", i-1)
		}
	}
	mark := func(e int) error {
		if e < 0 || e >= len(inc.seen) {
			return fmt.Errorf("core: Restore: element %d out of range [0,%d)", e, len(inc.seen))
		}
		if inc.seen[e] {
			return fmt.Errorf("core: Restore: element %d appears twice", e)
		}
		inc.seen[e] = true
		return nil
	}
	for _, e := range elems {
		if err := mark(e); err != nil {
			return err
		}
	}
	for _, e := range pending {
		if err := mark(e); err != nil {
			return err
		}
	}
	inc.bufElems[0] = append(inc.bufElems[0][:0], elems...)
	inc.bufOffs[0] = append(inc.bufOffs[0][:0], offs...)
	inc.cur = 0
	if len(elems) > 0 {
		inc.answer = Answer{elems: inc.bufElems[0], offs: inc.bufOffs[0]}
	} else {
		inc.answer = Answer{}
	}
	inc.pending = append(inc.pending[:0], pending...)
	inc.added = len(elems) + len(pending)
	inc.flushes = flushes
	inc.session.RestoreStats(st)
	return nil
}
