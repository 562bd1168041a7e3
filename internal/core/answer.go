// Package core implements the equivalence class sorting algorithms of the
// paper: the CR two-phase compounding-comparison algorithm (Theorem 1,
// O(k + log log n) rounds), the ER merge-tree algorithm (Theorem 2,
// O(k log n) rounds), the constant-round ER algorithm for inputs whose
// smallest class has size ≥ λn (Theorem 4), the sequential round-robin
// regimen of Jayapaul et al. used for the distribution-based analysis
// (Section 4), and a naive sequential baseline.
package core

import "ecsort/internal/model"

// Answer is a complete equivalence class sorting answer for a subset of
// the elements: a partition of that subset into its equivalence classes.
// Classes within one answer are mutually known-unequal, so merging two
// answers only requires comparing class representatives pairwise — at most
// k² tests — which is the engine of the compounding-comparison technique.
//
// Storage is flat: one backing slice of elements grouped by class plus a
// class-offset table, so an answer of any shape is at most two
// allocations, classes are contiguous in memory, and the merge engine can
// copy whole answers with memmove instead of per-class slice churn. An
// Answer is immutable once built; answers produced by the merge engine
// may share backing arrays with an arena, so treat values as read-only
// views.
type Answer struct {
	// elems holds the covered elements grouped by class: class i occupies
	// elems[offs[i]:offs[i+1]], and its first member is the class
	// representative.
	elems []int
	// offs has K+1 entries with offs[0] == 0; nil for the empty answer.
	offs []int
}

// singletonOffs is the shared offset table of every single-element
// answer. It is read-only by the Answer immutability contract, so all
// singleton views alias it instead of allocating.
var singletonOffs = []int{0, 1}

// NewAnswer builds an answer from explicit classes, copying them into
// flat storage. Intended for tests and answer construction at the edges;
// the merge engine builds flat storage directly.
//
//ecsort:ignore deadexport merge-layer entry point pinned by alloc_test, answer_test and BenchmarkMergeGroup
func NewAnswer(classes [][]int) Answer {
	size := 0
	for _, c := range classes {
		size += len(c)
	}
	if size == 0 && len(classes) == 0 {
		return Answer{}
	}
	a := Answer{
		elems: make([]int, 0, size),
		offs:  make([]int, 1, len(classes)+1),
	}
	for _, c := range classes {
		a.elems = append(a.elems, c...)
		a.offs = append(a.offs, len(a.elems))
	}
	return a
}

// Singleton returns the trivial answer for the single element e.
//
//ecsort:ignore deadexport merge-layer entry point pinned by answer_test
func Singleton(e int) Answer {
	return Answer{elems: []int{e}, offs: singletonOffs}
}

// Singletons returns the initial answer list: one singleton answer per
// element 0..n-1 (step 1 of the Theorem 1 algorithm). All answers are
// views into one shared backing array, so setup is two allocations
// instead of 2n.
//
//ecsort:ignore deadexport merge-layer entry point pinned by answer_test
func Singletons(n int) []Answer {
	pool := make([]int, n)
	answers := make([]Answer, n)
	for i := range answers {
		pool[i] = i
		answers[i] = Answer{elems: pool[i : i+1 : i+1], offs: singletonOffs}
	}
	return answers
}

// K returns the number of classes in the answer.
//
//ecsort:hotpath
func (a Answer) K() int {
	if len(a.offs) == 0 {
		return 0
	}
	return len(a.offs) - 1
}

// Size returns the number of elements covered by the answer.
//
//ecsort:hotpath
func (a Answer) Size() int { return len(a.elems) }

// Class returns the members of class i as a read-only view into the
// answer's backing array. Class i's first member is its representative.
//
//ecsort:hotpath
func (a Answer) Class(i int) []int { return a.elems[a.offs[i]:a.offs[i+1]] }

// Rep returns the representative element of class i (its first member).
//
//ecsort:hotpath
func (a Answer) Rep(i int) int { return a.elems[a.offs[i]] }

// Reps returns the representative element of each class (the first
// member). The slice is freshly allocated; hot paths use Rep directly.
func (a Answer) Reps() []int {
	reps := make([]int, a.K())
	for i := range reps {
		reps[i] = a.Rep(i)
	}
	return reps
}

// Elements returns all elements covered by the answer, class by class, as
// a fresh slice.
func (a Answer) Elements() []int {
	out := make([]int, len(a.elems))
	copy(out, a.elems)
	return out
}

// Classes materializes the partition as [][]int. The classes are views
// into one freshly copied backing array (two allocations total), sharing
// no memory with the answer, so callers may hold the result across arena
// reuse.
func (a Answer) Classes() [][]int {
	k := a.K()
	if k == 0 {
		return nil
	}
	backing := make([]int, len(a.elems))
	copy(backing, a.elems)
	out := make([][]int, k)
	for i := 0; i < k; i++ {
		out[i] = backing[a.offs[i]:a.offs[i+1]:a.offs[i+1]]
	}
	return out
}

// Flat returns the answer's backing element slice and offset table as
// read-only views: class i occupies elems[offs[i]:offs[i+1]]. offs is nil
// for the empty answer. Snapshot publishers use this to copy a whole
// partition with two memmoves.
func (a Answer) Flat() (elems, offs []int) { return a.elems, a.offs }

// appendMatched writes the merge of a and b implied by a pair plan's
// match state as one flat answer appended to the elems/offs destination
// slices (typically the ER arena's level pools) and returns the answer
// viewing the appended region plus the extended slices. Output classes
// are a's classes in order, each extended by its matched b class if any,
// then b's unmatched classes — exactly the ordering the map-based ER
// engine produced, so results are bit-for-bit identical.
//
//ecsort:hotpath
func appendMatched(a, b Answer, matchOf []int32, matchedB []bool, elems, offs []int) (Answer, []int, []int) {
	base, offBase := len(elems), len(offs)
	offs = append(offs, base)
	for i := 0; i < a.K(); i++ {
		elems = append(elems, a.Class(i)...)
		if j := matchOf[i]; j >= 0 {
			elems = append(elems, b.Class(int(j))...)
		}
		offs = append(offs, len(elems))
	}
	for j := 0; j < b.K(); j++ {
		if !matchedB[j] {
			elems = append(elems, b.Class(j)...)
			offs = append(offs, len(elems))
		}
	}
	out := Answer{
		elems: elems[base:len(elems):len(elems)],
		offs:  offs[offBase:len(offs):len(offs)],
	}
	// Rebase the answer's offsets to its own elems view.
	if base != 0 {
		for i := range out.offs {
			out.offs[i] -= base
		}
	}
	return out, elems, offs
}

// MergePairER merges two answers in the ER model using the Latin-square
// rotation schedule: at most max(K(a), K(b)) rounds of disjoint
// representative tests (the engine of Theorem 2, where this is at most k
// rounds per merge). For round-sharing across independent merges at the
// same level of a merge tree — with all plan scratch pooled in a
// reusable arena — see SortER.
//
//ecsort:ignore deadexport merge-layer entry point pinned by answer_test
func MergePairER(s *model.Session, a, b Answer) (Answer, error) {
	if a.K() > b.K() {
		a, b = b, a
	}
	// The rep→class table is sized by the largest representative, not
	// the universe, so a small merge in a huge universe stays cheap.
	maxRep := 0
	for i := 0; i < a.K(); i++ {
		maxRep = max(maxRep, a.Rep(i))
	}
	for j := 0; j < b.K(); j++ {
		maxRep = max(maxRep, b.Rep(j))
	}
	classOf := make([]int32, maxRep+1)
	matchOf := make([]int32, a.K())
	for i := range matchOf {
		matchOf[i] = -1
		classOf[a.Rep(i)] = int32(i)
	}
	matchedB := make([]bool, b.K())
	for j := range matchedB {
		classOf[b.Rep(j)] = int32(j)
	}
	plan := pairPlan{a: a, b: b, matchOf: matchOf, matchedB: matchedB, classOf: classOf}
	var batch []model.Pair
	for {
		batch = plan.emitNext(batch[:0])
		if len(batch) == 0 {
			out, _, _ := appendMatched(a, b, matchOf, matchedB, nil, nil)
			return out, nil
		}
		res, err := s.Round(batch)
		if err != nil {
			return Answer{}, err
		}
		plan.absorb(batch, res)
	}
}

// pairPlan is the incremental state of one ER pair-merge. Rotation round r
// pairs class i of the smaller side with class (i+r) mod K of the larger
// side, so every class appears in at most one test per round and all
// K(a)·K(b) class pairs are covered after max(K(a), K(b)) rounds. Classes
// that have already found their partner are skipped: classes within one
// answer are mutually distinct, so a matched class needs no further tests.
//
// A plan owns no storage: matchOf and matchedB are carved from a level's
// arena (or allocated once by MergePairER) and classOf is the shared
// element-indexed representative→class table, so the ER steady state
// allocates nothing per merge or per rotation round.
type pairPlan struct {
	a, b Answer // K(a) <= K(b) after normalization
	r    int    // next rotation round to emit
	slot int    // output position in the level's answer list
	// matchOf[i] is the b-class index matched to a-class i, or -1.
	matchOf []int32
	// matchedB[j] reports b-class j has found its partner.
	matchedB []bool
	// classOf maps representative element -> class index within its own
	// answer; shared across a level (element sets are disjoint).
	classOf []int32
}

// emitNext appends the disjoint tests of the next non-empty rotation
// round to dst and returns the extended slice; dst comes back unchanged
// when the schedule is exhausted. The caller must pass the emitted
// tests' results to absorb before calling emitNext again.
//
//ecsort:hotpath
func (p *pairPlan) emitNext(dst []model.Pair) []model.Pair {
	kb := p.b.K()
	mark := len(dst)
	for ; p.r < kb; p.r++ {
		for i := 0; i < p.a.K(); i++ {
			j := (i + p.r) % kb
			if p.matchOf[i] >= 0 || p.matchedB[j] {
				continue
			}
			dst = append(dst, model.Pair{A: p.a.Rep(i), B: p.b.Rep(j)})
		}
		if len(dst) > mark {
			p.r++
			return dst
		}
	}
	return dst
}

// absorb records the results of one executed round emitted by emitNext.
//
//ecsort:hotpath
func (p *pairPlan) absorb(pairs []model.Pair, res []bool) {
	for idx, eq := range res {
		if eq {
			i, j := p.classOf[pairs[idx].A], p.classOf[pairs[idx].B]
			p.matchOf[i] = j
			p.matchedB[j] = true
		}
	}
}
