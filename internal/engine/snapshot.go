// Package engine implements the immutable snapshot layer under the
// relational substrate: point-in-time views of a tuple set's columns, which
// a snapshot shares with the relation that owns them, with a memoized
// group-count partition lattice, plus a batch query planner that shares
// partition refinements across overlapping lattice queries.
//
// A Snapshot is the unit of consistency for every information measure of the
// library. It never changes after construction: Extend produces a *new*
// snapshot for appended rows (reusing the parent's partitions incrementally,
// copy-on-write), while readers of the old snapshot keep going with no locks
// and no coordination — "whichever snapshot you grabbed" is a complete,
// internally consistent view. The analysis service publishes the current
// snapshot through an atomic pointer, which is what removes the per-dataset
// reader/writer lock from its read path.
//
// Layering: engine sits below internal/relation (which delegates its group
// machinery here) and implements infotheory's Source contract structurally,
// so measures can run against a Snapshot directly.
package engine

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"ajdloss/internal/bitset"
	"ajdloss/internal/infotheory"
)

// Value is a single attribute value (dictionary-encoded; identical to
// relation.Value by alias).
type Value = int32

// Grouping is the multiset projection of a snapshot onto an attribute set in
// columnar form: IDs[i] is the dense group id (first-occurrence order over
// stored rows) of row i, and Counts.At(g) is the multiplicity-weighted number
// of tuples in group g. Counts.Len() is the number of distinct projected
// rows.
//
// Groupings returned by a snapshot are shared, memoized values: callers must
// not modify them. Unlike the pre-snapshot engine they are frozen — a later
// Extend never touches a previously returned Grouping, so no copy is needed
// to hold one across appends.
type Grouping struct {
	IDs    []int32
	Counts Counts
}

// Groups returns the number of distinct groups.
func (g *Grouping) Groups() int { return g.Counts.Len() }

// memoEntry is one memoized grouping together with what copy-on-write
// extension needs: the sorted column set it projects onto (to order
// extensions parents-first) and the probe refine built, keyed by
// (parent group id, column value). g and cols are immutable once published.
//
// An entry is count-only when g.IDs is nil: a set planned only for its
// entropy (Plan.AddLeafEntropy) keeps its counts and its probe, and no row
// ids. The first read of its grouping refines the set again with row ids
// into a new entry, which replaces it in the memo.
//
// next is writer-side state that moves down the snapshot chain: Extend takes
// it with Swap(nil), probes it in place for the appended rows and stores it
// in the child's entry, so a snapshot keeps no probe once it has been
// extended (a second Extend of it rebuilds one, see rebuildProbe). Readers
// never touch next.
type memoEntry struct {
	g    *Grouping
	cols []int
	next atomic.Pointer[probe] // nil for the empty column set and once handed on
}

// Snapshot is an immutable point-in-time view of a tuple set: the columns of
// its distinct rows, per-row multiplicities for weighted sources, a
// generation number, and the memo of partition groupings and entropies.
//
// A snapshot does not copy its columns: it adopts the owner's column slices,
// clipped to its n rows. The owner may keep appending to those slices, but it
// only ever writes indexes ≥ the n of every snapshot it has published, so a
// snapshot's rows never change under it.
//
// Concurrency contract:
//
//   - Any number of goroutines may query a snapshot concurrently. The memo
//     fills lazily under a short internal mutex (a cache-fill latch, not a
//     reader/writer lock — refinement itself runs outside it, and a racing
//     duplicate computation is benign because results are identical).
//   - Extend must only be called by a single writer per snapshot chain (the
//     owning Relation serializes appends). Extending never mutates the parent:
//     readers mid-query on the parent are undisturbed, and column/ID slices
//     shared between parent and child only ever see writes beyond the
//     parent's row count.
type Snapshot struct {
	pos  map[string]int
	cols [][]Value // cols[c][row], each clipped to len = cap = n

	weights []int64 // per-row multiplicity; nil means all 1
	n       int     // number of stored (distinct) rows
	total   int     // Σ weights (== n when weights is nil)
	gen     int64   // 1 for a fresh snapshot; +1 per Extend
	chain   uint64  // identity of the chain; shared by every Extend descendant

	// colMin/colMax track each column's value range so refinement can pick
	// dense probe tables (see refine.go); maintained at construction and by
	// Extend, never mutated afterwards.
	colMin []Value
	colMax []Value

	mu      sync.Mutex
	memo    map[string]*memoEntry
	entropy map[string]float64
}

// NewSnapshotAt builds a snapshot of the first n rows of cols (cols[c][i]
// is attribute c of row i; the rows must be distinct), unweighted, at
// generation gen (values below 1 mean 1). The column data is adopted, not
// copied: the caller may append to the slices afterwards but must never
// write below index n. The durability layer passes the checkpointed
// generation so a recovered relation reports the generation it had when
// the checkpoint was taken, and replayed appends continue the chain from
// there.
func NewSnapshotAt(attrs []string, cols [][]Value, n int, gen int64) *Snapshot {
	s := newSnapshot(attrs, cols, n, nil, n)
	if gen > 1 {
		s.gen = gen
	}
	return s
}

// NewWeightedSnapshot builds a generation-1 snapshot of len(weights)
// distinct rows held in cols (adopted as by NewSnapshotAt) with per-row
// multiplicities summing to total (a multiset's empirical distribution).
// Weighted snapshots cannot be extended: mutating a multiset changes
// multiplicities of existing rows, which invalidates rather than extends
// partitions.
func NewWeightedSnapshot(attrs []string, cols [][]Value, weights []int64, total int) *Snapshot {
	return newSnapshot(attrs, cols, len(weights), weights, total)
}

// chains numbers the snapshot chains of the process; see Snapshot.Chain.
var chains atomic.Uint64

func newSnapshot(attrs []string, cols [][]Value, n int, weights []int64, total int) *Snapshot {
	pos := make(map[string]int, len(attrs))
	for i, a := range attrs {
		pos[a] = i
	}
	s := &Snapshot{
		pos:     pos,
		cols:    make([][]Value, len(attrs)),
		weights: weights,
		n:       n,
		total:   total,
		gen:     1,
		chain:   chains.Add(1),
		colMin:  make([]Value, len(attrs)),
		colMax:  make([]Value, len(attrs)),
		memo:    make(map[string]*memoEntry),
		entropy: make(map[string]float64),
	}
	for c := range s.cols {
		s.cols[c] = cols[c][:n:n]
		lo, hi := Value(0), Value(0)
		if n > 0 {
			lo, hi = s.cols[c][0], s.cols[c][0]
		}
		s.colMin[c], s.colMax[c] = valueRange(s.cols[c], lo, hi)
	}
	return s
}

// valueRange widens [lo, hi] to cover every value of col.
func valueRange(col []Value, lo, hi Value) (Value, Value) {
	for _, v := range col {
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, hi
}

// N returns the total number of tuples counted with multiplicity — the
// infotheory.Source contract.
func (s *Snapshot) N() int { return s.total }

// NumRows returns the number of distinct stored rows.
func (s *Snapshot) NumRows() int { return s.n }

// Columns returns the snapshot's columns: Columns()[c][i] is attribute c of
// row i, each column of length NumRows. Later Extends never change them.
// Callers must not modify them.
func (s *Snapshot) Columns() [][]Value { return s.cols }

// Generation returns the snapshot's generation: 1 at construction,
// incremented by every Extend along the chain.
func (s *Snapshot) Generation() int64 { return s.gen }

// Chain identifies the snapshot's chain: every constructor starts a new one,
// and Extend's child inherits its parent's. Row i is the same in every
// snapshot of a chain that holds it (owners never rewrite a published row),
// so state a consumer derived from one snapshot's rows advances to a later
// generation of the same chain by reading only the rows past its own. The
// identity is a number, not a pointer: it keeps no snapshot alive.
func (s *Snapshot) Chain() uint64 { return s.chain }

// Pos returns the column position of attribute a, or false.
func (s *Snapshot) Pos(a string) (int, bool) {
	p, ok := s.pos[a]
	return p, ok
}

// sortedColumns resolves attrs to column positions, sorts them ascending and
// drops duplicates (groupings are per attribute *set*; the canonical order
// maximizes prefix sharing across lattice queries).
func (s *Snapshot) sortedColumns(attrs []string) ([]int, error) {
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		p, ok := s.pos[a]
		if !ok {
			return nil, fmt.Errorf("engine: unknown attribute %q", a)
		}
		cols[i] = p
	}
	sort.Ints(cols)
	out := cols[:0]
	for i, c := range cols {
		if i == 0 || c != cols[i-1] {
			out = append(out, c)
		}
	}
	return out, nil
}

// colsKey renders a sorted column set as a memo key. Sets within one 64-bit
// word — every realistic schema — pack into a single hex string with one
// small allocation; wider sets fall back to the bitset rendering (prefixed
// so the two encodings can never collide).
func colsKey(cols []int) string {
	var w uint64
	for _, c := range cols {
		if c >= 64 {
			return "+" + bitset.FromSlice(cols).Key()
		}
		w |= 1 << uint(c)
	}
	var buf [16]byte
	return string(strconv.AppendUint(buf[:0], w, 16))
}

// Grouping returns the memoized columnar grouping of the snapshot onto attrs.
// The returned value is shared and frozen: callers must not modify it.
func (s *Snapshot) Grouping(attrs ...string) (*Grouping, error) {
	cols, err := s.sortedColumns(attrs)
	if err != nil {
		return nil, err
	}
	return s.grouping(cols), nil
}

// GroupCounts returns a fresh copy of the multiplicities of the multiset
// projection onto attrs, indexed by dense group id, for tests and
// diagnostics. Measures read Grouping(attrs...).Counts instead.
func (s *Snapshot) GroupCounts(attrs ...string) ([]int, error) {
	g, err := s.Grouping(attrs...)
	if err != nil {
		return nil, err
	}
	return g.Counts.Flatten(), nil
}

// GroupEntropy returns H(attrs) in nats under the snapshot's empirical
// distribution, memoized per attribute set — the infotheory.Source
// contract.
func (s *Snapshot) GroupEntropy(attrs ...string) (float64, error) {
	cols, err := s.sortedColumns(attrs)
	if err != nil {
		return 0, err
	}
	return s.groupEntropy(cols, true), nil
}

// grouping returns the memoized grouping for the sorted column set, computing
// it by refining the grouping of the prefix cols[:len-1] with the last
// column. The recursion guarantees the memo is prefix-closed: every prefix of
// a cached set is cached too (Extend and the planner rely on this), and holds
// its row ids.
func (s *Snapshot) grouping(cols []int) *Grouping {
	return s.entry(colsKey(cols), cols, true).g
}

// entry returns the memo entry of the sorted column set under key, refining
// it from its prefix's grouping when the memo lacks it: with row ids, or
// count-only when withIDs is false. A cached entry is returned as it is,
// unless withIDs asks for the row ids of a count-only one: then the set is
// refined again with ids, into an entry that replaces it.
func (s *Snapshot) entry(key string, cols []int, withIDs bool) *memoEntry {
	s.mu.Lock()
	ent, ok := s.memo[key]
	s.mu.Unlock()
	if ok && (ent.g.IDs != nil || !withIDs) {
		return ent
	}
	if len(cols) == 0 {
		ent = &memoEntry{g: s.trivialGrouping()}
	} else {
		parent := s.grouping(cols[:len(cols)-1])
		g, next := s.refine(parent, cols[len(cols)-1], withIDs)
		ent = &memoEntry{g: g, cols: append([]int(nil), cols...)}
		ent.next.Store(next)
	}
	s.mu.Lock()
	// Another goroutine may have won the race to compute the set; keep its
	// value, unless it is count-only and ent holds row ids.
	if cached, ok := s.memo[key]; ok && (cached.g.IDs != nil || ent.g.IDs == nil) {
		ent = cached
	} else {
		s.memo[key] = ent
	}
	s.mu.Unlock()
	return ent
}

// trivialGrouping is the grouping on the empty attribute set: every row in
// one group (no groups at all when the snapshot is empty).
func (s *Snapshot) trivialGrouping() *Grouping {
	g := &Grouping{IDs: make([]int32, s.n, s.n+extendHeadroom(s.n))}
	if s.n > 0 {
		g.Counts = singleCount(s.total)
	}
	return g
}

// singleCount returns the counts of one group of total tuples.
func singleCount(total int) Counts {
	return Counts{chunks: []*countChunk{{total}}, n: 1}
}

// groupEntropy returns the entropy (nats) of the distribution assigning
// probability Counts.At(g)/total to each group, memoized per column set. It
// reads only counts, so a count-only entry serves as it is; a set the memo
// lacks is refined with row ids, or count-only when withIDs is false. It sums the c·log c terms chunk by chunk in group order, the order
// infotheory.EntropyFromCounts sums a flat slice in, so the two agree to the
// bit.
func (s *Snapshot) groupEntropy(cols []int, withIDs bool) float64 {
	key := colsKey(cols)
	s.mu.Lock()
	h, ok := s.entropy[key]
	ent := s.memo[key]
	s.mu.Unlock()
	if ok {
		return h
	}
	if ent == nil {
		ent = s.entry(key, cols, withIDs)
	}
	var sum float64
	ent.g.Counts.Each(func(part []int) { sum = infotheory.AddCLogC(sum, part) })
	h = infotheory.EntropyFromCLogC(sum, s.total)
	s.mu.Lock()
	s.entropy[key] = h
	s.mu.Unlock()
	return h
}

// Extend returns a new snapshot of the first n rows of cols, which must be
// the owner's columns grown from this snapshot's: rows below NumRows equal
// this snapshot's, and rows NumRows..n-1 are the freshly appended
// (distinct) rows. The child adopts the columns as NewSnapshotAt does,
// every grouping memoized at call time is extended copy-on-write, the
// generation is bumped on the same chain, and the entropy memo starts empty
// (every entropy changes when the total does; the next query recomputes in
// O(groups) from the already-extended grouping).
//
// Cost per memoized set: O(batch) probes of the refinement probe, which
// moves from this snapshot's entry to the child's and is probed in place,
// plus a copy of the count chunks the batch writes, into one slab, and of
// the chunk table (one pointer per chunk). The other chunks are shared with
// this snapshot. Once a set's slabs would outnumber its chunks, the Extend
// copies all of its chunks instead (see Counts), so the copy stays O(batch)
// amortized. A count-only set stays count-only: its appended rows' ids go
// into a slice of the batch's size, never one of n rows. A second Extend of
// the same snapshot finds the probe gone and rebuilds it in O(n) per set; the
// answers are the same either way.
//
// The parent snapshot is left untouched: its groupings, counts and entropies
// keep answering queries for readers that grabbed it before the extension.
// Count chunks are shared but never written once published. Backing arrays
// of columns and grouping IDs are shared where capacity allows — the child
// only writes indexes ≥ the parent's row count, which the parent never
// reads.
//
// Extend must be called by at most one writer per snapshot (the owning
// relation serializes appends); it panics on weighted snapshots.
func (s *Snapshot) Extend(cols [][]Value, n int) *Snapshot {
	if s.weights != nil {
		panic("engine: Extend on a weighted snapshot")
	}
	if n <= s.n {
		return s
	}
	fresh := n - s.n
	// Snapshot the parent's memo under its fill latch (concurrent readers may
	// be inserting lazily computed groupings; entries themselves are immutable
	// once published, so they are safe to read outside the lock).
	s.mu.Lock()
	entries := make([]*memoEntry, 0, len(s.memo))
	for _, ent := range s.memo {
		entries = append(entries, ent)
	}
	s.mu.Unlock()

	child := &Snapshot{
		pos:     s.pos,
		cols:    make([][]Value, len(cols)),
		n:       n,
		total:   s.total + fresh,
		gen:     s.gen + 1,
		chain:   s.chain,
		colMin:  make([]Value, len(cols)),
		colMax:  make([]Value, len(cols)),
		memo:    make(map[string]*memoEntry, len(entries)),
		entropy: make(map[string]float64),
	}
	for c := range child.cols {
		child.cols[c] = cols[c][:n:n]
		child.colMin[c], child.colMax[c] = valueRange(child.cols[c][s.n:], s.colMin[c], s.colMax[c])
	}
	// Extend parents-first (shorter column sets first): a child's appended ids
	// are derived from its parent's, and the memo's prefix closure guarantees
	// the parent entry is present. Entries of one lattice level have no data
	// dependencies between them, so a level whose work (see extendWork)
	// reaches parallelRows runs on the worker pool — results land in
	// per-entry slots and publish into the memo at the level barrier.
	sort.Slice(entries, func(i, j int) bool { return len(entries[i].cols) < len(entries[j].cols) })
	extendOne := func(ent *memoEntry) *memoEntry {
		if len(ent.cols) == 0 {
			ids := append(ent.g.IDs[:s.n:cap(ent.g.IDs)], make([]int32, fresh)...)
			return &memoEntry{g: &Grouping{IDs: ids, Counts: singleCount(child.total)}}
		}
		parent := child.memo[colsKey(ent.cols[:len(ent.cols)-1])].g
		col := ent.cols[len(ent.cols)-1]
		column := child.cols[col]
		next := ent.next.Swap(nil)
		if next == nil {
			next = s.rebuildProbe(parent, ent.g, col)
		}
		groups := ent.g.Groups()
		// A count-only entry stays count-only: its batch ids go to a slice
		// of the batch's size, read only by extendCounts.
		var ids []int32
		if ent.g.IDs != nil {
			ids = ent.g.IDs[:s.n:cap(ent.g.IDs)]
		} else {
			ids = make([]int32, 0, fresh)
		}
		base := len(ids)
		for i := s.n; i < child.n; i++ {
			pid := parent.IDs[i]
			v := column[i]
			id := next.lookup(pid, v)
			if id < 0 {
				id = int32(groups)
				next.insert(pid, v, id)
				groups++
			}
			ids = append(ids, id)
		}
		g := &Grouping{Counts: extendCounts(ent.g.Counts, ids[base:], groups)}
		if ent.g.IDs != nil {
			g.IDs = ids
		}
		out := &memoEntry{g: g, cols: ent.cols}
		out.next.Store(next)
		return out
	}
	for lo := 0; lo < len(entries); {
		hi := lo + 1
		for hi < len(entries) && len(entries[hi].cols) == len(entries[lo].cols) {
			hi++
		}
		level := entries[lo:hi]
		extended := make([]*memoEntry, len(level))
		forEach(len(level), levelWorkers(s.extendWork(level, fresh), 0), func(i int) {
			extended[i] = extendOne(level[i])
		})
		for _, ent := range extended {
			child.memo[colsKey(ent.cols)] = ent
		}
		lo = hi
	}
	return child
}

// extendWork counts the rows Extend scans for one lattice level: the fresh
// appended rows of every set, plus the parent's n rows for each set whose
// probe is gone (a second Extend of the same snapshot), which rebuildProbe
// re-scans.
func (s *Snapshot) extendWork(level []*memoEntry, fresh int) int {
	work := 0
	for _, ent := range level {
		work += fresh
		if len(ent.cols) > 0 && ent.next.Load() == nil {
			work += s.n
		}
	}
	return work
}
