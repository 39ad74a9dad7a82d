package relation

import (
	"fmt"

	"ajdloss/internal/engine"
)

// This file is the delegation layer between the relational substrate and the
// immutable snapshot engine (internal/engine): a Relation or Multiset owns a
// chain of engine.Snapshots, each of which adopts the owner's columns
// without copying them — the head answers queries, Append writes the new
// rows past the head's end and extends the head into a new snapshot
// copy-on-write, and frozen Views pin one snapshot so readers stay on a
// consistent generation with no locks. The group-count machinery itself
// (stripped-partition refinement, per-bitset memo, parents-first
// incremental extension) lives in internal/engine.

// Grouping is the columnar multiset projection produced by the snapshot
// engine; see engine.Grouping. The alias keeps the historical relation-level
// name working.
type Grouping = engine.Grouping

// --- Relation API ---

// Snapshot returns the relation's current engine snapshot, building it over
// the relation's columns on first use. For a frozen View the pinned snapshot
// is returned with no locking; for a live relation the head is read under a
// short mutex (Insert invalidates the head, Append extends it).
func (r *Relation) Snapshot() *engine.Snapshot {
	if r.frozen {
		return r.snap
	}
	r.engMu.Lock()
	defer r.engMu.Unlock()
	if r.snap == nil {
		r.snap = engine.NewSnapshotAt(r.attrs, r.cols, r.n, r.baseGen)
	}
	return r.snap
}

// SetBaseGeneration marks r as the recovered state of the given generation:
// the snapshot head built over its current rows reports gen instead of 1,
// and later Appends continue the chain from there. It must be called before
// the engine is first built (recovery calls it right after reloading the
// checkpointed rows) and never on a frozen View.
func (r *Relation) SetBaseGeneration(gen int64) {
	if r.frozen {
		panic("relation: SetBaseGeneration on a frozen View")
	}
	r.engMu.Lock()
	defer r.engMu.Unlock()
	if r.snap != nil {
		panic("relation: SetBaseGeneration after the engine was built")
	}
	r.baseGen = gen
}

// SnapshotIfWarm returns the current snapshot only if the engine has
// already been built — callers that merely want to *reuse* warm partitions
// (e.g. grouping-based projection) use this to avoid building an engine and
// its groupings on cold one-shot paths.
func (r *Relation) SnapshotIfWarm() (*engine.Snapshot, bool) {
	if r.frozen {
		return r.snap, true
	}
	r.engMu.Lock()
	defer r.engMu.Unlock()
	return r.snap, r.snap != nil
}

// Generation returns the generation of the relation's current snapshot:
// 1 for a freshly built engine, +1 per row-adding Append. A frozen View
// reports the generation of its pinned snapshot.
func (r *Relation) Generation() int64 {
	return r.Snapshot().Generation()
}

// Grouping returns the memoized columnar grouping of r onto attrs. The
// returned value is shared and frozen: callers must not modify it, and later
// appends never change it (they extend a new snapshot instead).
func (r *Relation) Grouping(attrs ...string) (*Grouping, error) {
	return r.Snapshot().Grouping(attrs...)
}

// GroupCounts returns a fresh copy of the multiplicities of the multiset
// projection of r onto attrs, indexed by dense group id, for tests and
// diagnostics; measures read Grouping(attrs...).Counts.
func (r *Relation) GroupCounts(attrs ...string) ([]int, error) {
	return r.Snapshot().GroupCounts(attrs...)
}

// GroupEntropy returns H(attrs) in nats under r's empirical distribution,
// memoized per attribute set. It implements infotheory.Source.
func (r *Relation) GroupEntropy(attrs ...string) (float64, error) {
	return r.Snapshot().GroupEntropy(attrs...)
}

// --- Multiset API ---

// Snapshot returns the multiset's engine snapshot, building it lazily.
// Weighted snapshots cannot be extended; Add invalidates and the next query
// rebuilds.
func (m *Multiset) Snapshot() *engine.Snapshot {
	m.engMu.Lock()
	defer m.engMu.Unlock()
	if m.snap == nil {
		m.snap = engine.NewWeightedSnapshot(m.attrs, m.cols, m.mult, int(m.total))
	}
	return m.snap
}

// Grouping returns the memoized columnar grouping of m onto attrs, with
// multiplicity-weighted counts. The returned value is shared: callers must
// not modify it.
func (m *Multiset) Grouping(attrs ...string) (*Grouping, error) {
	return m.Snapshot().Grouping(attrs...)
}

// GroupCounts returns a fresh copy of the multiplicities of the multiset
// projection onto attrs, indexed by dense group id, for tests and
// diagnostics; measures read Grouping(attrs...).Counts.
func (m *Multiset) GroupCounts(attrs ...string) ([]int, error) {
	return m.Snapshot().GroupCounts(attrs...)
}

// GroupEntropy returns H(attrs) in nats under m's empirical distribution,
// memoized per attribute set. It implements infotheory.Source.
func (m *Multiset) GroupEntropy(attrs ...string) (float64, error) {
	return m.Snapshot().GroupEntropy(attrs...)
}

// --- cross-relation alignment ---

// AlignGroups computes a joint grouping over the rows of r projected onto
// rAttrs and the rows of s projected onto sAttrs (the two lists must have
// equal length; position i of one is matched with position i of the other).
// It returns dense group ids for every row of r and of s in a shared id
// space: r.Row(i) and s.Row(j) agree on the projection iff
// rIDs[i] == sIDs[j]. This is the bucketing primitive behind joins,
// semijoins and set operations — no string keys are materialized.
func AlignGroups(r *Relation, rAttrs []string, s *Relation, sAttrs []string) (rIDs, sIDs []int32, groups int, err error) {
	if len(rAttrs) != len(sAttrs) {
		return nil, nil, 0, fmt.Errorf("relation: AlignGroups arity mismatch %d vs %d", len(rAttrs), len(sAttrs))
	}
	rCols, err := r.columns(rAttrs)
	if err != nil {
		return nil, nil, 0, err
	}
	sCols, err := s.columns(sAttrs)
	if err != nil {
		return nil, nil, 0, err
	}
	// Read the key columns directly: alignments are one-shot (per join or
	// set-op call), so memoizing their groupings in the engines would only
	// pin memory.
	return alignColumns(r.cols, r.n, rCols, s.cols, s.n, sCols)
}

// alignColumns refines the trivial joint grouping of the first aN rows of
// aCols and the first bN rows of bCols one column pair (aIdx[c], bIdx[c])
// at a time.
func alignColumns(aCols [][]Value, aN int, aIdx []int, bCols [][]Value, bN int, bIdx []int) (aIDs, bIDs []int32, groups int, err error) {
	aIDs = make([]int32, aN)
	bIDs = make([]int32, bN)
	if aN+bN == 0 {
		return aIDs, bIDs, 0, nil
	}
	groups = 1
	for c := range aIdx {
		next := make(map[uint64]int32, groups*2)
		n := 0
		assign := func(ids []int32, col []Value) {
			for i := range ids {
				k := uint64(uint32(ids[i]))<<32 | uint64(uint32(col[i]))
				id, ok := next[k]
				if !ok {
					id = int32(n)
					next[k] = id
					n++
				}
				ids[i] = id
			}
		}
		assign(aIDs, aCols[aIdx[c]])
		assign(bIDs, bCols[bIdx[c]])
		groups = n
	}
	return aIDs, bIDs, groups, nil
}
