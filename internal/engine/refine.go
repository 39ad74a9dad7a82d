package engine

import (
	"runtime"
	"sync/atomic"
)

// This file holds the partition-refinement machinery shared by cold grouping
// construction, Extend, and the batch planner: a probe structure that maps
// (parent group id, column value) pairs to child group ids — dense-table
// backed when the value domain is small, hash-map backed otherwise — and
// the serial scan that refines one lattice node. When the probe is dense,
// every (parent id, value) pair of the scan lies inside the table, so the
// scan is one indexed load per row with no range checks or map fallback; it
// assigns ids in one pass and counts groups in a second, or, for a
// count-only grouping, counts in the pass that assigns. Parallelism
// lives one level up, across the independent nodes of a plan level and
// across batch queries. A single scan is not split across workers: inside
// levels that already run in parallel, per-chunk probe tables and a merge
// pass cost more than they save.

// maxProcsCap, when > 0, caps the engine's worker pool (see SetMaxProcs).
// Zero means "up to GOMAXPROCS". Set once at process start (cmd/ajdlossd
// -procs); reads are atomic so tests can flip it safely.
var maxProcsCap atomic.Int32

// SetMaxProcs caps the engine's worker pool at n goroutines (n <= 0
// restores the default, GOMAXPROCS). The pool runs the nodes of a plan level
// (batch queries and discovery's plans included) and the sets of an Extend
// level, once the level's work reaches parallelRows rows; smaller levels,
// and each node's refinement, run serially. The cap bounds CPU usage per
// operation, not correctness: results are bit-identical at every setting.
func SetMaxProcs(n int) {
	if n < 0 {
		n = 0
	}
	maxProcsCap.Store(int32(n))
}

// maxWorkers resolves a requested worker count (<= 0 means "default")
// against GOMAXPROCS and the SetMaxProcs cap.
func maxWorkers(requested int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if cap := int(maxProcsCap.Load()); cap > 0 && w > cap {
		w = cap
	}
	if w < 1 {
		w = 1
	}
	return w
}

// probeKeyShift packs (parent id, value) into one uint64 map key; both
// halves are 32-bit so the pairing is injective.
const probeKeyShift = 32

// probeKey packs a (parent group id, column value) pair into one map key.
func probeKey(parent int32, val Value) uint64 {
	return uint64(uint32(parent))<<probeKeyShift | uint64(uint32(val))
}

// probe maps (parent group id, column value) pairs to dense child group ids.
// Two representations share one interface:
//
//   - dense: a flat []int32 table indexed parent*width+value, used when the
//     column's values are small non-negative ints (dictionary encoding makes
//     this the overwhelmingly common case) and the table fits the budget.
//     Slots hold id+1, so the zeroed table make returns already reads as
//     "absent" and needs no fill pass. Lookups are one multiply-add and a
//     load — roughly an order of magnitude cheaper than map operations,
//     which dominated refinement.
//   - m: the map fallback for wide/negative domains or huge parent counts.
//
// A dense probe can still absorb values >= width and parent groups born
// after it was sized (a later Extend may append rows with fresh dictionary
// codes): they spill into the overflow map. Extend hands a probe from a
// snapshot to its child and probes it in place, so it is never copied.
type probe struct {
	width int32 // dense stride (max value + 1); 0 = map-only form
	dense []int32
	m     map[uint64]int32
}

// denseProbeBudget bounds the dense table size for an n-row refinement:
// generously larger than n (so low-cardinality lattice levels stay dense)
// but never unbounded, since parents × width can explode combinatorially on
// near-key attribute sets.
func denseProbeBudget(n int) int {
	b := 8*n + 1024
	const maxBudget = 1 << 22 // 16 MiB of int32 per live probe, worst case
	if b > maxBudget {
		b = maxBudget
	}
	return b
}

// newProbe sizes a probe for a refinement of parents groups by a column
// whose values fit [0, width); width <= 0 forces the map form. hint is the
// expected number of entries for the map form.
func newProbe(parents int, width int32, budget, hint int) *probe {
	if width > 0 && parents > 0 && int64(parents)*int64(width) <= int64(budget) {
		return &probe{width: width, dense: make([]int32, parents*int(width))}
	}
	return &probe{m: make(map[uint64]int32, hint)}
}

// lookup returns the child id for (parent, val), or -1 when absent. Pairs
// outside the dense table — a value beyond the refine-time maximum or a
// parent group born in a later Extend — live in the overflow map.
func (p *probe) lookup(parent int32, val Value) int32 {
	if p.dense != nil && val >= 0 && val < p.width {
		if idx := int(parent)*int(p.width) + int(val); idx < len(p.dense) {
			return p.dense[idx] - 1
		}
	}
	if id, ok := p.m[probeKey(parent, val)]; ok {
		return id
	}
	return -1
}

// insert records (parent, val) -> id. The pair is absent, or already maps
// to id (rebuildProbe re-records every row).
func (p *probe) insert(parent int32, val Value, id int32) {
	if p.dense != nil && val >= 0 && val < p.width {
		if idx := int(parent)*int(p.width) + int(val); idx < len(p.dense) {
			p.dense[idx] = id + 1
			return
		}
	}
	if p.m == nil {
		p.m = make(map[uint64]int32)
	}
	p.m[probeKey(parent, val)] = id
}

// refine splits every group of parent by the values of column col in one
// sequential scan. New group ids are assigned in first-occurrence row order,
// which makes the result — and everything derived from it — deterministic
// and independent of the worker count. The probe is returned alongside so
// Extend can probe it for appended rows: incremental and from-scratch
// construction assign identical ids because both follow stored row order.
//
// With withIDs, a first pass assigns the ids and a second sums each group's
// rows (or row weights) into Counts, whose chunks share one backing array.
// Without it (unweighted snapshots only; a weighted one builds its ids
// anyway) the grouping is count-only: one pass assigns each row's id in the
// probe and counts it, and no row id is stored. The probe still maps every
// row to its id, so Extend can place appended rows.
func (s *Snapshot) refine(parent *Grouping, col int, withIDs bool) (*Grouping, *probe) {
	pr := newProbe(parent.Groups(), s.probeWidth(col), denseProbeBudget(s.n), parent.Groups()*2)
	pids, column := parent.IDs[:s.n], s.cols[col][:s.n]
	if !withIDs && s.weights == nil {
		var tally []int
		if pr.dense != nil {
			tally = make([]int, min(s.n, len(pr.dense)))
			tally = tally[:countDense(pr, pids, column, tally)]
		} else {
			tally = countMap(pr, pids, column)
		}
		counts, flat := newCounts(len(tally))
		copy(flat, tally)
		return &Grouping{Counts: counts}, pr
	}
	ids := make([]int32, s.n, s.n+extendHeadroom(s.n))
	var groups int
	if pr.dense != nil {
		groups = refineDense(pr, pids, column, ids)
	} else {
		groups = refineMap(pr, pids, column, ids)
	}
	counts, flat := newCounts(groups)
	if s.weights == nil {
		for _, id := range ids {
			flat[id]++
		}
	} else {
		for i, id := range ids {
			flat[id] += int(s.weights[i])
		}
	}
	return &Grouping{IDs: ids, Counts: counts}, pr
}

// refineDense is refine's id pass over a dense probe sized for every parent
// group and every value of the column, so each (parent id, value) pair
// indexes the table directly. It writes each row's child id into ids and
// returns the number of child groups. Whether a row opens a new group
// follows the data, so the pass has no branch on it: the next id is picked
// by a conditional move and the slot is stored on every row.
func refineDense(pr *probe, pids []int32, column []Value, ids []int32) int {
	dense, width := pr.dense, int(pr.width)
	ids = ids[:len(pids)]
	column = column[:len(pids)]
	var groups int32
	for i, pid := range pids {
		slot := &dense[int(pid)*width+int(column[i])]
		id, next := *slot, groups+1
		if id == 0 {
			id, groups = next, next
		}
		*slot = id
		ids[i] = id - 1
	}
	return int(groups)
}

// countDense is refineDense for a count-only grouping: it adds one to
// tally[id] for each row's child id instead of storing the id. tally must
// have room for every child group.
func countDense(pr *probe, pids []int32, column []Value, tally []int) int {
	dense, width := pr.dense, int(pr.width)
	column = column[:len(pids)]
	var groups int32
	for i, pid := range pids {
		slot := &dense[int(pid)*width+int(column[i])]
		id, next := *slot, groups+1
		if id == 0 {
			id, groups = next, next
		}
		*slot = id
		tally[id-1]++
	}
	return int(groups)
}

// refineMap is refine's id pass over a map-form probe.
func refineMap(pr *probe, pids []int32, column []Value, ids []int32) int {
	var groups int32
	for i, pid := range pids {
		v := column[i]
		id := pr.lookup(pid, v)
		if id < 0 {
			id = groups
			pr.insert(pid, v, id)
			groups++
		}
		ids[i] = id
	}
	return int(groups)
}

// countMap is refineMap for a count-only grouping: it returns each child
// group's row count, indexed by id, grown as groups open.
func countMap(pr *probe, pids []int32, column []Value) []int {
	var tally []int
	for i, pid := range pids {
		v := column[i]
		id := pr.lookup(pid, v)
		if id < 0 {
			id = int32(len(tally))
			pr.insert(pid, v, id)
			tally = append(tally, 0)
		}
		tally[id]++
	}
	return tally
}

// rebuildProbe reconstructs the probe of g, the refinement of parent by
// column col, over this snapshot's n rows: one insert per row, no lookups,
// or a count-only refinement when g holds no row ids. parent may cover more
// rows than the snapshot (the child's grouping of the prefix set); only its
// first n ids are read, and they equal this snapshot's. Extend needs it only
// when the probe has already moved to another child, i.e. on a second Extend
// of the same snapshot.
func (s *Snapshot) rebuildProbe(parent, g *Grouping, col int) *probe {
	if g.IDs == nil {
		_, pr := s.refine(parent, col, false)
		return pr
	}
	pr := newProbe(parent.Groups(), s.probeWidth(col), denseProbeBudget(s.n), g.Groups())
	column := s.cols[col]
	for i := 0; i < s.n; i++ {
		pr.insert(parent.IDs[i], column[i], g.IDs[i])
	}
	return pr
}

// probeWidth returns the dense-probe stride for column col (its max value
// + 1), or 0 when the column holds negative values and must use map probes.
func (s *Snapshot) probeWidth(col int) int32 {
	if s.colMin[col] < 0 {
		return 0
	}
	return s.colMax[col] + 1
}

// extendHeadroom is the spare capacity grouping ID slices reserve beyond the
// current row count, so a typical streaming append batch extends memoized
// groupings in place (writes beyond the parent's length, which the parent
// never reads) instead of reallocating every ID slice per batch.
func extendHeadroom(n int) int {
	h := n / 64
	if h < 64 {
		h = 64
	}
	return h
}
