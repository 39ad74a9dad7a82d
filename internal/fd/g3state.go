package fd

import (
	"fmt"

	"ajdloss/internal/infotheory"
)

// G3State is the retained integer state of one FD's g₃ computation across
// the appends of a snapshot chain: best[g] is the largest X∪Y-group count
// among rows whose X-group is g, and keep is Σ best. Its Advance holds the
// module's one g₃ loop: G3Error is the first Advance of a fresh state, a
// full scan. Group IDs are a pure function of stored-row order (extension
// assigns exactly the IDs a from-scratch rebuild would), so advancing the
// state over just the appended rows reproduces the full scan's integers and
// the resulting g₃ is bit-identical to a cold G3Error at every generation.
// This is what turns warm FD discovery from O(n) per candidate per request
// into O(appended batch).
//
// Why the appended range suffices: an X∪Y-group's count only changes when an
// appended row lands in it, and every such row is scanned against the
// group's *final* count; groups no appended row touched keep their old
// count, which the previous maximum already dominates.
//
// The zero value is ready to use. A state is bound to one FD over one
// append-only row sequence: Advance must only be called with sources whose
// first Rows() entries are the rows previously folded (successive views of
// the same dataset's snapshot chain), and advancing requires unweighted
// sources (N() equal to the number of stored rows); a fresh state's first
// Advance, which is all G3Error does, also answers weighted ones. Not safe
// for concurrent use; callers lock around it.
type G3State struct {
	rows int   // stored rows folded in so far
	keep int   // Σ best, maintained exactly
	best []int // per X-group id: largest XY-group count among its rows
}

// Rows returns how many stored rows have been folded into the state.
func (st *G3State) Rows() int { return st.rows }

// Advance folds the source's rows beyond the state's horizon into the state
// and returns g₃(f) at the source's current generation, bit-identical to
// G3Error(r, f). Only the appended row range [Rows(), r.N()) is read, plus
// the memoized groupings. ok is false — with the state untouched — when the
// source is older than the state (a stale view); callers fall back to a
// stateless G3Error against that view.
func (st *G3State) Advance(r Source, f FD) (g3 float64, ok bool, err error) {
	n := r.N()
	if n < st.rows {
		return 0, false, nil
	}
	if n == 0 {
		return 0, false, fmt.Errorf("fd: g3 of an empty relation is undefined")
	}
	if len(f.Y) == 0 {
		st.rows = n
		return 0, true, nil
	}
	gx, err := r.Grouping(f.X...)
	if err != nil {
		return 0, false, err
	}
	gxy, err := r.Grouping(infotheory.Union(f.X, f.Y)...)
	if err != nil {
		return 0, false, err
	}
	if grow := gx.Groups() - len(st.best); grow > 0 {
		st.best = append(st.best, make([]int, grow)...)
	}
	// Keep each X-group's most frequent Y-value: a row's X∪Y-group count
	// raises its X-group's best, and keep follows Σ best. best[g] is always
	// stored, so the scan has no data-dependent branch (on random data a
	// branch on a new best mispredicts, which cost more than At's loads).
	rows := len(gxy.IDs) // stored rows; n counts multiplicities
	best, keep := st.best, st.keep
	xs, xys := gx.IDs[st.rows:rows], gxy.IDs[st.rows:rows]
	for i, h := range xys {
		g := xs[i]
		b := best[g]
		nb := max(b, gxy.Counts.At(int(h)))
		best[g] = nb
		keep += nb - b
	}
	st.keep, st.rows = keep, rows
	return float64(n-st.keep) / float64(n), true, nil
}
