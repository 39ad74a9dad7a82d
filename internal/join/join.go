// Package join implements the acyclic join machinery: projecting a relation
// onto a schema's bags, materializing the acyclic join ⋈ᵢ R[Ωᵢ] in
// join-tree order, the Yannakakis full reducer, and — crucially for the
// paper's experiments — counting |⋈ᵢ R[Ωᵢ]| by junction-tree message
// passing without materializing the join (the join of an acyclic schema can
// be exponentially larger than its inputs; Figure 1 needs joins of size 10⁶
// whose inputs have 10⁵ rows, and the count is all the loss measure needs).
//
// The count is one bottom-up pass over a rooted join tree, written once, on
// a snapshot's memoized bag and separator groupings: CountSnapshot and
// CountMVD return its total, and NewSampler keeps each tuple's weight from
// the same pass. Its only input is projections of one relation, as the loss
// measure needs (Lemma 4.1).
package join

import (
	"fmt"
	"math"
	"slices"

	"ajdloss/internal/engine"
	"ajdloss/internal/infotheory"
	"ajdloss/internal/jointree"
	"ajdloss/internal/relation"
)

// Projections returns R[Ω₁],…,R[Ω_m] for the bags of the schema.
//
// When r's snapshot engine is warm, the bag groupings are first scheduled
// through one engine plan — parents-first in the subset lattice, on a worker
// pool — so overlapping bags share their refinement prefixes (and reuse
// whatever the entropy measures already memoized); relation.Project then
// reads each bag's distinct rows straight off its grouping. Cold relations
// skip the warm-up and take the plain row-scan path inside Project.
func Projections(r *relation.Relation, s *jointree.Schema) ([]*relation.Relation, error) {
	if snap, ok := r.SnapshotIfWarm(); ok {
		p := snap.Plan()
		for _, bag := range s.Bags() {
			if err := p.AddGrouping(bag...); err != nil {
				return nil, fmt.Errorf("join: planning bag projections: %w", err)
			}
		}
		p.Run(0)
	}
	out := make([]*relation.Relation, s.Len())
	for i, bag := range s.Bags() {
		p, err := r.Project(bag...)
		if err != nil {
			return nil, fmt.Errorf("join: projecting bag %d: %w", i, err)
		}
		out[i] = p
	}
	return out, nil
}

// MaterializeTree computes ⋈ᵢ rels[i] where rels[i] is the relation placed
// on bag i of the join tree. Joining in rooted DFS order guarantees each
// intermediate shares its separator with the accumulated prefix, so no
// unnecessary cross products arise (cross products still occur where the
// tree has empty separators, as they must).
func MaterializeTree(t *jointree.JoinTree, rels []*relation.Relation) (*relation.Relation, error) {
	if len(rels) != t.Len() {
		return nil, fmt.Errorf("join: %d relations for %d bags", len(rels), t.Len())
	}
	rooted, err := jointree.Root(t, 0)
	if err != nil {
		return nil, err
	}
	acc := rels[rooted.Order[0]]
	for i := 1; i < len(rooted.Order); i++ {
		acc = acc.NaturalJoin(rels[rooted.Order[i]])
	}
	return acc, nil
}

// AcyclicJoin projects r onto the schema's bags and materializes the acyclic
// join using a GYO-constructed join tree.
func AcyclicJoin(r *relation.Relation, s *jointree.Schema) (*relation.Relation, error) {
	t, err := jointree.BuildJoinTree(s)
	if err != nil {
		return nil, err
	}
	rels, err := Projections(r, s)
	if err != nil {
		return nil, err
	}
	return MaterializeTree(t, rels)
}

// ErrOverflow is returned when a join cardinality exceeds int64.
var ErrOverflow = fmt.Errorf("join: cardinality overflows int64")

// treePlan is a rooted join tree in DFS order (parent before child) laid
// out for the bottom-up count, the one pass behind CountSnapshot, CountMVD
// and NewSampler. The tuples at position pos are the groups of bags[pos],
// each read at its first row. sep[c] maps every row to its group on the
// separator between c and its parent: a tuple at pos adds its weight to
// msgs[pos] at sep[pos] and reads each child c's message at sep[c]. msgs[c]
// holds one slot per group of that separator. All message passing runs
// over dense integer group IDs: no string keys, no projected relations.
type treePlan struct {
	bags     []*engine.Grouping // by DFS position
	children [][]int            // children[pos]: DFS child positions
	sep      [][]int32          // by DFS position; nil at the root
	msgs     [][]int64
}

// planBags lays out the count over a rooted tree given in DFS order
// (parent[pos] < pos; sep[pos] = bags[pos] ∩ bags[parent[pos]]) on the
// snapshot's groupings. All of them are planned through one engine plan
// first, so overlapping bags and separators share refinements. A row's
// separator group is the same toward the parent and as seen from it, so one
// table of separator IDs serves both ends of an edge.
func planBags(snap *engine.Snapshot, bags [][]string, parent []int, sep [][]string) (*treePlan, error) {
	m := len(bags)
	plan := snap.Plan()
	for pos := 0; pos < m; pos++ {
		if err := plan.AddGrouping(bags[pos]...); err != nil {
			return nil, fmt.Errorf("join: planning bag %d: %w", pos, err)
		}
		if pos > 0 {
			if err := plan.AddGrouping(sep[pos]...); err != nil {
				return nil, fmt.Errorf("join: planning separator %d: %w", pos, err)
			}
		}
	}
	plan.Run(0)
	p := &treePlan{
		bags:     make([]*engine.Grouping, m),
		children: make([][]int, m),
		sep:      make([][]int32, m),
		msgs:     make([][]int64, m),
	}
	for pos := 0; pos < m; pos++ {
		var err error
		if p.bags[pos], err = snap.Grouping(bags[pos]...); err != nil {
			return nil, err
		}
		if pos > 0 {
			g, err := snap.Grouping(sep[pos]...)
			if err != nil {
				return nil, err
			}
			p.sep[pos], p.msgs[pos] = g.IDs, make([]int64, g.Groups())
			p.children[parent[pos]] = append(p.children[parent[pos]], pos)
		}
	}
	return p, nil
}

// count runs the message passing leaves first and returns the join size.
// The message on edge c maps each separator group to the number of join
// extensions in c's subtree consistent with it. A tuple's weight is the
// product of its children's messages in child order. If visit is non-nil,
// it receives every tuple's first row and weight, position by position from
// the last, rows ascending within a position.
//
// Every message is at least 1: each separator group has a row, whose bag
// group is a tuple of the child agreeing with it, and by induction every
// tuple's weight is at least 1. So no weight is 0, the overflow check never
// divides by 0, and overflow is the only error.
func (p *treePlan) count(visit func(pos int, row int32, w int64)) (int64, error) {
	var total int64
	for pos := len(p.children) - 1; pos >= 0; pos-- {
		ids, last := p.bags[pos].IDs, int32(p.bags[pos].Groups())
		// Group IDs are numbered in first-occurrence row order, so row i
		// starts a new group exactly when its ID is the next unseen one,
		// and no row is left to count once the last group has started.
		for i, next := 0, int32(0); next < last; i++ {
			if ids[i] != next {
				continue
			}
			next++
			w := int64(1)
			for _, c := range p.children[pos] {
				cw := p.msgs[c][p.sep[c][i]]
				if w > math.MaxInt64/cw {
					return 0, ErrOverflow
				}
				w *= cw
			}
			if visit != nil {
				visit(pos, int32(i), w)
			}
			sum := &total
			if pos > 0 {
				sum = &p.msgs[pos][p.sep[pos][i]]
			}
			if *sum += w; *sum < 0 {
				return 0, ErrOverflow
			}
		}
	}
	return total, nil
}

// planTree roots t at bag 0 and plans the count over it on snap's
// groupings.
func planTree(snap *engine.Snapshot, t *jointree.JoinTree) (*treePlan, *jointree.Rooted, error) {
	rooted, err := jointree.Root(t, 0)
	if err != nil {
		return nil, nil, err
	}
	bags := make([][]string, len(rooted.Order))
	for pos := range bags {
		bags[pos] = rooted.Bag(pos)
	}
	p, err := planBags(snap, bags, rooted.Parent, rooted.Sep)
	return p, rooted, err
}

// CountAcyclicJoin counts the acyclic join cardinality |⋈ᵢ R[Ωᵢ]| of r's
// current snapshot over a GYO-constructed join tree, without projecting r
// or materializing the join (see CountSnapshot).
func CountAcyclicJoin(r *relation.Relation, s *jointree.Schema) (int64, error) {
	t, err := jointree.BuildJoinTree(s)
	if err != nil {
		return 0, err
	}
	return CountSnapshot(r.Snapshot(), t)
}

// CountSnapshot returns |⋈ᵢ R[Ωᵢ]| over the join tree t, where R is the
// relation snap holds, on the snapshot's memoized groupings instead of on
// projected relations: each bag's distinct rows are the groups of the bag's
// grouping, and a separator's group ID is a function of the bag group (the
// separator is a subset of the bag), so the message passing reads the child
// and parent separator IDs at the first row of each bag group. No projected
// relation, row key or cross-relation alignment is built.
func CountSnapshot(snap *engine.Snapshot, t *jointree.JoinTree) (int64, error) {
	p, _, err := planTree(snap, t)
	if err != nil {
		return 0, err
	}
	return p.count(nil)
}

// CountMVD returns |Π_{XY}(R) ⋈ Π_{XZ}(R)| for the MVD X ↠ Y|Z, where R is
// the relation snap holds: the count over the two-bag join tree {XY, XZ}
// whose separator is the bags' intersection (X when Y and Z are disjoint).
func CountMVD(snap *engine.Snapshot, m jointree.MVD) (int64, error) {
	left := infotheory.Union(m.X, m.Y)
	right := infotheory.Union(m.X, m.Z)
	var sep []string
	for _, a := range left {
		if slices.Contains(right, a) {
			sep = append(sep, a)
		}
	}
	p, err := planBags(snap, [][]string{left, right}, []int{-1, 0}, [][]string{nil, sep})
	if err != nil {
		return 0, err
	}
	return p.count(nil)
}
