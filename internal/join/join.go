// Package join implements the acyclic join machinery: projecting a relation
// onto a schema's bags, materializing the acyclic join ⋈ᵢ R[Ωᵢ] in
// join-tree order, the Yannakakis full reducer, and — crucially for the
// paper's experiments — counting |⋈ᵢ R[Ωᵢ]| by junction-tree message
// passing without materializing the join (the join of an acyclic schema can
// be exponentially larger than its inputs; Figure 1 needs joins of size 10⁶
// whose inputs have 10⁵ rows, and the count is all the loss measure needs).
//
// The count is one bottom-up pass over a rooted join tree, written once:
// CountTree and NewSampler run it over aligned bag projections, and
// CountSnapshot and CountMVD over a snapshot's memoized bag and separator
// groupings; the sampler keeps each tuple's weight from the same pass.
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
// out for the bottom-up count, the one pass behind CountTree, CountSnapshot,
// CountMVD and NewSampler. Row i of the node at position pos carries
// up[pos][i], its separator group on the edge to its parent (pos ≥ 1), and
// down[c][i], its group on the edge to each child c; msgs[c] holds one
// zeroed slot per group of edge c. With first set, only the first row of each
// group of first[pos] is a tuple of the node (the snapshot path, where a
// bag's rows repeat); otherwise every row of rels[pos] is. All message
// passing runs over dense integer group IDs — no string keys.
type treePlan struct {
	rels     []*relation.Relation // by DFS position; nil on the snapshot path
	first    []*engine.Grouping   // by DFS position; nil on the projection path
	children [][]int              // children[pos]: DFS child positions
	up, down [][]int32
	msgs     [][]int64
}

// newTreePlan roots t at bag 0 and aligns each edge's separator groups
// between the projections at its two ends.
func newTreePlan(t *jointree.JoinTree, rels []*relation.Relation) (*treePlan, *jointree.Rooted, error) {
	if len(rels) != t.Len() {
		return nil, nil, fmt.Errorf("join: %d relations for %d bags", len(rels), t.Len())
	}
	rooted, err := jointree.Root(t, 0)
	if err != nil {
		return nil, nil, err
	}
	m := len(rooted.Order)
	p := &treePlan{
		rels:     make([]*relation.Relation, m),
		children: make([][]int, m),
		up:       make([][]int32, m),
		down:     make([][]int32, m),
		msgs:     make([][]int64, m),
	}
	for pos := 0; pos < m; pos++ {
		p.rels[pos] = rels[rooted.Order[pos]]
	}
	for i := 1; i < m; i++ {
		par := rooted.Parent[i]
		p.children[par] = append(p.children[par], i)
		sep := rooted.Sep[i]
		down, up, groups, err := relation.AlignGroups(p.rels[par], sep, p.rels[i], sep)
		if err != nil {
			return nil, nil, err
		}
		p.up[i], p.down[i], p.msgs[i] = up, down, make([]int64, groups)
	}
	return p, rooted, nil
}

// count runs the message passing leaves first and returns the join size.
// The message on edge c maps each separator group to the number of join
// extensions in c's subtree consistent with it. A tuple's weight is the
// product of its children's messages in child order; it is 0 at the first
// zero message, so a later product that would overflow is never taken. If
// weights is non-nil, weights[pos][i] receives the weight of row i at pos.
func (p *treePlan) count(weights [][]int64) (int64, error) {
	var total int64
	for pos := len(p.children) - 1; pos >= 0; pos-- {
		var ids []int32
		n, last := 0, 0
		if p.first != nil {
			ids, last = p.first[pos].IDs, p.first[pos].Groups()
			n = len(ids)
		} else {
			n = p.rels[pos].N()
		}
		if weights != nil {
			weights[pos] = make([]int64, n)
		}
		// Group IDs are numbered in first-occurrence row order, so row i
		// starts a new group exactly when its ID is the next unseen one,
		// and no row is left to count once the last group has started.
		next := int32(0)
		for i := 0; i < n; i++ {
			if ids != nil {
				if ids[i] != next {
					continue
				}
				if next++; int(next) == last {
					n = i + 1
				}
			}
			w := int64(1)
			for _, c := range p.children[pos] {
				cw := p.msgs[c][p.down[c][i]]
				if cw == 0 {
					w = 0
					break
				}
				if w > math.MaxInt64/cw {
					return 0, ErrOverflow
				}
				w *= cw
			}
			if w == 0 {
				continue
			}
			if weights != nil {
				weights[pos][i] = w
			}
			sum := &total
			if pos > 0 {
				sum = &p.msgs[pos][p.up[pos][i]]
			}
			if *sum += w; *sum < 0 {
				return 0, ErrOverflow
			}
		}
	}
	return total, nil
}

// CountTree returns |⋈ᵢ rels[i]| over the join tree without materializing
// the join, by bottom-up message passing over the aligned projections.
func CountTree(t *jointree.JoinTree, rels []*relation.Relation) (int64, error) {
	plan, _, err := newTreePlan(t, rels)
	if err != nil {
		return 0, err
	}
	return plan.count(nil)
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
// relation snap holds. It is CountTree(t, Projections(R, schema)) computed
// on the snapshot's memoized groupings instead of on projected relations:
// each bag's distinct rows are the groups of the bag's grouping, and a
// separator's group ID is a function of the bag group (the separator is a
// subset of the bag), so the message passing reads the child and parent
// separator IDs at the first row of each bag group. No projected relation,
// row key or cross-relation alignment is built.
func CountSnapshot(snap *engine.Snapshot, t *jointree.JoinTree) (int64, error) {
	rooted, err := jointree.Root(t, 0)
	if err != nil {
		return 0, err
	}
	bags := make([][]string, len(rooted.Order))
	for pos, b := range rooted.Order {
		bags[pos] = t.Bags[b]
	}
	return countBags(snap, bags, rooted.Parent, rooted.Sep)
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
	return countBags(snap, [][]string{left, right}, []int{-1, 0}, [][]string{nil, sep})
}

// countBags is CountTree over a rooted tree given in DFS order
// (parent[pos] < pos; sep[pos] = bags[pos] ∩ bags[parent[pos]]), on the
// snapshot's groupings. All of them are planned through one engine plan
// first, so overlapping bags and separators share refinements. A row's
// separator group is the same toward the parent and as seen from it, so
// up and down are one table of separator IDs.
func countBags(snap *engine.Snapshot, bags [][]string, parent []int, sep [][]string) (int64, error) {
	m := len(bags)
	plan := snap.Plan()
	for pos := 0; pos < m; pos++ {
		if err := plan.AddGrouping(bags[pos]...); err != nil {
			return 0, fmt.Errorf("join: planning bag %d: %w", pos, err)
		}
		if pos > 0 {
			if err := plan.AddGrouping(sep[pos]...); err != nil {
				return 0, fmt.Errorf("join: planning separator %d: %w", pos, err)
			}
		}
	}
	plan.Run(0)
	ids := make([][]int32, m)
	p := &treePlan{
		first:    make([]*engine.Grouping, m),
		children: make([][]int, m),
		up:       ids,
		down:     ids,
		msgs:     make([][]int64, m),
	}
	for pos := 0; pos < m; pos++ {
		var err error
		if p.first[pos], err = snap.Grouping(bags[pos]...); err != nil {
			return 0, err
		}
		if pos > 0 {
			g, err := snap.Grouping(sep[pos]...)
			if err != nil {
				return 0, err
			}
			ids[pos], p.msgs[pos] = g.IDs, make([]int64, g.Groups())
			p.children[parent[pos]] = append(p.children[parent[pos]], pos)
		}
	}
	return p.count(nil)
}
