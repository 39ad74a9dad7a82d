// Package join implements the acyclic join machinery: projecting a relation
// onto a schema's bags, materializing the acyclic join ⋈ᵢ R[Ωᵢ] in
// join-tree order, the Yannakakis full reducer, and — crucially for the
// paper's experiments — counting |⋈ᵢ R[Ωᵢ]| by junction-tree message
// passing without materializing the join (the join of an acyclic schema can
// be exponentially larger than its inputs; Figure 1 needs joins of size 10⁶
// whose inputs have 10⁵ rows, and the count is all the loss measure needs).
package join

import (
	"fmt"
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

func mulCheck(a, b int64) (int64, error) {
	if a == 0 || b == 0 {
		return 0, nil
	}
	c := a * b
	if c/b != a || c < 0 {
		return 0, ErrOverflow
	}
	return c, nil
}

func addCheck(a, b int64) (int64, error) {
	c := a + b
	if c < 0 {
		return 0, ErrOverflow
	}
	return c, nil
}

// treePlan precomputes, for a rooted join tree, the child lists and the
// per-edge group alignments between each node's relation and its parent's
// relation on the separator attributes. All message passing then runs over
// dense integer group-IDs — no string keys.
type treePlan struct {
	rooted   *jointree.Rooted
	rels     []*relation.Relation // by DFS position
	children [][]int              // children[pos]: DFS child positions
	// For pos ≥ 1, edge pos→parent: childIDs[pos][i] is the aligned
	// separator group of row i of the relation at pos; parentIDs[pos][i] the
	// aligned group of row i of the parent's relation; groups[pos] the size
	// of the shared id space.
	childIDs  [][]int32
	parentIDs [][]int32
	groups    []int
}

func newTreePlan(t *jointree.JoinTree, rels []*relation.Relation) (*treePlan, error) {
	if len(rels) != t.Len() {
		return nil, fmt.Errorf("join: %d relations for %d bags", len(rels), t.Len())
	}
	rooted, err := jointree.Root(t, 0)
	if err != nil {
		return nil, err
	}
	m := len(rooted.Order)
	p := &treePlan{
		rooted:    rooted,
		rels:      make([]*relation.Relation, m),
		children:  make([][]int, m),
		childIDs:  make([][]int32, m),
		parentIDs: make([][]int32, m),
		groups:    make([]int, m),
	}
	for pos := 0; pos < m; pos++ {
		p.rels[pos] = rels[rooted.Order[pos]]
	}
	for i := 1; i < m; i++ {
		par := rooted.Parent[i]
		p.children[par] = append(p.children[par], i)
		sep := rooted.Sep[i]
		parentIDs, childIDs, groups, err := relation.AlignGroups(p.rels[par], sep, p.rels[i], sep)
		if err != nil {
			return nil, err
		}
		p.parentIDs[i] = parentIDs
		p.childIDs[i] = childIDs
		p.groups[i] = groups
	}
	return p, nil
}

// CountTree returns |⋈ᵢ rels[i]| over the join tree without materializing
// the join, by bottom-up message passing: the message from a node to its
// parent maps each aligned separator group to the number of join extensions
// in the node's subtree consistent with that separator value.
func CountTree(t *jointree.JoinTree, rels []*relation.Relation) (int64, error) {
	plan, err := newTreePlan(t, rels)
	if err != nil {
		return 0, err
	}
	m := len(plan.rooted.Order)
	// messages[pos]: extension count per aligned separator group of edge pos.
	messages := make([][]int64, m)

	// aggregate computes the subtree weight of every tuple at pos and either
	// sums weights into the edge message (pos ≥ 1) or returns the total.
	aggregate := func(pos int) (int64, error) {
		rel := plan.rels[pos]
		var out []int64
		if pos > 0 {
			out = make([]int64, plan.groups[pos])
		}
		var total int64
		for i := 0; i < rel.N(); i++ {
			w := int64(1)
			ok := true
			for _, c := range plan.children[pos] {
				cw := messages[c][plan.parentIDs[c][i]]
				if cw == 0 {
					ok = false
					break
				}
				var err error
				if w, err = mulCheck(w, cw); err != nil {
					return 0, err
				}
			}
			if !ok {
				continue
			}
			if pos > 0 {
				g := plan.childIDs[pos][i]
				s, err := addCheck(out[g], w)
				if err != nil {
					return 0, err
				}
				out[g] = s
			} else {
				var err error
				if total, err = addCheck(total, w); err != nil {
					return 0, err
				}
			}
		}
		messages[pos] = out
		return total, nil
	}

	// Process in reverse DFS order (leaves first).
	for pos := m - 1; pos >= 1; pos-- {
		if _, err := aggregate(pos); err != nil {
			return 0, err
		}
	}
	return aggregate(0)
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

// countBags is the message passing of CountTree over a rooted tree given in
// DFS order (parent[pos] < pos; sep[pos] = bags[pos] ∩ bags[parent[pos]]),
// on the snapshot's groupings. All of them are planned through one engine
// plan first, so overlapping bags and separators share refinements.
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
	bagG := make([]*engine.Grouping, m)
	sepG := make([]*engine.Grouping, m)
	children := make([][]int, m)
	for pos := 0; pos < m; pos++ {
		var err error
		if bagG[pos], err = snap.Grouping(bags[pos]...); err != nil {
			return 0, err
		}
		if pos > 0 {
			if sepG[pos], err = snap.Grouping(sep[pos]...); err != nil {
				return 0, err
			}
			children[parent[pos]] = append(children[parent[pos]], pos)
		}
	}
	// messages[pos]: extension count per separator group of edge pos.
	messages := make([][]int64, m)
	var total int64
	// Leaves first: every child's message is complete before its parent runs.
	for pos := m - 1; pos >= 0; pos-- {
		var out []int64
		if pos > 0 {
			out = make([]int64, sepG[pos].Groups())
		}
		g := bagG[pos]
		// Group IDs are numbered in first-occurrence row order, so row i
		// starts a new bag group exactly when its ID is the next unseen one.
		next := int32(0)
		for i, b := range g.IDs {
			if b != next {
				continue
			}
			next++
			w := int64(1)
			for _, c := range children[pos] {
				cw := messages[c][sepG[c].IDs[i]]
				var err error
				if w, err = mulCheck(w, cw); err != nil {
					return 0, err
				}
				if w == 0 {
					break
				}
			}
			var err error
			if pos > 0 {
				id := sepG[pos].IDs[i]
				out[id], err = addCheck(out[id], w)
			} else {
				total, err = addCheck(total, w)
			}
			if err != nil {
				return 0, err
			}
			if int(next) == g.Groups() {
				break
			}
		}
		messages[pos] = out
	}
	return total, nil
}
