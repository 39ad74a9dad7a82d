package join

import (
	"fmt"

	"ajdloss/internal/jointree"
	"ajdloss/internal/relation"
)

// FullReduce performs the Yannakakis full reducer on the per-bag relations:
// an upward semijoin pass (leaves to root) followed by a downward pass (root
// to leaves). Afterwards every dangling tuple — one that cannot participate
// in the global join — has been removed, so intermediate join results grow
// monotonically toward the output. The input slice is not modified; reduced
// copies are returned in bag order.
//
// When the per-bag relations are projections of a single relation onto an
// acyclic schema they are already globally consistent and the reducer is a
// no-op; its value is for joins of independently-sourced relations (and as a
// correctness cross-check: reduction must never change the join result).
func FullReduce(t *jointree.JoinTree, rels []*relation.Relation) ([]*relation.Relation, error) {
	if len(rels) != t.Len() {
		return nil, fmt.Errorf("join: %d relations for %d bags", len(rels), t.Len())
	}
	rooted, err := jointree.Root(t, 0)
	if err != nil {
		return nil, err
	}
	m := len(rooted.Order)
	// byPos[i] is the (reduced) relation at DFS position i.
	byPos := make([]*relation.Relation, m)
	for i := 0; i < m; i++ {
		byPos[i] = rels[rooted.Order[i]]
	}
	// Upward pass: parent ⋉ child, visiting children before parents.
	for i := m - 1; i >= 1; i-- {
		p := rooted.Parent[i]
		byPos[p] = byPos[p].Semijoin(byPos[i])
	}
	// Downward pass: child ⋉ parent.
	for i := 1; i < m; i++ {
		p := rooted.Parent[i]
		byPos[i] = byPos[i].Semijoin(byPos[p])
	}
	out := make([]*relation.Relation, m)
	for i := 0; i < m; i++ {
		out[rooted.Order[i]] = byPos[i]
	}
	return out, nil
}

// YannakakisJoin computes ⋈ᵢ rels[i] with a full-reduction pass first.
func YannakakisJoin(t *jointree.JoinTree, rels []*relation.Relation) (*relation.Relation, error) {
	reduced, err := FullReduce(t, rels)
	if err != nil {
		return nil, err
	}
	return MaterializeTree(t, reduced)
}
