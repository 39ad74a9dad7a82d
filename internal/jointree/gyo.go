package jointree

import (
	"fmt"

	"ajdloss/internal/bitset"
)

// IsAcyclic reports whether the schema is acyclic (α-acyclic), i.e. admits a
// join tree, using the GYO ear-removal algorithm.
func IsAcyclic(s *Schema) bool {
	_, err := BuildJoinTree(s)
	return err == nil
}

// BuildJoinTree runs the GYO reduction on s and returns a join tree whose
// bags are exactly s's bags (in order). It returns an error if the schema is
// cyclic. Disconnected schemas are handled by joining components with
// empty-separator edges (a valid join tree: the acyclic join then contains
// the corresponding cross product, exactly as the paper's Example 4.1).
func BuildJoinTree(s *Schema) (*JoinTree, error) {
	m := s.Len()
	v := newVocabulary(s)
	reduced := make([]bitset.Set, m)
	for i, bag := range s.bags {
		reduced[i] = v.set(bag)
	}
	alive := make([]bool, m)
	for i := range alive {
		alive[i] = true
	}
	aliveCount := m
	var edges [][2]int

	// occurrences returns how many alive bags contain attribute id.
	occurrences := func(id int) (count, holder int) {
		for i := range reduced {
			if alive[i] && reduced[i].Contains(id) {
				count++
				holder = i
			}
		}
		return
	}

	for aliveCount > 1 {
		changed := false
		// Rule 1: delete attributes occurring in exactly one alive bag.
		for id := range v.names {
			if c, holder := occurrences(id); c == 1 {
				reduced[holder].Remove(id)
				changed = true
			}
		}
		// Rule 2: delete a bag whose reduced set is contained in another
		// alive bag's reduced set; record the witness as its tree neighbor.
		for i := 0; i < m && aliveCount > 1; i++ {
			if !alive[i] {
				continue
			}
			for j := 0; j < m; j++ {
				if i == j || !alive[j] {
					continue
				}
				if reduced[i].SubsetOf(reduced[j]) {
					alive[i] = false
					aliveCount--
					edges = append(edges, [2]int{i, j})
					changed = true
					break
				}
			}
		}
		if !changed {
			return nil, fmt.Errorf("jointree: schema %s is cyclic (GYO reduction stuck with %d bags)", s, aliveCount)
		}
	}
	t := &JoinTree{Bags: s.bags, Edges: edges}
	if err := t.Validate(); err != nil {
		// Should not happen for a correct GYO construction; surface loudly.
		return nil, fmt.Errorf("jointree: GYO produced an invalid tree: %w", err)
	}
	return t, nil
}
