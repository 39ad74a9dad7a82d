package relation

import "fmt"

// Rename returns a copy of r with attribute old renamed to new. The tuples
// are copied unchanged; only the schema changes.
func (r *Relation) Rename(oldName, newName string) (*Relation, error) {
	p, ok := r.pos[oldName]
	if !ok {
		return nil, fmt.Errorf("relation: unknown attribute %q", oldName)
	}
	if _, clash := r.pos[newName]; clash && newName != oldName {
		return nil, fmt.Errorf("relation: attribute %q already exists", newName)
	}
	attrs := append([]string(nil), r.attrs...)
	attrs[p] = newName
	return fromDistinct(attrs, r.cols, r.n), nil
}

// sameSchema verifies s has exactly r's attributes (any order) and returns
// the column mapping from r's order into s.
func (r *Relation) sameSchema(s *Relation) ([]int, error) {
	if len(r.attrs) != len(s.attrs) {
		return nil, fmt.Errorf("relation: schema arity mismatch %d vs %d", len(r.attrs), len(s.attrs))
	}
	cols := make([]int, len(r.attrs))
	for i, a := range r.attrs {
		p, ok := s.pos[a]
		if !ok {
			return nil, fmt.Errorf("relation: attribute %q missing from %v", a, s.attrs)
		}
		cols[i] = p
	}
	return cols, nil
}

// Union returns r ∪ s over r's attribute order. Schemas must contain the
// same attributes (order may differ).
func (r *Relation) Union(s *Relation) (*Relation, error) {
	cols, err := r.sameSchema(s)
	if err != nil {
		return nil, err
	}
	out := r.Clone()
	buf := make(Tuple, len(cols))
	for i := 0; i < s.n; i++ {
		out.insert(gather(s.cols, cols, i, buf))
	}
	return out, nil
}

// Minus returns r \ s over r's attribute order.
func (r *Relation) Minus(s *Relation) (*Relation, error) {
	if _, err := r.sameSchema(s); err != nil {
		return nil, err
	}
	rIDs, sIDs, groups, err := AlignGroups(r, r.attrs, s, r.attrs)
	if err != nil {
		return nil, err
	}
	inS := make([]bool, groups)
	for _, id := range sIDs {
		inS[id] = true
	}
	return r.subset(func(i int) bool { return !inS[rIDs[i]] }), nil
}

// Intersect returns r ∩ s over r's attribute order.
func (r *Relation) Intersect(s *Relation) (*Relation, error) {
	if _, err := r.sameSchema(s); err != nil {
		return nil, err
	}
	rIDs, sIDs, groups, err := AlignGroups(r, r.attrs, s, r.attrs)
	if err != nil {
		return nil, err
	}
	inS := make([]bool, groups)
	for _, id := range sIDs {
		inS[id] = true
	}
	return r.subset(func(i int) bool { return inS[rIDs[i]] }), nil
}
