package relation

// joinPlan precomputes the column bookkeeping for a natural join of r ⋈ s:
// the shared attributes (join key) and the s-columns that are not in r.
type joinPlan struct {
	outAttrs []string
	keyAttrs []string // shared attributes, in r's order
	sRest    []int    // s columns appended after r's columns
}

func newJoinPlan(r, s *Relation) joinPlan {
	var p joinPlan
	p.outAttrs = append(p.outAttrs, r.attrs...)
	for _, a := range r.attrs {
		if s.HasAttr(a) {
			p.keyAttrs = append(p.keyAttrs, a)
		}
	}
	for i, a := range s.attrs {
		if !r.HasAttr(a) {
			p.sRest = append(p.sRest, i)
			p.outAttrs = append(p.outAttrs, a)
		}
	}
	return p
}

// NaturalJoin returns r ⋈ s (natural join on all shared attributes). If the
// relations share no attributes the result is the cross product. Matching
// rows are bucketed by aligned group-IDs, never by string keys.
func (r *Relation) NaturalJoin(s *Relation) *Relation {
	p := newJoinPlan(r, s)
	out := New(p.outAttrs...)
	rIDs, sIDs, groups, err := AlignGroups(r, p.keyAttrs, s, p.keyAttrs)
	if err != nil {
		panic(err) // unreachable: keyAttrs are shared by construction
	}
	// Bucket s's row indexes by aligned join-key group.
	buckets := make([][]int32, groups)
	for j, id := range sIDs {
		buckets[id] = append(buckets[id], int32(j))
	}
	arity := len(r.attrs)
	row := make(Tuple, len(p.outAttrs))
	for i := 0; i < r.n; i++ {
		matches := buckets[rIDs[i]]
		if len(matches) == 0 {
			continue
		}
		rowAt(r.cols, i, row[:arity])
		for _, j := range matches {
			for k, c := range p.sRest {
				row[arity+k] = s.cols[c][j]
			}
			out.insert(row)
		}
	}
	return out
}

// JoinCount returns |r ⋈ s| without materializing the join.
func (r *Relation) JoinCount(s *Relation) int64 {
	p := newJoinPlan(r, s)
	rIDs, sIDs, groups, err := AlignGroups(r, p.keyAttrs, s, p.keyAttrs)
	if err != nil {
		panic(err) // unreachable: keyAttrs are shared by construction
	}
	counts := make([]int64, groups)
	for _, id := range sIDs {
		counts[id]++
	}
	var total int64
	for _, id := range rIDs {
		total += counts[id]
	}
	return total
}

// Semijoin returns r ⋉ s: the tuples of r that join with at least one tuple
// of s on the shared attributes.
func (r *Relation) Semijoin(s *Relation) *Relation {
	var keyAttrs []string
	for _, a := range r.attrs {
		if s.HasAttr(a) {
			keyAttrs = append(keyAttrs, a)
		}
	}
	if len(keyAttrs) == 0 {
		// No shared attributes: r ⋉ s is r if s nonempty, else empty.
		if s.N() == 0 {
			return New(r.attrs...)
		}
		return r.Clone()
	}
	rIDs, sIDs, groups, err := AlignGroups(r, keyAttrs, s, keyAttrs)
	if err != nil {
		panic(err) // unreachable: keyAttrs are shared by construction
	}
	present := make([]bool, groups)
	for _, id := range sIDs {
		present[id] = true
	}
	return r.subset(func(i int) bool { return present[rIDs[i]] })
}
