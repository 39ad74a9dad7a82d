package join

import (
	"fmt"
	"math/rand/v2"

	"ajdloss/internal/jointree"
	"ajdloss/internal/relation"
)

// Sampler draws uniform random tuples from an acyclic join ⋈ᵢ rels[i]
// without materializing it, by inverting the counting dynamic program: the
// root tuple is drawn with probability proportional to its number of join
// extensions, then each child tuple is drawn conditionally on the separator
// value, top-down. Building the sampler costs the same as CountTree; each
// sample then costs O(Σ bag arity) integer indexing plus one weighted choice
// per bag — the separator buckets are addressed by aligned group-IDs, never
// by string keys.
//
// Together with the loss machinery this answers "show me some spurious
// tuples" for joins far too large to enumerate (e.g. Figure 1 at d = 1000,
// join size 10⁶ from inputs of 9·10⁵).
type Sampler struct {
	plan  *treePlan
	attrs []string // output attribute order (union, DFS-first)
	// cols[pos] holds the columns of the relation at DFS position pos.
	cols [][][]relation.Value
	// weights[pos][i] is the number of join extensions of tuple i of the
	// relation at DFS position pos into pos's subtree.
	weights [][]int64
	// buckets[pos][g] lists tuple indexes of position pos whose aligned
	// separator group (toward the parent) is g; buckets[0] has one bucket.
	buckets [][][]int32
	// totals[pos][g] is the summed weight of bucket g.
	totals [][]int64
	total  int64
}

// NewSampler prepares uniform sampling from ⋈ᵢ rels[i] over the join tree.
// It returns an error if the join is empty, overflows int64, or the inputs
// mismatch the tree.
func NewSampler(t *jointree.JoinTree, rels []*relation.Relation) (*Sampler, error) {
	plan, err := newTreePlan(t, rels)
	if err != nil {
		return nil, err
	}
	m := len(plan.rooted.Order)
	s := &Sampler{
		plan:    plan,
		cols:    make([][][]relation.Value, m),
		weights: make([][]int64, m),
		buckets: make([][][]int32, m),
		totals:  make([][]int64, m),
	}
	// Output attribute order: first occurrence over DFS positions.
	seen := make(map[string]bool)
	for pos := 0; pos < m; pos++ {
		for _, a := range plan.rooted.Bag(pos) {
			if !seen[a] {
				seen[a] = true
				s.attrs = append(s.attrs, a)
			}
		}
	}
	// Bottom-up weights, as in CountTree but retained per tuple.
	for pos := m - 1; pos >= 0; pos-- {
		rel := plan.rels[pos]
		s.cols[pos] = rel.Columns()
		nGroups := 1
		if pos > 0 {
			nGroups = plan.groups[pos]
		}
		weights := make([]int64, rel.N())
		buckets := make([][]int32, nGroups)
		totals := make([]int64, nGroups)
		for i := 0; i < rel.N(); i++ {
			w := int64(1)
			for _, c := range plan.children[pos] {
				cw := s.totals[c][plan.parentIDs[c][i]]
				if cw == 0 {
					w = 0
					break
				}
				var err error
				if w, err = mulCheck(w, cw); err != nil {
					return nil, err
				}
			}
			weights[i] = w
			if w == 0 {
				continue
			}
			g := int32(0)
			if pos > 0 {
				g = plan.childIDs[pos][i]
			}
			buckets[g] = append(buckets[g], int32(i))
			tot, err := addCheck(totals[g], w)
			if err != nil {
				return nil, err
			}
			totals[g] = tot
		}
		s.weights[pos] = weights
		s.buckets[pos] = buckets
		s.totals[pos] = totals
	}
	s.total = s.totals[0][0]
	if s.total == 0 {
		return nil, fmt.Errorf("join: cannot sample from an empty join")
	}
	return s, nil
}

// Attrs returns the attribute order of sampled tuples.
func (s *Sampler) Attrs() []string { return s.attrs }

// JoinSize returns |⋈ᵢ rels[i]|.
func (s *Sampler) JoinSize() int64 { return s.total }

// Sample draws one tuple uniformly from the join.
func (s *Sampler) Sample(rng *rand.Rand) relation.Tuple {
	out := make(relation.Tuple, len(s.attrs))
	outPos := make(map[string]int, len(s.attrs))
	for i, a := range s.attrs {
		outPos[a] = i
	}
	s.sampleNode(rng, 0, 0, out, outPos)
	return out
}

// sampleNode picks a tuple of the relation at DFS position pos within the
// given aligned separator bucket, writes its values into out, and recurses.
func (s *Sampler) sampleNode(rng *rand.Rand, pos int, group int32, out relation.Tuple, outPos map[string]int) {
	bucket := s.buckets[pos][group]
	target := rng.Int64N(s.totals[pos][group])
	var idx int32 = -1
	for _, i := range bucket {
		target -= s.weights[pos][i]
		if target < 0 {
			idx = i
			break
		}
	}
	if idx < 0 {
		// Unreachable: totals are exact sums of bucket weights.
		idx = bucket[len(bucket)-1]
	}
	for i, a := range s.plan.rels[pos].Attrs() {
		out[outPos[a]] = s.cols[pos][i][idx]
	}
	for _, c := range s.plan.children[pos] {
		s.sampleNode(rng, c, s.plan.parentIDs[c][idx], out, outPos)
	}
}

// SampleSpurious draws up to k tuples uniform over the join and returns the
// ones not contained in r (spurious under the schema that produced the
// projections). The expected yield per draw is ρ/(1+ρ).
func SampleSpurious(s *Sampler, r *relation.Relation, rng *rand.Rand, k int) []relation.Tuple {
	cols := make([]int, 0, len(r.Attrs()))
	pos := make(map[string]int, len(s.attrs))
	for i, a := range s.attrs {
		pos[a] = i
	}
	for _, a := range r.Attrs() {
		cols = append(cols, pos[a])
	}
	var out []relation.Tuple
	buf := make(relation.Tuple, len(cols))
	for i := 0; i < k; i++ {
		t := s.Sample(rng)
		for j, c := range cols {
			buf[j] = t[c]
		}
		if !r.Contains(buf) {
			out = append(out, append(relation.Tuple(nil), t...))
		}
	}
	return out
}
