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
// value, top-down. Building the sampler is CountTree's pass, keeping each
// tuple's weight; each sample then costs O(Σ bag arity) integer indexing
// plus one weighted choice per bag — the separator buckets are addressed by
// aligned group-IDs, never by string keys.
//
// Together with the loss machinery this answers "show me some spurious
// tuples" for joins far too large to enumerate (e.g. Figure 1 at d = 1000,
// join size 10⁶ from inputs of 9·10⁵).
type Sampler struct {
	// plan.msgs[pos][g] is the summed weight of bucket g; plan.msgs[0] holds
	// the root's one bucket.
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
}

// NewSampler prepares uniform sampling from ⋈ᵢ rels[i] over the join tree.
// It runs the counting pass CountTree runs, keeping every tuple's weight and
// every edge's message, and then files each tuple of nonzero weight under
// its separator group. It returns an error if the join is empty, overflows
// int64, or the inputs mismatch the tree.
func NewSampler(t *jointree.JoinTree, rels []*relation.Relation) (*Sampler, error) {
	plan, rooted, err := newTreePlan(t, rels)
	if err != nil {
		return nil, err
	}
	m := len(rooted.Order)
	s := &Sampler{
		plan:    plan,
		cols:    make([][][]relation.Value, m),
		weights: make([][]int64, m),
		buckets: make([][][]int32, m),
	}
	total, err := plan.count(s.weights)
	if err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("join: cannot sample from an empty join")
	}
	plan.msgs[0] = []int64{total}
	// Output attribute order: first occurrence over DFS positions.
	seen := make(map[string]bool)
	for pos := 0; pos < m; pos++ {
		for _, a := range rooted.Bag(pos) {
			if !seen[a] {
				seen[a] = true
				s.attrs = append(s.attrs, a)
			}
		}
		s.cols[pos] = plan.rels[pos].Columns()
		s.buckets[pos] = make([][]int32, len(plan.msgs[pos]))
		for i, w := range s.weights[pos] {
			if w != 0 {
				g := int32(0)
				if pos > 0 {
					g = plan.up[pos][i]
				}
				s.buckets[pos][g] = append(s.buckets[pos][g], int32(i))
			}
		}
	}
	return s, nil
}

// Attrs returns the attribute order of sampled tuples.
func (s *Sampler) Attrs() []string { return s.attrs }

// JoinSize returns |⋈ᵢ rels[i]|.
func (s *Sampler) JoinSize() int64 { return s.plan.msgs[0][0] }

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
	target := rng.Int64N(s.plan.msgs[pos][group])
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
		s.sampleNode(rng, c, s.plan.down[c][idx], out, outPos)
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
