package join

import (
	"fmt"
	"math/rand/v2"

	"ajdloss/internal/engine"
	"ajdloss/internal/jointree"
	"ajdloss/internal/relation"
)

// Sampler draws uniform random tuples from an acyclic join ⋈ᵢ R[Ωᵢ] without
// materializing it, by inverting the counting dynamic program: the root
// tuple is drawn with probability proportional to its number of join
// extensions, then each child tuple is drawn conditionally on the separator
// value, top-down. Building the sampler is CountSnapshot's pass over the
// snapshot's bag and separator groupings, keeping each tuple's weight; a
// bag tuple is the first row of its bag group, so each sample costs
// O(Σ bag arity) integer indexing into the snapshot's columns plus one
// weighted choice per bag — the separator buckets are addressed by group
// IDs, never by string keys.
//
// Together with the loss machinery this answers "show me some spurious
// tuples" for joins far too large to enumerate (e.g. Figure 1 at d = 1000,
// join size 10⁶ from inputs of 9·10⁵).
type Sampler struct {
	// plan.msgs[pos][g] is the summed weight of bucket g; plan.msgs[0] holds
	// the root's one bucket.
	plan  *treePlan
	attrs []string // output attribute order (union, DFS-first)
	// cols[pos][j] is the snapshot column of the j-th attribute of the bag
	// at DFS position pos, and out[pos][j] its index in a sampled tuple.
	cols [][][]engine.Value
	out  [][]int
	// rows[pos] lists the tuples at DFS position pos by first row, sorted
	// by separator group toward the parent and by row within a group, and
	// weights[pos] their numbers of join extensions into pos's subtree.
	// Bucket g is the range start[pos][g]:start[pos][g+1]; the root has one.
	rows    [][]int32
	weights [][]int64
	start   [][]int32
}

// NewSampler prepares uniform sampling from the join of the projections of
// the relation snap holds onto the bags of t. It runs CountSnapshot's pass,
// keeping every tuple's weight, and sorts each bag's tuples into buckets by
// separator group. It returns an error if the join is empty, overflows
// int64, or t names an attribute snap lacks.
func NewSampler(snap *engine.Snapshot, t *jointree.JoinTree) (*Sampler, error) {
	plan, rooted, err := planTree(snap, t)
	if err != nil {
		return nil, err
	}
	m := len(rooted.Order)
	s := &Sampler{
		plan:    plan,
		cols:    make([][][]engine.Value, m),
		out:     make([][]int, m),
		rows:    make([][]int32, m),
		weights: make([][]int64, m),
		start:   make([][]int32, m),
	}
	for pos, g := range plan.bags {
		s.rows[pos] = make([]int32, 0, g.Groups())
		s.weights[pos] = make([]int64, 0, g.Groups())
	}
	total, err := plan.count(func(pos int, row int32, w int64) {
		s.rows[pos] = append(s.rows[pos], row)
		s.weights[pos] = append(s.weights[pos], w)
	})
	if err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("join: cannot sample from an empty join")
	}
	plan.msgs[0] = []int64{total}
	s.start[0] = []int32{0, int32(len(s.rows[0]))}
	for pos := 1; pos < m; pos++ {
		s.bucket(pos)
	}
	// Output attribute order: first occurrence over DFS positions.
	outPos := make(map[string]int)
	columns := snap.Columns()
	for pos := 0; pos < m; pos++ {
		for _, a := range rooted.Bag(pos) {
			i, ok := outPos[a]
			if !ok {
				i = len(s.attrs)
				outPos[a] = i
				s.attrs = append(s.attrs, a)
			}
			c, _ := snap.Pos(a) // planTree resolved every bag attribute
			s.cols[pos] = append(s.cols[pos], columns[c])
			s.out[pos] = append(s.out[pos], i)
		}
	}
	return s, nil
}

// bucket counting-sorts the tuples at DFS position pos, which count visited
// in row order, by their separator group toward the parent. The sort is
// stable, so rows stay ascending within a bucket.
func (s *Sampler) bucket(pos int) {
	sep, rows, weights := s.plan.sep[pos], s.rows[pos], s.weights[pos]
	start := make([]int32, len(s.plan.msgs[pos])+1)
	for _, row := range rows {
		start[sep[row]]++
	}
	for g := 1; g < len(start); g++ {
		start[g] += start[g-1]
	}
	// start[g] is now where bucket g ends; filling each bucket back to front
	// leaves start[g] where it begins.
	s.rows[pos] = make([]int32, len(rows))
	s.weights[pos] = make([]int64, len(rows))
	for j := len(rows) - 1; j >= 0; j-- {
		k := &start[sep[rows[j]]]
		*k--
		s.rows[pos][*k], s.weights[pos][*k] = rows[j], weights[j]
	}
	s.start[pos] = start
}

// Attrs returns the attribute order of sampled tuples.
func (s *Sampler) Attrs() []string { return s.attrs }

// JoinSize returns |⋈ᵢ R[Ωᵢ]|.
func (s *Sampler) JoinSize() int64 { return s.plan.msgs[0][0] }

// Sample draws one tuple uniformly from the join.
func (s *Sampler) Sample(rng *rand.Rand) relation.Tuple {
	out := make(relation.Tuple, len(s.attrs))
	s.sampleNode(rng, 0, 0, out)
	return out
}

// sampleNode picks a tuple at DFS position pos within the given separator
// bucket, writes its values into out, and recurses.
func (s *Sampler) sampleNode(rng *rand.Rand, pos int, group int32, out relation.Tuple) {
	lo, hi := s.start[pos][group], s.start[pos][group+1]
	target := rng.Int64N(s.plan.msgs[pos][group])
	// The last row is unreachable as a fallback: totals are exact sums of
	// bucket weights.
	row := s.rows[pos][hi-1]
	for j, w := range s.weights[pos][lo:hi] {
		if target -= w; target < 0 {
			row = s.rows[pos][lo+int32(j)]
			break
		}
	}
	for j, col := range s.cols[pos] {
		out[s.out[pos][j]] = col[row]
	}
	for _, c := range s.plan.children[pos] {
		s.sampleNode(rng, c, s.plan.sep[c][row], out)
	}
}

// SampleSpurious draws up to k tuples uniform over the join and returns the
// ones not contained in r (spurious under the schema the sampler was built
// on). The expected yield per draw is ρ/(1+ρ).
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
