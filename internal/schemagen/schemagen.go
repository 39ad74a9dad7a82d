// Package schemagen generates schemas, join trees, and relation instances
// for tests, benchmarks, and experiments: MVD/chain/star schemas, random
// join trees that satisfy the running intersection property by construction,
// planted lossless relations (R ⊨ AJD(S) exactly), noisy variants, and the
// paper's Example 4.1 diagonal family.
package schemagen

import (
	"fmt"
	"math/rand/v2"

	"ajdloss/internal/join"
	"ajdloss/internal/jointree"
	"ajdloss/internal/randrel"
	"ajdloss/internal/relation"
)

// AttrNames returns n attribute names X1..Xn.
func AttrNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("X%d", i+1)
	}
	return out
}

// Chain returns the chain schema over attrs with bags of the given width and
// consecutive bags overlapping in `overlap` attributes — e.g. width 2,
// overlap 1 over X1..X4 gives {X1X2},{X2X3},{X3X4}. Chain schemas are always
// acyclic.
func Chain(attrs []string, width, overlap int) (*jointree.Schema, error) {
	if width <= 0 || overlap < 0 || overlap >= width {
		return nil, fmt.Errorf("schemagen: need 0 ≤ overlap < width, got width=%d overlap=%d", width, overlap)
	}
	if len(attrs) < width {
		return nil, fmt.Errorf("schemagen: %d attributes cannot fill a bag of width %d", len(attrs), width)
	}
	step := width - overlap
	var bags [][]string
	for start := 0; ; start += step {
		end := start + width
		if end > len(attrs) {
			if start == 0 || bags == nil {
				bags = append(bags, attrs[:width])
			} else if start < len(attrs) {
				// Final partial bag anchored at the tail.
				bags = append(bags, attrs[len(attrs)-width:])
			}
			break
		}
		bags = append(bags, attrs[start:end])
		if end == len(attrs) {
			break
		}
	}
	return jointree.NewSchema(bags...)
}

// RandomJoinTree generates a random join tree with m bags over nAttrs fresh
// attributes X1..XnAttrs. Each attribute is assigned to a random connected
// subtree (seeded at node i mod m, grown with probability grow per incident
// edge), which guarantees the running intersection property by construction
// and leaves no bag empty when nAttrs ≥ m.
func RandomJoinTree(rng *rand.Rand, m, nAttrs int, grow float64) (*jointree.JoinTree, error) {
	if m <= 0 {
		return nil, fmt.Errorf("schemagen: need at least one bag")
	}
	if nAttrs < m {
		return nil, fmt.Errorf("schemagen: need nAttrs ≥ m to avoid empty bags (m=%d, nAttrs=%d)", m, nAttrs)
	}
	if grow < 0 || grow >= 1 {
		return nil, fmt.Errorf("schemagen: grow must be in [0,1), got %g", grow)
	}
	// Random tree: node i > 0 attaches to a uniform parent among 0..i−1.
	edges := make([][2]int, 0, m-1)
	adj := make([][]int, m)
	for i := 1; i < m; i++ {
		p := rng.IntN(i)
		edges = append(edges, [2]int{p, i})
		adj[p] = append(adj[p], i)
		adj[i] = append(adj[i], p)
	}
	attrs := AttrNames(nAttrs)
	bags := make([][]string, m)
	for ai, a := range attrs {
		start := ai % m
		// Grow a random connected subtree from start.
		in := map[int]bool{start: true}
		frontier := []int{start}
		for len(frontier) > 0 {
			u := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			for _, v := range adj[u] {
				if !in[v] && rng.Float64() < grow {
					in[v] = true
					frontier = append(frontier, v)
				}
			}
		}
		for node := range in {
			bags[node] = append(bags[node], a)
		}
	}
	return jointree.NewJoinTree(bags, edges)
}

// UniformDomains maps every attribute to domain size d.
func UniformDomains(attrs []string, d int) map[string]int {
	out := make(map[string]int, len(attrs))
	for _, a := range attrs {
		out[a] = d
	}
	return out
}

// LosslessRelation plants a relation that satisfies AJD(S) exactly for the
// schema of the join tree: it samples a random relation of about perBagSize
// tuples on each bag (values uniform in the bag's attribute domains),
// full-reduces them for global consistency, and joins. The projections of
// the result onto the bags reproduce it exactly (Beeri et al. 1983), so the
// planted loss is zero. It returns an error if the join is empty (retry with
// a different seed or denser bags).
func LosslessRelation(rng *rand.Rand, t *jointree.JoinTree, domains map[string]int, perBagSize int) (*relation.Relation, error) {
	rels := make([]*relation.Relation, t.Len())
	for i, bag := range t.Bags {
		ds := make([]int, len(bag))
		for k, a := range bag {
			d, ok := domains[a]
			if !ok {
				return nil, fmt.Errorf("schemagen: no domain for attribute %q", a)
			}
			ds[k] = d
		}
		model := randrel.Model{Attrs: bag, Domains: ds, N: perBagSize}
		if p, overflow := model.DomainProduct(); !overflow && int64(perBagSize) > p {
			model.N = int(p)
		}
		r, err := model.Sample(rng)
		if err != nil {
			return nil, fmt.Errorf("schemagen: sampling bag %d: %w", i, err)
		}
		rels[i] = r
	}
	joined, err := join.YannakakisJoin(t, rels)
	if err != nil {
		return nil, err
	}
	if joined.N() == 0 {
		return nil, fmt.Errorf("schemagen: planted join is empty; increase perBagSize or shrink domains")
	}
	return joined, nil
}

// NoisyRelation adds extra uniform-random tuples to r (over the given
// domains) until it has grown by noise tuples, destroying exact losslessness
// while keeping the planted structure dominant.
func NoisyRelation(rng *rand.Rand, r *relation.Relation, domains map[string]int, noise int) (*relation.Relation, error) {
	out := r.Clone()
	attrs := r.Attrs()
	ds := make([]int, len(attrs))
	var total int64 = 1
	for i, a := range attrs {
		d, ok := domains[a]
		if !ok {
			return nil, fmt.Errorf("schemagen: no domain for attribute %q", a)
		}
		ds[i] = d
		total *= int64(d)
	}
	if int64(out.N()+noise) > total {
		return nil, fmt.Errorf("schemagen: cannot add %d noise tuples to %d in a domain of %d cells", noise, out.N(), total)
	}
	t := make(relation.Tuple, len(attrs))
	added := 0
	for added < noise {
		for i, d := range ds {
			t[i] = relation.Value(rng.IntN(d) + 1)
		}
		if out.Insert(t) {
			added++
		}
	}
	return out, nil
}

// Diagonal returns the Example 4.1 relation R = {(a₁,b₁),…,(a_N,b_N)} over
// attributes A, B: for the schema {{A},{B}} it achieves the Lemma 4.1 lower
// bound with equality, J = log N = log(1+ρ).
func Diagonal(n int) *relation.Relation {
	r := relation.New("A", "B")
	for i := 1; i <= n; i++ {
		r.Insert(relation.Tuple{relation.Value(i), relation.Value(i)})
	}
	return r
}

// BlockMVD returns a relation over (A, B, C) in which, conditioned on each
// C = c, A and B are independent on blocks of the given size: a planted
// lossless MVD C ↠ A|B when blocks cover the classes exactly, with loss
// appearing as blocks are perturbed. Used by discovery tests and examples.
func BlockMVD(rng *rand.Rand, dC, block int) *relation.Relation {
	r := relation.New("A", "B", "C")
	for c := 1; c <= dC; c++ {
		base := (c - 1) * block
		for a := 1; a <= block; a++ {
			for b := 1; b <= block; b++ {
				r.Insert(relation.Tuple{
					relation.Value(base + a),
					relation.Value(base + b),
					relation.Value(c),
				})
			}
		}
	}
	return r
}
