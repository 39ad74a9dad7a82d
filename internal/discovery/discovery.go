// Package discovery implements approximate acyclic schema discovery — the
// application that motivates the paper (Kenig et al., "Mining Approximate
// Acyclic Schemes from Relations", SIGMOD 2020). Given a relation instance
// it searches for acyclic schemas with small J-measure, which by the paper's
// results bound (and in the random model approximately determine) the number
// of spurious tuples the schema would generate.
//
// Two complementary strategies are provided:
//
//   - ChowLiu builds the J-minimizing *tree-structured* schema (all bags of
//     size 2): maximizing Σ I(Xᵢ;X_j) over spanning trees of the pairwise
//     mutual-information graph minimizes J over that family.
//   - Coarsen greedily contracts join-tree edges (each contraction can only
//     decrease J) until the J-measure falls below a target, trading bag size
//     for fidelity — mirroring the mining loop of [14].
//   - FindMVDs enumerates approximate MVDs X ↠ Y₁|…|Y_k directly by
//     splitting the conditional-dependence graph given small separators X.
package discovery

import (
	"fmt"
	"math"
	"sort"

	"ajdloss/internal/core"
	"ajdloss/internal/engine"
	"ajdloss/internal/infotheory"
	"ajdloss/internal/jointree"
	"ajdloss/internal/relation"
)

// Candidate is a discovered acyclic schema with its J-measure (nats).
type Candidate struct {
	Tree *jointree.JoinTree
	J    float64
}

// Schema returns the candidate's schema.
func (c Candidate) Schema() *jointree.Schema { return c.Tree.Schema() }

// ChowLiu returns the maximum pairwise-mutual-information spanning tree of
// r's attributes as a join tree whose bags are the tree's edges. It requires
// at least two attributes. The result is the J-minimizer among schemas whose
// bags all have size two.
func ChowLiu(r *relation.Relation) (Candidate, error) {
	attrs := r.Attrs()
	if len(attrs) < 2 {
		return Candidate{}, fmt.Errorf("discovery: Chow-Liu needs ≥2 attributes, got %d", len(attrs))
	}
	mis, err := pairMIs(r.Snapshot(), attrs)
	if err != nil {
		return Candidate{}, err
	}
	return chowLiuFromMIs(r, attrs, mis)
}

// pairMIs computes the full pairwise mutual-information matrix of attrs
// against the snapshot; mis[k] is I(attrs[i];attrs[j]) for the k-th (i<j)
// pair in row-major order.
//
// The O(n²) MI matrix dominates Chow-Liu. It runs as one engine plan: all
// singleton entropies (level 1 of the lattice, each needed by n−1 pairs) and
// all pair entropies (level 2) execute parents-first on a bounded worker
// pool, each refinement computed exactly once. Combining the memoized
// entropies into MI values is then a cheap serial pass, deterministic by
// construction.
func pairMIs(snap *engine.Snapshot, attrs []string) ([]float64, error) {
	n := len(attrs)
	plan := snap.Plan()
	for i := 0; i < n; i++ {
		if err := plan.AddEntropy(attrs[i]); err != nil {
			return nil, err
		}
		for j := i + 1; j < n; j++ {
			if err := plan.AddEntropy(attrs[i], attrs[j]); err != nil {
				return nil, err
			}
		}
	}
	plan.Run(0)
	mis := make([]float64, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			mi, err := infotheory.MutualInformation(snap, []string{attrs[i]}, []string{attrs[j]})
			if err != nil {
				return nil, err
			}
			mis = append(mis, mi)
		}
	}
	return mis, nil
}

// chowLiuFromMIs builds the Chow-Liu candidate from a pairwise MI matrix (in
// pairMIs order): maximum spanning tree by Kruskal, bags from the tree's
// edges, J-measure against r. Deterministic given the MI values — the pair
// sort breaks ties by index — so bit-identical MIs yield an identical
// candidate.
func chowLiuFromMIs(r *relation.Relation, attrs []string, mis []float64) (Candidate, error) {
	n := len(attrs)
	type pair struct {
		i, j int
		mi   float64
	}
	pairs := make([]pair, 0, len(mis))
	k := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, pair{i: i, j: j, mi: mis[k]})
			k++
		}
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].mi != pairs[b].mi {
			return pairs[a].mi > pairs[b].mi
		}
		if pairs[a].i != pairs[b].i {
			return pairs[a].i < pairs[b].i
		}
		return pairs[a].j < pairs[b].j
	})
	// Kruskal over attributes.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	type attrEdge struct{ i, j int }
	var chosen []attrEdge
	for _, p := range pairs {
		ri, rj := find(p.i), find(p.j)
		if ri != rj {
			parent[ri] = rj
			chosen = append(chosen, attrEdge{p.i, p.j})
			if len(chosen) == n-1 {
				break
			}
		}
	}
	if n == 2 {
		// Single bag of both attributes is the only 2-attribute tree; J = 0
		// trivially. Represent as the 2-bag schema {X1},{X2}? No: the
		// Chow-Liu family puts both in one bag, a lossless trivial schema.
		t, err := jointree.NewJoinTree([][]string{{attrs[0], attrs[1]}}, nil)
		if err != nil {
			return Candidate{}, err
		}
		return candidateFor(r, t)
	}
	// Bags = attribute-tree edges; join-tree edges connect bags sharing an
	// attribute, following a spanning structure over the bag graph.
	bags := make([][]string, len(chosen))
	for k, e := range chosen {
		bags[k] = []string{attrs[e.i], attrs[e.j]}
	}
	// Connect bags: BFS over attribute incidence.
	byAttr := make(map[int][]int) // attr index -> bag indexes
	for k, e := range chosen {
		byAttr[e.i] = append(byAttr[e.i], k)
		byAttr[e.j] = append(byAttr[e.j], k)
	}
	var treeEdges [][2]int
	seen := make([]bool, len(bags))
	seen[0] = true
	queue := []int{0}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		for _, ai := range []int{chosen[b].i, chosen[b].j} {
			for _, nb := range byAttr[ai] {
				if !seen[nb] {
					seen[nb] = true
					treeEdges = append(treeEdges, [2]int{b, nb})
					queue = append(queue, nb)
				}
			}
		}
	}
	t, err := jointree.NewJoinTree(bags, treeEdges)
	if err != nil {
		return Candidate{}, fmt.Errorf("discovery: Chow-Liu tree invalid: %w", err)
	}
	return candidateFor(r, t)
}

func candidateFor(r *relation.Relation, t *jointree.JoinTree) (Candidate, error) {
	j, err := core.JMeasure(r, t)
	if err != nil {
		return Candidate{}, err
	}
	return Candidate{Tree: t, J: j}, nil
}

// Coarsen repeatedly contracts the join-tree edge whose contraction lowers J
// the most, until J ≤ target or a single bag remains, and returns every
// intermediate candidate (finest first). Contraction never increases J, so
// the J values are non-increasing along the result.
func Coarsen(r *relation.Relation, start *jointree.JoinTree, target float64) ([]Candidate, error) {
	cur, err := candidateFor(r, start)
	if err != nil {
		return nil, err
	}
	out := []Candidate{cur}
	for cur.J > target && cur.Tree.Len() > 1 {
		bestJ := math.Inf(1)
		var best *jointree.JoinTree
		for e := range cur.Tree.Edges {
			contracted, err := cur.Tree.ContractEdge(e)
			if err != nil {
				return nil, err
			}
			j, err := core.JMeasure(r, contracted)
			if err != nil {
				return nil, err
			}
			if j < bestJ {
				bestJ = j
				best = contracted
			}
		}
		if best == nil {
			break
		}
		cur = Candidate{Tree: best, J: bestJ}
		out = append(out, cur)
	}
	return out, nil
}

// Discover runs Chow-Liu followed by Coarsen and returns the first candidate
// with J ≤ target (the finest acceptable schema), or the trivial single-bag
// schema if no finer one qualifies.
func Discover(r *relation.Relation, target float64) (Candidate, error) {
	cl, err := ChowLiu(r)
	if err != nil {
		return Candidate{}, err
	}
	if cl.J <= target {
		return cl, nil
	}
	path, err := Coarsen(r, cl.Tree, target)
	if err != nil {
		return Candidate{}, err
	}
	for _, c := range path {
		if c.J <= target {
			return c, nil
		}
	}
	return path[len(path)-1], nil
}

// MVDCandidate is an approximate MVD with its conditional mutual information
// J-measure (the sum over the implied star schema).
type MVDCandidate struct {
	X      []string   // separator
	Groups [][]string // the Y₁|…|Y_k partition (k ≥ 2)
	J      float64    // J of the star schema {XY₁,…,XY_k}
}

// FindMVDs enumerates separators X of size ≤ maxSep over r's attributes and,
// for each, partitions the remaining attributes into the connected
// components of the conditional-dependence graph (edge between Yᵢ,Y_j iff
// I(Yᵢ;Y_j|X) > threshold). Separators yielding ≥2 components become MVD
// candidates, returned sorted by ascending J.
//
// Every entropy it reads is planned first: one engine plan holds H(X),
// H(X∪a) and H(X∪a∪b) for each separator X and attributes a, b outside it,
// and a second holds the candidates' star bags and the full attribute set
// for J. The sets overlap heavily across separators, and a plan refines each
// exactly once, parents-first, spreading only the levels that scan enough
// rows over the engine's pool. The deepest sets, X∪a∪b with |X| = maxSep,
// are read only for their entropy unless a star bag extends one, so the
// first plan declares them leaves and the engine keeps only their counts.
// The separator scans and the J sums then read the memo serially, in a fixed
// order, so the output is deterministic.
func FindMVDs(r *relation.Relation, maxSep int, threshold float64) ([]MVDCandidate, error) {
	attrs := r.Attrs()
	n := len(attrs)
	if maxSep < 0 || maxSep >= n {
		return nil, fmt.Errorf("discovery: need 0 ≤ maxSep < #attrs, got %d with %d attrs", maxSep, n)
	}
	snap := r.Snapshot()
	seps := subsetsUpTo(attrs, maxSep)
	rests := make([][]string, len(seps))
	var buf []string
	plan := snap.Plan()
	for k, sep := range seps {
		rests[k] = exclude(attrs, sep)
		if len(rests[k]) < 2 {
			continue
		}
		// No separator refines X∪{a,b} at |X| = maxSep, so those sets are
		// planned as leaves, counts without row ids.
		addPair := plan.AddEntropy
		if len(sep) == maxSep {
			addPair = plan.AddLeafEntropy
		}
		if err := plan.AddEntropy(sep...); err != nil {
			return nil, err
		}
		for i, a := range rests[k] {
			buf = withAttrs(buf, sep, a)
			if err := plan.AddEntropy(buf...); err != nil {
				return nil, err
			}
			for _, b := range rests[k][i+1:] {
				buf = withAttrs(buf, sep, a, b)
				if err := addPair(buf...); err != nil {
					return nil, err
				}
			}
		}
	}
	plan.Run(0)
	var out []MVDCandidate
	var schemas []*jointree.Schema
	plan = snap.Plan()
	for k, sep := range seps {
		if len(rests[k]) < 2 {
			continue
		}
		comps, err := dependenceComponents(snap, rests[k], sep, threshold)
		if err != nil {
			return nil, err
		}
		if len(comps) < 2 {
			continue
		}
		schema, err := jointree.MVDSchema(sep, comps...)
		if err != nil {
			return nil, err
		}
		for _, bag := range schema.Bags() {
			if err := plan.AddEntropy(bag...); err != nil {
				return nil, err
			}
		}
		out = append(out, MVDCandidate{X: sep, Groups: comps})
		schemas = append(schemas, schema)
	}
	if len(out) == 0 {
		return nil, nil
	}
	// J also reads each star's separator X, planned above, and H of every
	// attribute.
	if err := plan.AddEntropy(attrs...); err != nil {
		return nil, err
	}
	plan.Run(0)
	for k, schema := range schemas {
		j, err := core.JMeasureSchema(snap, schema)
		if err != nil {
			return nil, err
		}
		out[k].J = j
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].J != out[j].J {
			return out[i].J < out[j].J
		}
		return len(out[i].X) < len(out[j].X)
	})
	return out, nil
}

// dependenceComponents partitions rest into the connected components of the
// graph with an edge (a,b) whenever I(a;b|sep) > threshold, in union-find
// root order, members in rest order. H(sep) and each H(sep∪{a}) are read
// once per call and H(sep∪{a,b}) once per pair, from the snapshot's memo
// where a plan has filled it. Each I(a;b|sep) is summed as
// hbc + hac − habc − hc and clamped, the terms and order of
// infotheory.ConditionalMutualInformation, so it is bit-identical to it.
func dependenceComponents(snap *engine.Snapshot, rest, sep []string, threshold float64) ([][]string, error) {
	hc, err := infotheory.Entropy(snap, sep...)
	if err != nil {
		return nil, err
	}
	var buf []string
	single := make([]float64, len(rest))
	for i, a := range rest {
		buf = withAttrs(buf, sep, a)
		if single[i], err = infotheory.Entropy(snap, buf...); err != nil {
			return nil, err
		}
	}
	n := len(rest)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			buf = withAttrs(buf, sep, rest[i], rest[j])
			habc, err := infotheory.Entropy(snap, buf...)
			if err != nil {
				return nil, err
			}
			hbc, hac := single[j], single[i]
			v := hbc + hac - habc - hc
			if v < 0 && v > -1e-9 {
				v = 0
			}
			if v > threshold {
				parent[find(i)] = find(j)
			}
		}
	}
	groups := make(map[int][]string)
	for i, a := range rest {
		root := find(i)
		groups[root] = append(groups[root], a)
	}
	var roots []int
	for root := range groups {
		roots = append(roots, root)
	}
	sort.Ints(roots)
	out := make([][]string, 0, len(groups))
	for _, root := range roots {
		out = append(out, groups[root])
	}
	return out, nil
}

// withAttrs returns sep followed by extra, written over buf's storage.
func withAttrs(buf, sep []string, extra ...string) []string {
	return append(append(buf[:0], sep...), extra...)
}

// subsetsUpTo returns all subsets of attrs of size 0..k, smallest first.
func subsetsUpTo(attrs []string, k int) [][]string {
	var out [][]string
	n := len(attrs)
	var rec func(start int, cur []string)
	rec = func(start int, cur []string) {
		cp := append([]string(nil), cur...)
		out = append(out, cp)
		if len(cur) == k {
			return
		}
		for i := start; i < n; i++ {
			rec(i+1, append(cur, attrs[i]))
		}
	}
	rec(0, nil)
	sort.Slice(out, func(i, j int) bool { return len(out[i]) < len(out[j]) })
	return out
}

func exclude(attrs, minus []string) []string {
	skip := make(map[string]struct{}, len(minus))
	for _, a := range minus {
		skip[a] = struct{}{}
	}
	var out []string
	for _, a := range attrs {
		if _, ok := skip[a]; !ok {
			out = append(out, a)
		}
	}
	return out
}
