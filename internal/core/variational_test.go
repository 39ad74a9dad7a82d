package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"ajdloss/internal/jointree"
	"ajdloss/internal/randrel"
	"ajdloss/internal/relation"
	"ajdloss/internal/schemagen"
)

// smallInstance draws a random tree over few small-domain attributes plus a
// relation, suitable for exhaustive enumeration.
func smallInstance(seed uint64) (*jointree.Rooted, *relation.Relation, map[string]int, error) {
	rng := randrel.NewRand(seed)
	tree, err := schemagen.RandomJoinTree(rng, 2+int(seed%2), 3+int(seed%2), 0.5)
	if err != nil {
		return nil, nil, nil, err
	}
	attrs := tree.Attrs()
	domains := schemagen.UniformDomains(attrs, 2)
	ds := make([]int, len(attrs))
	for i := range ds {
		ds[i] = 2
	}
	model := randrel.Model{Attrs: attrs, Domains: ds, N: 6}
	if p, overflow := model.DomainProduct(); !overflow && int64(model.N) > p {
		model.N = int(p)
	}
	r, err := model.Sample(rng)
	if err != nil {
		return nil, nil, nil, err
	}
	rooted, err := jointree.Root(tree, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	return rooted, r, domains, nil
}

func TestRandomTreeDistributionIsDistribution(t *testing.T) {
	rooted, _, domains, err := smallInstance(1)
	if err != nil {
		t.Fatal(err)
	}
	rng := randrel.NewRand(2)
	td, err := NewRandomTreeDistribution(rng, rooted, domains)
	if err != nil {
		t.Fatal(err)
	}
	dist, _, err := td.Dist(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := dist.validate(1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestRandomTreeDistributionModelsTree(t *testing.T) {
	// Q factorizes over the tree by construction; its CMI factorization
	// terms must vanish. Build a weighted multiset approximating Q by
	// rational rounding of probabilities and check terms ≈ 0 via the
	// explicit distribution instead: enumerate Q and compute the terms
	// directly from the Dist marginals.
	rooted, _, domains, err := smallInstance(3)
	if err != nil {
		t.Fatal(err)
	}
	rng := randrel.NewRand(4)
	td, err := NewRandomTreeDistribution(rng, rooted, domains)
	if err != nil {
		t.Fatal(err)
	}
	dist, tuples, err := td.Dist(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	// Convert Q into a large multiset with multiplicities ∝ probability to
	// reuse the Source-based CMI machinery (quantization error bounded by
	// the scale).
	const scale = 2_000_000
	m := relation.NewMultiset(td.Attrs()...)
	for _, tup := range tuples {
		p := dist[relation.RowKey(tup)]
		k := int64(p*scale + 0.5)
		if k > 0 {
			m.Add(tup, k)
		}
	}
	ok, err := ModelsTree(m, rooted, 2e-3)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("random tree distribution does not model its tree (beyond quantization tolerance)")
	}
}

func TestTheorem32Variational(t *testing.T) {
	// D(P‖Q) ≥ D(P‖P^T) = J(T) for every tree-structured Q.
	f := func(seed uint64) bool {
		rooted, r, domains, err := smallInstance(seed % 64)
		if err != nil {
			return false
		}
		j, err := JMeasure(r, rooted.Tree)
		if err != nil {
			return false
		}
		rng := randrel.NewRand(seed)
		for trial := 0; trial < 5; trial++ {
			td, err := NewRandomTreeDistribution(rng, rooted, domains)
			if err != nil {
				return false
			}
			d, err := td.KLFromRelation(r)
			if err != nil {
				return false
			}
			if d < j-1e-9 {
				t.Logf("seed %d: D(P||Q)=%v < J=%v", seed, d, j)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestVariationalMinimumAttainedAtPT(t *testing.T) {
	// Build Q = P^T explicitly through the factorization and confirm
	// D(P‖Q) = J to numerical precision — the minimum is attained.
	rooted, r, _, err := smallInstance(7)
	if err != nil {
		t.Fatal(err)
	}
	fac, err := NewFactorization(r, rooted)
	if err != nil {
		t.Fatal(err)
	}
	kl, err := fac.KLFromEmpirical()
	if err != nil {
		t.Fatal(err)
	}
	j, err := JMeasure(r, rooted.Tree)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(kl-j) > 1e-9 {
		t.Fatalf("D(P||P^T) = %v != J = %v", kl, j)
	}
}

func TestTreeDistributionValidation(t *testing.T) {
	rooted, _, _, err := smallInstance(9)
	if err != nil {
		t.Fatal(err)
	}
	rng := randrel.NewRand(10)
	if _, err := NewRandomTreeDistribution(rng, rooted, map[string]int{}); err == nil {
		t.Fatal("missing domains accepted")
	}
	// Oversized conditional tables are refused at construction.
	huge := schemagen.UniformDomains(rooted.Tree.Attrs(), 4096)
	if _, err := NewRandomTreeDistribution(rng, rooted, huge); err == nil {
		t.Fatal("oversized table construction accepted")
	}
	// Moderately large domains build fine but Dist refuses enumeration
	// beyond the cap.
	domains := schemagen.UniformDomains(rooted.Tree.Attrs(), 8)
	td, err := NewRandomTreeDistribution(rng, rooted, domains)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := td.Dist(100); err == nil {
		t.Fatal("oversized enumeration accepted")
	}
}

// The tests above check the variational statement of Theorem 3.2:
//
//	J(T) = min_{Q ⊨ T} D_KL(P‖Q), attained at Q = P^T.
//
// TreeDistribution represents an arbitrary distribution Q that models the
// join tree (Proposition 3.1: Q = Π Q[Ωᵢ] / Π Q[Δᵢ]), built from explicit
// conditional tables along a rooted tree. Property tests draw random
// tree-structured Q and verify D(P‖Q) ≥ D(P‖P^T) − tol.

// TreeDistribution is a distribution over the product domain of the tree's
// attributes that factorizes over the tree (hence models it).
type TreeDistribution struct {
	rooted  *jointree.Rooted
	attrs   []string
	domains map[string]int
	// prob[pos] maps (sepKey → (bagKey → probability)): the conditional
	// distribution of the bag's free attributes given the separator value.
	// For the root, sepKey is "".
	prob []map[string]map[string]float64
	// bagCols[pos] are positions (into attrs) of bag attributes;
	// freeCols[pos] the bag attributes not in the separator toward the
	// parent; sepCols[pos] the separator attribute positions.
	bagCols, freeCols, sepCols [][]int
	pos                        map[string]int
}

// NewRandomTreeDistribution draws a random distribution that models the
// rooted tree over the given per-attribute domains: every conditional table
// Q(bag-free | sep) is a random point of the simplex (Dirichlet(1,…,1) via
// normalized exponentials). Domains must be small — the tables enumerate
// bag-free value combinations explicitly.
func NewRandomTreeDistribution(rng *rand.Rand, rooted *jointree.Rooted, domains map[string]int) (*TreeDistribution, error) {
	td := &TreeDistribution{
		rooted:  rooted,
		domains: domains,
		pos:     make(map[string]int),
	}
	for _, a := range rooted.Tree.Attrs() {
		d, ok := domains[a]
		if !ok || d <= 0 {
			return nil, fmt.Errorf("core: missing or invalid domain for %q", a)
		}
		td.pos[a] = len(td.attrs)
		td.attrs = append(td.attrs, a)
	}
	m := len(rooted.Order)
	td.prob = make([]map[string]map[string]float64, m)
	td.bagCols = make([][]int, m)
	td.freeCols = make([][]int, m)
	td.sepCols = make([][]int, m)
	for p := 0; p < m; p++ {
		bag := rooted.Bag(p)
		sep := rooted.Sep[p]
		inSep := make(map[string]bool, len(sep))
		for _, a := range sep {
			inSep[a] = true
		}
		for _, a := range bag {
			td.bagCols[p] = append(td.bagCols[p], td.pos[a])
			if !inSep[a] {
				td.freeCols[p] = append(td.freeCols[p], td.pos[a])
			}
		}
		for _, a := range sep {
			td.sepCols[p] = append(td.sepCols[p], td.pos[a])
		}
		// One conditional table per separator value combination. Refuse
		// tables that would not fit in memory: this type exists for
		// exhaustive small-domain verification, not large-scale modeling.
		cells := 1
		for _, a := range bag {
			cells *= domains[a]
			if cells > 1<<20 {
				return nil, fmt.Errorf("core: bag %v needs %d+ conditional cells; use smaller domains", bag, cells)
			}
		}
		td.prob[p] = make(map[string]map[string]float64)
		sepVals := enumerate(td.domainsOf(sep))
		freeAttrs := make([]string, 0, len(td.freeCols[p]))
		for _, a := range bag {
			if !inSep[a] {
				freeAttrs = append(freeAttrs, a)
			}
		}
		freeVals := enumerate(td.domainsOf(freeAttrs))
		if len(freeVals) == 0 {
			freeVals = []relation.Tuple{{}}
		}
		for _, sv := range sepVals {
			table := make(map[string]float64, len(freeVals))
			var total float64
			for _, fv := range freeVals {
				w := rng.ExpFloat64() + 1e-9
				table[relation.RowKey(fv)] = w
				total += w
			}
			for k := range table {
				table[k] /= total
			}
			td.prob[p][relation.RowKey(sv)] = table
		}
	}
	return td, nil
}

func (td *TreeDistribution) domainsOf(attrs []string) []int {
	out := make([]int, len(attrs))
	for i, a := range attrs {
		out[i] = td.domains[a]
	}
	return out
}

// enumerate returns every value combination of the given domains (1-based),
// including the single empty tuple for zero domains.
func enumerate(domains []int) []relation.Tuple {
	out := []relation.Tuple{{}}
	for _, d := range domains {
		var next []relation.Tuple
		for _, prefix := range out {
			for v := 1; v <= d; v++ {
				t := make(relation.Tuple, len(prefix)+1)
				copy(t, prefix)
				t[len(prefix)] = relation.Value(v)
				next = append(next, t)
			}
		}
		out = next
	}
	return out
}

// Attrs returns the attribute order of tuples accepted by Prob.
func (td *TreeDistribution) Attrs() []string { return td.attrs }

// Prob returns Q(t) for a full tuple over Attrs().
func (td *TreeDistribution) Prob(t relation.Tuple) float64 {
	q := 1.0
	for p := range td.prob {
		sepKey := projectCols(t, td.sepCols[p])
		table, ok := td.prob[p][sepKey]
		if !ok {
			return 0
		}
		q *= table[projectCols(t, td.freeCols[p])]
		if q == 0 {
			return 0
		}
	}
	return q
}

func projectCols(t relation.Tuple, cols []int) string {
	buf := make(relation.Tuple, len(cols))
	for i, c := range cols {
		buf[i] = t[c]
	}
	return relation.RowKey(buf)
}

// Dist materializes Q over the full product domain; intended for tests with
// tiny domains. It errors if the enumeration exceeds maxCells.
func (td *TreeDistribution) Dist(maxCells int) (dist, []relation.Tuple, error) {
	cells := 1
	for _, a := range td.attrs {
		cells *= td.domains[a]
		if cells > maxCells {
			return nil, nil, fmt.Errorf("core: domain of %d+ cells exceeds cap %d", cells, maxCells)
		}
	}
	tuples := enumerate(td.domainsOf(td.attrs))
	d := make(dist, len(tuples))
	var total float64
	for _, t := range tuples {
		p := td.Prob(t)
		if p > 0 {
			d[relation.RowKey(t)] = p
			total += p
		}
	}
	if math.Abs(total-1) > 1e-6 {
		return nil, nil, fmt.Errorf("core: Q sums to %.9f", total)
	}
	return d, tuples, nil
}

// KLFromRelation returns D_KL(P‖Q) where P is the empirical distribution of
// r (whose attributes must cover td.Attrs()). +Inf when Q misses support.
func (td *TreeDistribution) KLFromRelation(r *relation.Relation) (float64, error) {
	cols := make([]int, len(td.attrs))
	for i, a := range td.attrs {
		p, ok := r.Pos(a)
		if !ok {
			return 0, fmt.Errorf("core: relation lacks attribute %q", a)
		}
		cols[i] = p
	}
	invN := 1.0 / float64(r.N())
	var d float64
	buf := make(relation.Tuple, len(cols))
	for _, t := range r.Rows() {
		for i, c := range cols {
			buf[i] = t[c]
		}
		q := td.Prob(buf)
		if q == 0 {
			return math.Inf(1), nil
		}
		d += invN * (math.Log(invN) - math.Log(q))
	}
	return d, nil
}
