package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"ajdloss/internal/infotheory"
	"ajdloss/internal/join"
	"ajdloss/internal/jointree"
	"ajdloss/internal/randrel"
	"ajdloss/internal/relation"
	"ajdloss/internal/schemagen"
)

// randomInstance draws a random join tree and a random relation over its
// attributes.
func randomInstance(seed uint64, m, nAttrs, domain, n int) (*jointree.JoinTree, *relation.Relation, error) {
	rng := randrel.NewRand(seed)
	tree, err := schemagen.RandomJoinTree(rng, m, nAttrs, 0.4)
	if err != nil {
		return nil, nil, err
	}
	attrs := tree.Attrs()
	domains := make([]int, len(attrs))
	for i := range domains {
		domains[i] = domain
	}
	model := randrel.Model{Attrs: attrs, Domains: domains, N: n}
	if p, overflow := model.DomainProduct(); !overflow && int64(n) > p {
		model.N = int(p)
	}
	r, err := model.Sample(rng)
	if err != nil {
		return nil, nil, err
	}
	return tree, r, nil
}

func TestExample41Exact(t *testing.T) {
	// Example 4.1: for every N ≥ 2 the diagonal relation has
	// J = I(A;B) = log N = log(1+ρ) for S = {{A},{B}}.
	schema := jointree.MustSchema([]string{"A"}, []string{"B"})
	for _, n := range []int{2, 3, 10, 100} {
		r := schemagen.Diagonal(n)
		rep, err := Analyze(r, schema)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Log(float64(n))
		if math.Abs(rep.J-want) > 1e-9 {
			t.Errorf("N=%d: J = %v, want %v", n, rep.J, want)
		}
		if math.Abs(rep.Loss.LogOnePlusRho()-want) > 1e-9 {
			t.Errorf("N=%d: log(1+rho) = %v, want %v", n, rep.Loss.LogOnePlusRho(), want)
		}
		if rep.Loss.Spurious != int64(n)*int64(n)-int64(n) {
			t.Errorf("N=%d: spurious = %d", n, rep.Loss.Spurious)
		}
		if err := rep.Verify(1e-9); err != nil {
			t.Errorf("N=%d: %v", n, err)
		}
	}
}

func TestMVDJMeasureIsCMI(t *testing.T) {
	// Section 2.2: for S = {XZ, XY}, J(S) = I(Z;Y|X).
	rng := randrel.NewRand(2)
	model := randrel.Model{Attrs: []string{"X", "Y", "Z"}, Domains: []int{3, 4, 4}, N: 30}
	r, err := model.Sample(rng)
	if err != nil {
		t.Fatal(err)
	}
	schema := jointree.MustSchema([]string{"X", "Y"}, []string{"X", "Z"})
	j, err := JMeasureSchema(r, schema)
	if err != nil {
		t.Fatal(err)
	}
	cmi := infotheory.MustCMI(r, []string{"Y"}, []string{"Z"}, []string{"X"})
	if math.Abs(j-cmi) > 1e-9 {
		t.Fatalf("J = %v, I(Y;Z|X) = %v", j, cmi)
	}
}

func TestJMeasureTreeInvariance(t *testing.T) {
	// J depends only on the schema, not the join tree shape: the MVD
	// X ↠ U|V|W has join trees XU−XV−XW (chain, any order) and the star.
	rng := randrel.NewRand(3)
	model := randrel.Model{Attrs: []string{"X", "U", "V", "W"}, Domains: []int{2, 3, 3, 3}, N: 25}
	r, err := model.Sample(rng)
	if err != nil {
		t.Fatal(err)
	}
	bags := [][]string{{"X", "U"}, {"X", "V"}, {"X", "W"}}
	trees := [][][2]int{
		{{0, 1}, {1, 2}}, // XU−XV−XW
		{{0, 2}, {2, 1}}, // XU−XW−XV
		{{0, 1}, {0, 2}}, // star at XU
	}
	var j0 float64
	for i, edges := range trees {
		tree := jointree.MustJoinTree(bags, edges)
		j, err := JMeasure(r, tree)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			j0 = j
			continue
		}
		if math.Abs(j-j0) > 1e-9 {
			t.Fatalf("tree %d: J = %v, tree 0: %v", i, j, j0)
		}
	}
}

func TestTheorem21LosslessIffJZero(t *testing.T) {
	rng := randrel.NewRand(4)
	tree, err := schemagen.RandomJoinTree(rng, 3, 5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	domains := schemagen.UniformDomains(tree.Attrs(), 3)
	r, err := schemagen.LosslessRelation(rng, tree, domains, 12)
	if err != nil {
		t.Skip("planted join came out empty; deterministic seed avoids this in CI")
	}
	rep, err := Analyze(r, tree.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if rep.J > 1e-9 {
		t.Fatalf("planted lossless relation has J = %v", rep.J)
	}
	if rep.Loss.Spurious != 0 {
		t.Fatalf("planted lossless relation has %d spurious tuples", rep.Loss.Spurious)
	}
	if !rep.Lossless {
		t.Fatal("report not marked lossless")
	}
	ok, err := SatisfiesJD(r, tree.Schema())
	if err != nil || !ok {
		t.Fatalf("SatisfiesJD = %v, %v", ok, err)
	}
}

// ptProb returns P^T(t) (Eq. 10) for a tuple t over r's schema, counting
// each bag and separator marginal by a scan of r: the lookup reference that
// reads no group IDs. A tuple whose bag projection never occurs in r gets
// probability 0.
func ptProb(r *relation.Relation, rooted *jointree.Rooted, t relation.Tuple) float64 {
	p := 1.0
	for i := range rooted.Order {
		p *= marginal(r, rooted.Bag(i), t)
	}
	if p == 0 {
		return 0
	}
	for i := 1; i < len(rooted.Order); i++ {
		p /= marginal(r, rooted.Sep[i], t)
	}
	return p
}

// marginal returns the share of r's rows that agree with t on attrs.
func marginal(r *relation.Relation, attrs []string, t relation.Tuple) float64 {
	cols, pos := r.Columns(), r.MustColumns(attrs)
	c := 0
rows:
	for i := 0; i < r.N(); i++ {
		for _, p := range pos {
			if cols[p][i] != t[p] {
				continue rows
			}
		}
		c++
	}
	return float64(c) / float64(r.N())
}

// ptDist materializes P^T over the support of the acyclic join ⋈ᵢ R[Ωᵢ]
// (the support of P^T), keyed by encoded rows in r's attribute order, and
// returns the join too. The join can be much larger than R: keep instances
// small.
func ptDist(r *relation.Relation, rooted *jointree.Rooted) (dist, *relation.Relation, error) {
	rels := make([]*relation.Relation, rooted.Tree.Len())
	var err error
	for i, bag := range rooted.Tree.Bags {
		if rels[i], err = r.Project(bag...); err != nil {
			return nil, nil, err
		}
	}
	joined, err := join.MaterializeTree(rooted.Tree, rels)
	if err != nil {
		return nil, nil, err
	}
	cols := joined.MustColumns(r.Attrs())
	d := make(dist, joined.N())
	for _, t := range joined.Rows() {
		// Reorder the join tuple into r's attribute order for evaluation.
		buf := make(relation.Tuple, len(cols))
		for i, c := range cols {
			buf[i] = t[c]
		}
		d[relation.RowKey(buf)] = ptProb(r, rooted, buf)
	}
	return d, joined, nil
}

// dist is a finite probability distribution keyed by outcome identity.
type dist map[string]float64

// validate checks that d sums to 1 within tol and has no negative masses.
func (d dist) validate(tol float64) error {
	var sum float64
	for k, p := range d {
		if p < 0 {
			return fmt.Errorf("negative probability %g for outcome %q", p, k)
		}
		sum += p
	}
	if math.Abs(sum-1) > tol {
		return fmt.Errorf("distribution sums to %g, want 1 ± %g", sum, tol)
	}
	return nil
}

func TestFactorizationMarginals(t *testing.T) {
	// Lemma 3.3: P^T preserves every bag and separator marginal of P.
	tree, r, err := randomInstance(5, 3, 5, 3, 30)
	if err != nil {
		t.Fatal(err)
	}
	rooted := jointree.MustRoot(tree, 0)
	dist, joined, err := ptDist(r, rooted)
	if err != nil {
		t.Fatal(err)
	}
	if err := dist.validate(1e-6); err != nil {
		t.Fatal(err)
	}
	// On rows of r the scan agrees with the group-ID path: D(P‖P^T) from
	// ptProb equals KLFromEmpirical (every row has P = 1/n).
	f, err := NewFactorization(r, rooted)
	if err != nil {
		t.Fatal(err)
	}
	kl, err := f.KLFromEmpirical()
	if err != nil {
		t.Fatal(err)
	}
	invN, want := 1/float64(r.N()), 0.0
	for _, tup := range r.Rows() {
		want += invN * math.Log(invN/ptProb(r, rooted, tup))
	}
	if math.Abs(kl-want) > 1e-9 {
		t.Fatalf("KLFromEmpirical = %v, scan oracle %v", kl, want)
	}
	// For every bag, marginal of P^T equals empirical marginal of R.
	cols := joined.MustColumns(r.Attrs())
	for _, bag := range tree.Bags {
		want, err := empiricalDist(r, bag...)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[string]float64)
		bagIdx := make([]int, len(bag))
		for k, a := range bag {
			p, _ := r.Pos(a)
			bagIdx[k] = p
		}
		buf := make(relation.Tuple, len(cols))
		bbuf := make(relation.Tuple, len(bag))
		for _, tup := range joined.Rows() {
			for i, c := range cols {
				buf[i] = tup[c]
			}
			for k, p := range bagIdx {
				bbuf[k] = buf[p]
			}
			got[relation.RowKey(bbuf)] += ptProb(r, rooted, buf)
		}
		for k, w := range want {
			if math.Abs(got[k]-w) > 1e-9 {
				t.Fatalf("bag %v: marginal mismatch %v vs %v", bag, got[k], w)
			}
		}
	}
}

func TestFactorizationZeroOutside(t *testing.T) {
	r := schemagen.Diagonal(3)
	tree, err := jointree.BuildJoinTree(jointree.MustSchema([]string{"A"}, []string{"B"}))
	if err != nil {
		t.Fatal(err)
	}
	rooted := jointree.MustRoot(tree, 0)
	// Tuple with values outside the active domain has probability zero.
	if p := ptProb(r, rooted, relation.Tuple{9, 9}); p != 0 {
		t.Fatalf("P^T(outside) = %v", p)
	}
	// Spurious tuple (1,2) has positive probability 1/9.
	if p := ptProb(r, rooted, relation.Tuple{1, 2}); math.Abs(p-1.0/9) > 1e-12 {
		t.Fatalf("P^T(spurious) = %v, want 1/9", p)
	}
}

func TestEmptyRelationErrors(t *testing.T) {
	r := relation.New("A", "B")
	s := jointree.MustSchema([]string{"A"}, []string{"B"})
	if _, err := ComputeLoss(r, s); err == nil {
		t.Fatal("loss of empty relation did not error")
	}
	if _, err := Analyze(r, s); err == nil {
		t.Fatal("analyze of empty relation did not error")
	}
	if _, err := MVDLoss(r, jointree.MVD{X: nil, Y: []string{"A"}, Z: []string{"B"}}); err == nil {
		t.Fatal("MVD loss of empty relation did not error")
	}
}

func TestSchemaNotCoveringErrors(t *testing.T) {
	r := schemagen.Diagonal(4)              // attrs A, B
	s := jointree.MustSchema([]string{"A"}) // does not cover B
	if _, err := ComputeLoss(r, s); err == nil {
		t.Fatal("non-covering schema did not error (join smaller than R)")
	}
}

func TestSpuriousTuples(t *testing.T) {
	r := schemagen.Diagonal(3)
	s := jointree.MustSchema([]string{"A"}, []string{"B"})
	sp, err := SpuriousTuples(r, s)
	if err != nil {
		t.Fatal(err)
	}
	if sp.N() != 6 {
		t.Fatalf("spurious set = %d, want 6", sp.N())
	}
	if sp.Contains(relation.Tuple{1, 1}) {
		t.Fatal("original tuple reported spurious")
	}
	if !sp.Contains(relation.Tuple{1, 2}) {
		t.Fatal("missing spurious tuple")
	}
}

func TestBoundFormulas(t *testing.T) {
	// Spot-check the explicit constants of Section 5.
	if got := CFactor(100); math.Abs(got-2*math.Log(100)/10) > 1e-12 {
		t.Fatalf("CFactor = %v", got)
	}
	if CFactor(1) != 0 {
		t.Fatal("CFactor(1) != 0")
	}
	if got := HFunc(1); math.Abs(got-math.Ln2) > 1e-12 {
		t.Fatalf("HFunc(1) = %v", got)
	}
	if HFunc(-1) != 0 {
		t.Fatal("HFunc negative not clamped")
	}
	// ε* monotonicity: decreasing in N, increasing in dA.
	if EpsilonStar(64, 4, 1000, 0.05) <= EpsilonStar(64, 4, 100000, 0.05) {
		t.Fatal("EpsilonStar not decreasing in N")
	}
	if EpsilonStar(128, 4, 1000, 0.05) <= EpsilonStar(64, 4, 1000, 0.05) {
		t.Fatal("EpsilonStar not increasing in dA")
	}
	// d = max(dA, dC) kicks in.
	if EpsilonStar(8, 1024, 1000, 0.05) <= EpsilonStar(8, 8, 1000, 0.05) {
		t.Fatal("EpsilonStar ignores dC")
	}
	// Qualifying N grows with dA.
	if QualifyingN(128, 1, 0.05) <= QualifyingN(64, 1, 0.05) {
		t.Fatal("QualifyingN not increasing")
	}
	if RhoBar(10, 10, 50) != 1 {
		t.Fatalf("RhoBar = %v", RhoBar(10, 10, 50))
	}
	if RhoLowerBound(math.Log(2)) != 1 {
		t.Fatalf("RhoLowerBound(log 2) = %v", RhoLowerBound(math.Log(2)))
	}
}

func TestSchemaBound(t *testing.T) {
	tree, r, err := randomInstance(6, 3, 5, 4, 60)
	if err != nil {
		t.Fatal(err)
	}
	rooted := jointree.MustRoot(tree, 0)
	domains := schemagen.UniformDomains(tree.Attrs(), 4)
	b, err := ComputeSchemaBound(r, rooted, domains, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if b.SumEpsilon <= 0 || b.Bound != b.SumCMI+b.SumEpsilon {
		t.Fatalf("bound inconsistent: %+v", b)
	}
	// Missing domain errors.
	if _, err := ComputeSchemaBound(r, rooted, map[string]int{}, 0.05); err == nil {
		t.Fatal("missing domains did not error")
	}
	// Single-bag tree: no MVDs, qualified trivially.
	one := jointree.MustJoinTree([][]string{tree.Attrs()}, nil)
	b1, err := ComputeSchemaBound(r, jointree.MustRoot(one, 0), domains, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if b1.Bound != 0 || !b1.Qualified {
		t.Fatalf("trivial bound = %+v", b1)
	}
}

func TestQuickTheorem32(t *testing.T) {
	// J(T) = D_KL(P‖P^T) on random instances.
	f := func(seed uint64) bool {
		tree, r, err := randomInstance(seed, 2+int(seed%4), 5+int(seed%3), 3, 25)
		if err != nil {
			return false
		}
		j, err := JMeasure(r, tree)
		if err != nil {
			return false
		}
		fac, err := NewFactorization(r, jointree.MustRoot(tree, 0))
		if err != nil {
			return false
		}
		kl, err := fac.KLFromEmpirical()
		if err != nil {
			return false
		}
		return math.Abs(j-kl) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickKLFromEmpiricalBitIdentical holds the tabulated KL sum to the
// per-row formula it replaced, one math.Log per row per bag and separator,
// summed in the same order: the two must agree to the last bit.
func TestQuickKLFromEmpiricalBitIdentical(t *testing.T) {
	f := func(seed uint64) bool {
		tree, r, err := randomInstance(seed, 2+int(seed%4), 5+int(seed%3), 3, 40)
		if err != nil {
			return false
		}
		fac, err := NewFactorization(r, jointree.MustRoot(tree, int(seed%uint64(tree.Len()))))
		if err != nil {
			return false
		}
		var want float64
		invN := 1.0 / fac.n
		logInvN := math.Log(invN)
		for i := 0; i < r.N(); i++ {
			var lp float64
			for _, g := range fac.bagGroups {
				lp += math.Log(float64(g.Counts.At(int(g.IDs[i]))) / fac.n)
			}
			for _, g := range fac.sepGroups {
				lp -= math.Log(float64(g.Counts.At(int(g.IDs[i]))) / fac.n)
			}
			want += invN * (logInvN - lp)
		}
		if want < 0 && want > -1e-9 {
			want = 0
		}
		got, err := fac.KLFromEmpirical()
		if err != nil || got != want {
			t.Logf("seed %d: KL %v, per-row formula %v (err %v)", seed, got, want, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLemma41AndTheorem22AndProp51(t *testing.T) {
	f := func(seed uint64) bool {
		_, r, err := randomInstance(seed, 2+int(seed%4), 5+int(seed%3), 3, 30)
		if err != nil {
			return false
		}
		// Reuse the instance's own schema via a fresh analysis.
		tree, _, err := randomInstance(seed, 2+int(seed%4), 5+int(seed%3), 3, 30)
		if err != nil {
			return false
		}
		rep, err := Analyze(r, tree.Schema())
		if err != nil {
			return false
		}
		return rep.Verify(1e-7) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickJMeasureRootInvariance(t *testing.T) {
	// The KL factorization is the same from any root (P^T depends only on
	// the tree): KLFromEmpirical must agree across roots.
	f := func(seed uint64) bool {
		tree, r, err := randomInstance(seed, 3, 6, 3, 25)
		if err != nil {
			return false
		}
		var ref float64
		for root := 0; root < tree.Len(); root++ {
			fac, err := NewFactorization(r, jointree.MustRoot(tree, root))
			if err != nil {
				return false
			}
			kl, err := fac.KLFromEmpirical()
			if err != nil {
				return false
			}
			if root == 0 {
				ref = kl
			} else if math.Abs(kl-ref) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestModelsTree(t *testing.T) {
	rng := randrel.NewRand(9)
	tree, err := schemagen.RandomJoinTree(rng, 3, 5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	domains := schemagen.UniformDomains(tree.Attrs(), 3)
	r, err := schemagen.LosslessRelation(rng, tree, domains, 10)
	if err != nil {
		t.Skip("planted join empty")
	}
	ok, err := ModelsTree(r, jointree.MustRoot(tree, 0), 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("lossless relation does not model its tree")
	}
	// The diagonal relation does not model the independence tree.
	diag := schemagen.Diagonal(5)
	t2, err := jointree.BuildJoinTree(jointree.MustSchema([]string{"A"}, []string{"B"}))
	if err != nil {
		t.Fatal(err)
	}
	ok, err = ModelsTree(diag, jointree.MustRoot(t2, 0), 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("diagonal relation models independence")
	}
}

func TestReportString(t *testing.T) {
	r := schemagen.Diagonal(4)
	rep, err := Analyze(r, jointree.MustSchema([]string{"A"}, []string{"B"}))
	if err != nil {
		t.Fatal(err)
	}
	s := rep.String()
	for _, want := range []string{"J-measure", "spurious", "Lemma 4.1", "lossless"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

// empiricalDist returns the empirical distribution of r restricted to attrs
// (marginal), keyed by encoded projected rows: the string-keyed oracle the
// tests hold the factorization's marginals against.
func empiricalDist(r *relation.Relation, attrs ...string) (dist, error) {
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		p, ok := r.Pos(a)
		if !ok {
			return nil, fmt.Errorf("unknown attribute %q", a)
		}
		cols[i] = p
	}
	counts := make(map[string]int)
	buf := make(relation.Tuple, len(cols))
	for _, t := range r.Rows() {
		for i, c := range cols {
			buf[i] = t[c]
		}
		counts[relation.RowKey(buf)]++
	}
	n := float64(r.N())
	d := make(dist, len(counts))
	for k, c := range counts {
		d[k] = float64(c) / n
	}
	return d, nil
}

// HFunc is h(t) = t·log(1+t) (Eq. 57), used in the concentration bound of
// Proposition 5.5.
func HFunc(t float64) float64 {
	if t <= 0 {
		return 0
	}
	return t * math.Log1p(t)
}

// MVDDomains describes the (product) domain sizes of the three components of
// an MVD C ↠ A|B. For composite components the size is the product of the
// member attribute domain sizes.
type MVDDomains struct {
	DA, DB, DC int
}

// Canonical returns the domains with A and B swapped if needed so that
// d_A ≥ d_B, the convention under which the paper's bounds are stated.
func (d MVDDomains) Canonical() MVDDomains {
	if d.DA < d.DB {
		d.DA, d.DB = d.DB, d.DA
	}
	return d
}

// SchemaUpperBound evaluates the Proposition 5.3 schema-level bound for a
// rooted join tree: with probability ≥ 1−δ,
//
//	log(1+ρ(R,S)) ≤ Σᵢ I(Ω_{1:i−1};Ω_{i:m}|Δᵢ) + Σᵢ εᵢ,
//
// with εᵢ = ε*(φᵢ, N, δ/(m−1)). domains maps attribute name to its domain
// size; composite component domains are products (capped at math.MaxInt64 /
// returned as float64 internally — epsilon formulas take float-sized d).
type SchemaBound struct {
	SumCMI     float64
	SumEpsilon float64
	Bound      float64 // SumCMI + SumEpsilon
	Qualified  bool    // every MVD met the Theorem 5.1 qualifying condition
}

// supportMVDs returns the m−1 MVDs {Δᵢ ↠ Ω_{1:i−1} | Ω_{i:m}} for
// i ∈ [2,m] of a rooted tree (Eq. 9), indexed by i−2: the literal
// prefix/suffix support of Eq. 28 (finding F1).
func supportMVDs(r *jointree.Rooted) []jointree.MVD {
	m := len(r.Order)
	out := make([]jointree.MVD, 0, m-1)
	for i := 1; i < m; i++ {
		out = append(out, jointree.MVD{
			X: append([]string(nil), r.Sep[i]...),
			Y: r.Prefix(i - 1),
			Z: r.Suffix(i),
		})
	}
	return out
}

// ComputeSchemaBound evaluates the bound for relation size n and confidence
// delta, using per-attribute domain sizes.
func ComputeSchemaBound(r *relation.Relation, rooted *jointree.Rooted, domains map[string]int, delta float64) (*SchemaBound, error) {
	mvds := supportMVDs(rooted)
	if len(mvds) == 0 {
		return &SchemaBound{Qualified: true}, nil
	}
	perMVDDelta := delta / float64(len(mvds))
	out := &SchemaBound{Qualified: true}
	n := r.N()
	for _, m := range mvds {
		cmi, err := MVDJMeasure(r, m)
		if err != nil {
			return nil, err
		}
		dom, err := mvdDomains(m, domains)
		if err != nil {
			return nil, err
		}
		dom = dom.Canonical()
		out.SumCMI += cmi
		out.SumEpsilon += EpsilonStar(dom.DA, dom.DC, n, perMVDDelta)
		if float64(n) < QualifyingN(dom.DA, dom.DC, perMVDDelta) {
			out.Qualified = false
		}
	}
	out.Bound = out.SumCMI + out.SumEpsilon
	return out, nil
}

func mvdDomains(m jointree.MVD, domains map[string]int) (MVDDomains, error) {
	prod := func(attrs []string, minus []string) (int, error) {
		skip := make(map[string]struct{}, len(minus))
		for _, a := range minus {
			skip[a] = struct{}{}
		}
		p := 1
		for _, a := range attrs {
			if _, ok := skip[a]; ok {
				continue
			}
			d, ok := domains[a]
			if !ok {
				return 0, fmt.Errorf("core: no domain size for attribute %q", a)
			}
			if d <= 0 {
				return 0, fmt.Errorf("core: non-positive domain size %d for attribute %q", d, a)
			}
			if p > math.MaxInt32/d {
				return math.MaxInt32, nil // saturate; epsilon only grows
			}
			p *= d
		}
		return p, nil
	}
	da, err := prod(m.Y, m.X)
	if err != nil {
		return MVDDomains{}, err
	}
	db, err := prod(m.Z, m.X)
	if err != nil {
		return MVDDomains{}, err
	}
	dc, err := prod(m.X, nil)
	if err != nil {
		return MVDDomains{}, err
	}
	return MVDDomains{DA: da, DB: db, DC: dc}, nil
}

// SatisfiesJD reports whether R ⊨ JD(S), i.e. ρ(R,S) = 0.
func SatisfiesJD(r *relation.Relation, s *jointree.Schema) (bool, error) {
	l, err := ComputeLoss(r, s)
	if err != nil {
		return false, err
	}
	return l.Spurious == 0, nil
}

// SpuriousTuples materializes the spurious tuple set (⋈ᵢ R[Ωᵢ]) \ R.
// Intended for small instances and diagnostics; the loss itself is computed
// without materialization by ComputeLoss.
func SpuriousTuples(r *relation.Relation, s *jointree.Schema) (*relation.Relation, error) {
	joined, err := join.AcyclicJoin(r, s)
	if err != nil {
		return nil, err
	}
	cols := joined.MustColumns(r.Attrs())
	out := relation.New(r.Attrs()...)
	buf := make(relation.Tuple, len(cols))
	for _, t := range joined.Rows() {
		for i, c := range cols {
			buf[i] = t[c]
		}
		if !r.Contains(buf) {
			out.Insert(buf)
		}
	}
	return out, nil
}

// ModelsTree reports whether the empirical distribution of r models the join
// tree (Definition 2.2): the factorization terms I(Ω_{1:i−1};Ωᵢ|Δᵢ) vanish
// for every i ∈ [2,m] within tol. These terms telescope to J(T), so modeling
// is equivalent to J(T) = 0 and hence (Proposition 3.1) to P = P^T.
func ModelsTree(r infotheory.Source, rooted *jointree.Rooted, tol float64) (bool, error) {
	for i := 1; i < len(rooted.Order); i++ {
		mi, err := infotheory.ConditionalMutualInformation(r, rooted.Prefix(i-1), rooted.Bag(i), rooted.Sep[i])
		if err != nil {
			return false, err
		}
		if mi > tol {
			return false, nil
		}
	}
	return true, nil
}

// MVDJMeasure returns J of the 2-bag schema {XY, XZ} of the MVD X ↠ Y|Z,
// which reduces to the conditional mutual information I(Y;Z|X) (Section 2.2).
func MVDJMeasure(r infotheory.Source, m jointree.MVD) (float64, error) {
	return infotheory.ConditionalMutualInformation(r, m.Y, m.Z, m.X)
}
