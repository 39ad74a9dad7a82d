package infotheory_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"ajdloss/internal/infotheory"
	"ajdloss/internal/relation"
)

func randomRelation(rng *rand.Rand, attrs []string, domain, n int) *relation.Relation {
	r := relation.New(attrs...)
	row := make(relation.Tuple, len(attrs))
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = relation.Value(rng.IntN(domain) + 1)
		}
		r.Insert(row)
	}
	return r
}

func TestEntropyUniform(t *testing.T) {
	// A set-valued relation over all attributes has H = log N.
	r := relation.FromRows([]string{"A", "B"}, []relation.Tuple{{1, 1}, {1, 2}, {2, 1}, {2, 2}})
	h := infotheory.MustEntropy(r, "A", "B")
	if math.Abs(h-math.Log(4)) > 1e-12 {
		t.Fatalf("H(AB) = %v, want log 4", h)
	}
	// Marginal of an independent uniform square: H(A) = log 2.
	if got := infotheory.MustEntropy(r, "A"); math.Abs(got-math.Log(2)) > 1e-12 {
		t.Fatalf("H(A) = %v", got)
	}
}

func TestEntropyEdgeCases(t *testing.T) {
	r := relation.FromRows([]string{"A"}, []relation.Tuple{{1}})
	if got := infotheory.MustEntropy(r, "A"); got != 0 {
		t.Fatalf("singleton entropy = %v", got)
	}
	if got := infotheory.MustEntropy(r); got != 0 {
		t.Fatalf("H(∅) = %v", got)
	}
	if _, err := infotheory.Entropy(r, "nope"); err == nil {
		t.Fatal("unknown attribute did not error")
	}
	if got := infotheory.EntropyFromCounts(nil, 0); got != 0 {
		t.Fatalf("empty counts entropy = %v", got)
	}
}

func TestConstantAttribute(t *testing.T) {
	r := relation.FromRows([]string{"A", "B"}, []relation.Tuple{{1, 1}, {1, 2}, {1, 3}})
	if got := infotheory.MustEntropy(r, "A"); got != 0 {
		t.Fatalf("constant attribute entropy = %v", got)
	}
	mi, err := infotheory.MutualInformation(r, []string{"A"}, []string{"B"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mi) > 1e-12 {
		t.Fatalf("I(const;B) = %v", mi)
	}
}

func TestFunctionalDependencyZeroCMI(t *testing.T) {
	// B = f(A) ⇒ H(B|A) = 0.
	r := relation.FromRows([]string{"A", "B"}, []relation.Tuple{{1, 10}, {2, 20}, {3, 30}, {4, 10}})
	h, err := infotheory.ConditionalEntropy(r, []string{"B"}, []string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h) > 1e-12 {
		t.Fatalf("H(B|A) = %v", h)
	}
}

func TestCMIKnownValue(t *testing.T) {
	// Diagonal relation: I(A;B) = log N (Example 4.1).
	n := 8
	r := relation.New("A", "B")
	for i := 1; i <= n; i++ {
		r.Insert(relation.Tuple{relation.Value(i), relation.Value(i)})
	}
	mi, err := infotheory.MutualInformation(r, []string{"A"}, []string{"B"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mi-math.Log(float64(n))) > 1e-12 {
		t.Fatalf("I(A;B) = %v, want log %d", mi, n)
	}
}

func TestCMIConditionalIndependence(t *testing.T) {
	// Within each class of C, A and B range independently: I(A;B|C) = 0 but
	// I(A;B) > 0 because classes use disjoint blocks.
	r := relation.New("A", "B", "C")
	for c := 1; c <= 2; c++ {
		for a := 1; a <= 2; a++ {
			for b := 1; b <= 2; b++ {
				base := relation.Value((c - 1) * 2)
				r.Insert(relation.Tuple{base + relation.Value(a), base + relation.Value(b), relation.Value(c)})
			}
		}
	}
	cmi := infotheory.MustCMI(r, []string{"A"}, []string{"B"}, []string{"C"})
	if math.Abs(cmi) > 1e-12 {
		t.Fatalf("I(A;B|C) = %v, want 0", cmi)
	}
	mi, _ := infotheory.MutualInformation(r, []string{"A"}, []string{"B"})
	if mi <= 0.1 {
		t.Fatalf("I(A;B) = %v, want clearly positive", mi)
	}
}

func TestCMIOverlapReduction(t *testing.T) {
	// Footnote 1: I(Ω₁;Ω₂|Δ) = I(Ω₁\Δ;Ω₂\Δ|Δ) — overlapping arguments are
	// harmless when the overlap is exactly the conditioning set.
	rng := rand.New(rand.NewPCG(5, 6))
	r := randomRelation(rng, []string{"A", "B", "C"}, 3, 25)
	full := infotheory.MustCMI(r, []string{"A", "C"}, []string{"B", "C"}, []string{"C"})
	reduced := infotheory.MustCMI(r, []string{"A"}, []string{"B"}, []string{"C"})
	if math.Abs(full-reduced) > 1e-9 {
		t.Fatalf("overlap reduction failed: %v vs %v", full, reduced)
	}
}

func TestKLDivergence(t *testing.T) {
	p := infotheory.Dist{"a": 0.5, "b": 0.5}
	q := infotheory.Dist{"a": 0.9, "b": 0.1}
	if d := infotheory.KLDivergence(p, p); d != 0 {
		t.Fatalf("D(p‖p) = %v", d)
	}
	if d := infotheory.KLDivergence(p, q); d <= 0 {
		t.Fatalf("D(p‖q) = %v, want > 0", d)
	}
	// Mass where q has none → +Inf.
	q2 := infotheory.Dist{"a": 1}
	if d := infotheory.KLDivergence(p, q2); !math.IsInf(d, 1) {
		t.Fatalf("D with missing support = %v", d)
	}
	if err := p.Validate(1e-12); err != nil {
		t.Fatal(err)
	}
	if err := (infotheory.Dist{"a": 0.5}).Validate(1e-12); err == nil {
		t.Fatal("non-normalized dist validated")
	}
	if err := (infotheory.Dist{"a": -0.5, "b": 1.5}).Validate(1e-12); err == nil {
		t.Fatal("negative mass validated")
	}
}

func TestEmpiricalDist(t *testing.T) {
	r := relation.FromRows([]string{"A", "B"}, []relation.Tuple{{1, 1}, {1, 2}, {2, 1}})
	d, err := empiricalDist(r, "A")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(1e-12); err != nil {
		t.Fatal(err)
	}
	if math.Abs(d[relation.RowKey(relation.Tuple{1})]-2.0/3) > 1e-12 {
		t.Fatal("marginal mass wrong")
	}
	if math.Abs(d.Entropy()-infotheory.MustEntropy(r, "A")) > 1e-12 {
		t.Fatal("Dist.Entropy disagrees with Entropy")
	}
}

func TestBitsNats(t *testing.T) {
	if math.Abs(infotheory.Bits(math.Ln2)-1) > 1e-15 {
		t.Fatal("Bits wrong")
	}
}

func TestFunctionalEntropy(t *testing.T) {
	// Constant sample ⇒ Ent = 0.
	v, err := infotheory.FunctionalEntropy([]float64{2, 2, 2})
	if err != nil || math.Abs(v) > 1e-12 {
		t.Fatalf("Ent(const) = %v, %v", v, err)
	}
	// Zeros are fine (t log t → 0).
	if _, err := infotheory.FunctionalEntropy([]float64{0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := infotheory.FunctionalEntropy([]float64{-1}); err == nil {
		t.Fatal("negative sample did not error")
	}
	if _, err := infotheory.FunctionalEntropy(nil); err == nil {
		t.Fatal("empty sample did not error")
	}
	if v, err := infotheory.FunctionalEntropy([]float64{0, 0}); err != nil || v != 0 {
		t.Fatalf("Ent(zeros) = %v, %v", v, err)
	}
}

func TestLogSumBound(t *testing.T) {
	lhs, rhs, err := infotheory.LogSumBound([]float64{1, 2, 3}, []float64{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if lhs > rhs+1e-12 {
		t.Fatalf("log sum inequality violated: %v > %v", lhs, rhs)
	}
	if _, _, err := infotheory.LogSumBound([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch did not error")
	}
	if _, rhs, _ := infotheory.LogSumBound([]float64{1}, []float64{0}); !math.IsInf(rhs, 1) {
		t.Fatal("zero denominator should give +Inf rhs")
	}
}

func TestQuickEntropyBounds(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 17))
		r := randomRelation(rng, []string{"A", "B", "C"}, 4, 1+rng.IntN(40))
		n := float64(r.N())
		for _, attrs := range [][]string{{"A"}, {"B"}, {"A", "B"}, {"A", "B", "C"}} {
			h := infotheory.MustEntropy(r, attrs...)
			if h < -1e-12 || h > math.Log(n)+1e-12 {
				return false
			}
		}
		// Monotonicity: H(AB) ≥ H(A); subadditivity H(AB) ≤ H(A)+H(B).
		ha, hb := infotheory.MustEntropy(r, "A"), infotheory.MustEntropy(r, "B")
		hab := infotheory.MustEntropy(r, "A", "B")
		if hab < ha-1e-9 || hab > ha+hb+1e-9 {
			return false
		}
		// Full-schema entropy is exactly log N for set-valued relations.
		return math.Abs(infotheory.MustEntropy(r, "A", "B", "C")-math.Log(n)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCMINonNegativeAndChainRule(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 23))
		r := randomRelation(rng, []string{"A", "B", "C", "D"}, 3, 1+rng.IntN(40))
		a, b, c := []string{"A"}, []string{"B"}, []string{"C"}
		if infotheory.MustCMI(r, a, b, c) < 0 {
			return false
		}
		// Chain rule: I(A;BD|C) = I(A;B|C) + I(A;D|BC).
		lhs := infotheory.MustCMI(r, a, []string{"B", "D"}, c)
		rhs := infotheory.MustCMI(r, a, b, c) + infotheory.MustCMI(r, a, []string{"D"}, []string{"B", "C"})
		if math.Abs(lhs-rhs) > 1e-9 {
			return false
		}
		// Symmetry.
		return math.Abs(infotheory.MustCMI(r, a, b, c)-infotheory.MustCMI(r, b, a, c)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickKLNonNegative(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 29))
		// Two random distributions over a shared support.
		k := 2 + rng.IntN(6)
		p, q := make(infotheory.Dist, k), make(infotheory.Dist, k)
		var sp, sq float64
		for i := 0; i < k; i++ {
			key := string(rune('a' + i))
			p[key] = rng.Float64() + 1e-3
			q[key] = rng.Float64() + 1e-3
			sp += p[key]
			sq += q[key]
		}
		for key := range p {
			p[key] /= sp
			q[key] /= sq
		}
		return infotheory.KLDivergence(p, q) >= 0 && infotheory.KLDivergence(p, p) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTotalVariation(t *testing.T) {
	p := infotheory.Dist{"a": 0.5, "b": 0.5}
	q := infotheory.Dist{"a": 0.25, "b": 0.25, "c": 0.5}
	if tv := infotheory.TotalVariation(p, q); math.Abs(tv-0.5) > 1e-12 {
		t.Fatalf("TV = %v, want 0.5", tv)
	}
	if tv := infotheory.TotalVariation(p, p); tv != 0 {
		t.Fatalf("TV(p,p) = %v", tv)
	}
	// Symmetry.
	if math.Abs(infotheory.TotalVariation(p, q)-infotheory.TotalVariation(q, p)) > 1e-12 {
		t.Fatal("TV not symmetric")
	}
}

func TestTotalVariationEqualsSpuriousMass(t *testing.T) {
	// P uniform over R, Q uniform over R′ ⊇ R with |R′| = (1+ρ)·N:
	// TV(P,Q) = ρ/(1+ρ).
	rng := rand.New(rand.NewPCG(31, 32))
	r := randomRelation(rng, []string{"A", "B"}, 5, 20)
	a, err := r.Project("A")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Project("B")
	if err != nil {
		t.Fatal(err)
	}
	joined := a.NaturalJoin(b) // R′ = Π_A(R) ⋈ Π_B(R) ⊇ R
	p, err := empiricalDist(r, "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	q, err := empiricalDist(joined, "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	rho := float64(joined.N()-r.N()) / float64(r.N())
	want := rho / (1 + rho)
	if tv := infotheory.TotalVariation(p, q); math.Abs(tv-want) > 1e-9 {
		t.Fatalf("TV = %v, want rho/(1+rho) = %v", tv, want)
	}
}

// empiricalDist returns the empirical distribution of r restricted to attrs
// (marginal), keyed by encoded projected rows: the string-keyed oracle the
// tests hold the columnar measures against.
func empiricalDist(r *relation.Relation, attrs ...string) (infotheory.Dist, error) {
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
	d := make(infotheory.Dist, len(counts))
	for k, c := range counts {
		d[k] = float64(c) / n
	}
	return d, nil
}
