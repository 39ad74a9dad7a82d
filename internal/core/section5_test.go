package core

import (
	"fmt"
	"math"
	"testing"

	"ajdloss/internal/infotheory"
	"ajdloss/internal/randrel"
	"ajdloss/internal/relation"
)

func TestEntropyDecompositionExact(t *testing.T) {
	// Eq. 112 is an identity per realization: H(A_S) reconstructed from the
	// Y_S samples matches the direct computation.
	rng := randrel.NewRand(1)
	for _, tc := range []struct{ dA, dB, eta int }{
		{10, 10, 40}, {20, 8, 60}, {5, 5, 25},
	} {
		r, err := randrel.SampleAB(rng, tc.dA, tc.dB, tc.eta)
		if err != nil {
			t.Fatal(err)
		}
		h, rec, err := EntropyDecomposition(r, "A", tc.dA, tc.dB)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(h-rec) > 1e-9 {
			t.Fatalf("dA=%d dB=%d eta=%d: H=%v reconstructed=%v", tc.dA, tc.dB, tc.eta, h, rec)
		}
	}
}

func TestYSamplesSumToEta(t *testing.T) {
	rng := randrel.NewRand(2)
	r, err := randrel.SampleAB(rng, 12, 9, 50)
	if err != nil {
		t.Fatal(err)
	}
	ys, err := YSamples(r, "A", 12, 9)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, y := range ys {
		sum += y * 9 // Z_S(i) = dB·Y_S(i)
	}
	if math.Abs(sum-50) > 1e-9 {
		t.Fatalf("Σ Z_S = %v, want 50", sum)
	}
	if _, err := YSamples(r, "Z", 12, 9); err == nil {
		t.Fatal("unknown attribute accepted")
	}
	if _, err := YSamples(r, "A", 0, 9); err == nil {
		t.Fatal("zero domain accepted")
	}
	// Value outside the declared domain errors.
	if _, err := YSamples(r, "A", 2, 9); err == nil {
		t.Fatal("undersized domain accepted")
	}
}

func TestJensenEntropyGapNonNegative(t *testing.T) {
	rng := randrel.NewRand(3)
	r, err := randrel.SampleAB(rng, 30, 30, 300)
	if err != nil {
		t.Fatal(err)
	}
	gap, err := JensenEntropyGap(r, "A", 30, 30)
	if err != nil {
		t.Fatal(err)
	}
	if gap < 0 {
		t.Fatalf("gap = %v", gap)
	}
	// Prop 5.4 (in expectation): the gap should be well below C(dB) for a
	// typical draw at this density.
	if gap > CFactor(30) {
		t.Fatalf("gap %v exceeds C(dB) %v on a typical draw", gap, CFactor(30))
	}
}

func TestPoissonizationLemmaB4(t *testing.T) {
	cases := []struct{ dA, dB, eta int64 }{
		{8, 8, 16}, {16, 8, 32}, {12, 4, 20}, {30, 10, 60},
	}
	for _, c := range cases {
		ratio, bound, err := PoissonizationRatio(c.dA, c.dB, c.eta)
		if err != nil {
			t.Fatal(err)
		}
		if ratio <= 0 {
			t.Fatalf("ratio = %v", ratio)
		}
		if ratio > bound {
			t.Fatalf("Lemma B.4 violated: ratio %v > 21·dA² = %v for %+v", ratio, bound, c)
		}
	}
	// Precondition failures.
	if _, _, err := PoissonizationRatio(4, 8, 10); err == nil {
		t.Fatal("dA < dB accepted")
	}
	if _, _, err := PoissonizationRatio(8, 8, 4); err == nil {
		t.Fatal("eta < dA accepted")
	}
	if _, _, err := PoissonizationRatio(8, 8, 60); err == nil {
		t.Fatal("eta > dA·dB − dB accepted")
	}
}

func TestCheckClassSizes(t *testing.T) {
	rng := randrel.NewRand(4)
	r, err := randrel.SampleMVD(rng, 6, 6, 3, 60)
	if err != nil {
		t.Fatal(err)
	}
	cond, err := CheckClassSizes(r, "C", 6, 3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if cond.MinClass <= 0 || cond.MinClass > 60 {
		t.Fatalf("min class = %d", cond.MinClass)
	}
	// The Lemma C.1 threshold is huge at these sizes — never satisfied.
	if cond.Satisfied {
		t.Fatalf("tiny instance reported qualified: %+v", cond)
	}
	if _, err := CheckClassSizes(r, "Z", 6, 3, 0.05); err == nil {
		t.Fatal("unknown attribute accepted")
	}
	if _, err := CheckClassSizes(r, "C", 6, 0, 0.05); err == nil {
		t.Fatal("dC=0 accepted")
	}
	// A relation dominated by one class leaves another class empty.
	skew := relation.FromRows([]string{"A", "B", "C"}, []relation.Tuple{
		{1, 1, 1}, {2, 2, 1}, {3, 3, 1},
	})
	cond2, err := CheckClassSizes(skew, "C", 3, 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if cond2.MinClass != 0 {
		t.Fatalf("empty class not detected: %+v", cond2)
	}
}

// JensenEntropyGap returns the gap between the Jensen upper bound log dA and
// the value reconstructed from Y_S, which equals
// (dA·dB/η)·Ent(Y_S-empirical) — the functional-entropy term the proof of
// Proposition 5.4 bounds. It is non-negative.
func JensenEntropyGap(r *relation.Relation, aAttr string, dA, dB int) (float64, error) {
	h, err := infotheory.Entropy(r, aAttr)
	if err != nil {
		return 0, err
	}
	gap := math.Log(float64(dA)) - h
	if gap < 0 && gap > -1e-9 {
		gap = 0
	}
	return gap, nil
}

// ClassSizeCondition evaluates Lemma C.1 on a sampled relation: whether
// every class ℓ ∈ [dC] of attribute cAttr has at least
// 128·dA·log(128·dA/δ) tuples — the qualifying condition that lets
// Corollary 5.2.1 be applied per class in the proof of Theorem 5.1.
type ClassSizeCondition struct {
	MinClass  int     // min_ℓ N_S(ℓ)
	Threshold float64 // 128·dA·log(128·dA/δ)
	Satisfied bool
}

// CheckClassSizes evaluates the Lemma C.1 condition for the relation.
func CheckClassSizes(r *relation.Relation, cAttr string, dA, dC int, delta float64) (ClassSizeCondition, error) {
	col, ok := r.Pos(cAttr)
	if !ok {
		return ClassSizeCondition{}, fmt.Errorf("core: unknown attribute %q", cAttr)
	}
	if dC <= 0 {
		return ClassSizeCondition{}, fmt.Errorf("core: non-positive dC %d", dC)
	}
	sizes := make([]int, dC)
	for _, code := range r.Columns()[col] {
		v := int(code)
		if v < 1 || v > dC {
			return ClassSizeCondition{}, fmt.Errorf("core: value %d of %q outside [%d]", v, cAttr, dC)
		}
		sizes[v-1]++
	}
	cond := ClassSizeCondition{
		MinClass:  sizes[0],
		Threshold: 128 * float64(dA) * math.Log(128*float64(dA)/delta),
	}
	for _, s := range sizes {
		if s < cond.MinClass {
			cond.MinClass = s
		}
	}
	cond.Satisfied = float64(cond.MinClass) >= cond.Threshold
	return cond, nil
}
