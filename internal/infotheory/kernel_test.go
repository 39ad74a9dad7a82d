package infotheory

// Tests of unexported state. They live in the internal test package, which
// must not import relation: relation's engine imports infotheory, so the
// tests that need real relations are in package infotheory_test.

import (
	"math"
	"testing"
)

// TestCLogCTableBitIdentical: the table path of EntropyFromCounts must round
// exactly like the formula it replaces, for every tabled count and for a few
// counts past the table that take the fallback.
func TestCLogCTableBitIdentical(t *testing.T) {
	formula := func(c int) float64 {
		if c <= 1 {
			return 0
		}
		fc := float64(c)
		return float64(fc * math.Log(fc))
	}
	for c := 0; c < len(cLogCTable); c++ {
		if got, want := cLogCTable[c], formula(c); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("table[%d] = %v, formula %v", c, got, want)
		}
	}
	for _, c := range []int{len(cLogCTable), len(cLogCTable) + 1, 1 << 20, 123456789} {
		if got, want := cLogC(c), formula(c); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("cLogC(%d) = %v, formula %v", c, got, want)
		}
	}
	// Mixed counts on both sides of the table edge sum like the formula.
	counts := []int{0, 1, 2, 7, 4095, 4096, 4097, 100000}
	total := 0
	var s float64
	for _, c := range counts {
		total += c
		s += formula(c)
	}
	want := math.Log(float64(total)) - s/float64(total)
	if got := EntropyFromCounts(counts, total); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("EntropyFromCounts = %v, formula %v", got, want)
	}
}

func TestCheckPolymatroidDetectsFabricatedViolation(t *testing.T) {
	// Hand-build a non-entropic vector and confirm the checker fires.
	ev := &EntropyVector{attrs: []string{"A", "B"}, h: []float64{0, 1, 1, 3}}
	// H(AB) = 3 > H(A)+H(B) = 2 violates submodularity with S=∅.
	if v := ev.CheckPolymatroid(1e-9); len(v) == 0 {
		t.Fatal("fabricated violation not detected")
	}
	ev2 := &EntropyVector{attrs: []string{"A", "B"}, h: []float64{0, 1, 1, 0.5}}
	// H(AB) < H(A) violates monotonicity.
	found := false
	for _, viol := range ev2.CheckPolymatroid(1e-9) {
		if viol.Axiom == "monotone" {
			found = true
		}
	}
	if !found {
		t.Fatal("monotonicity violation not detected")
	}
}
