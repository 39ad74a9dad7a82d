package randrel

import (
	"math"
	"testing"
	"testing/quick"

	"ajdloss/internal/relation"
)

func TestValidate(t *testing.T) {
	good := Model{Attrs: []string{"A", "B"}, Domains: []int{3, 3}, N: 5}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Model{
		{Attrs: nil, Domains: nil, N: 1},
		{Attrs: []string{"A"}, Domains: []int{2, 2}, N: 1},
		{Attrs: []string{"A"}, Domains: []int{0}, N: 1},
		{Attrs: []string{"A"}, Domains: []int{3}, N: 0},
		{Attrs: []string{"A"}, Domains: []int{3}, N: 4}, // N > domain
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid model validated: %+v", i, m)
		}
	}
}

func TestSampleExactSize(t *testing.T) {
	rng := NewRand(1)
	for _, n := range []int{1, 10, 100} {
		m := Model{Attrs: []string{"A", "B"}, Domains: []int{20, 20}, N: n}
		r, err := m.Sample(rng)
		if err != nil {
			t.Fatal(err)
		}
		if r.N() != n {
			t.Fatalf("sampled %d tuples, want %d", r.N(), n)
		}
		// All values in range.
		for _, tup := range r.Rows() {
			for i, v := range tup {
				if v < 1 || int(v) > m.Domains[i] {
					t.Fatalf("value %d outside domain [%d]", v, m.Domains[i])
				}
			}
		}
	}
}

func TestSampleFullDomain(t *testing.T) {
	// N = ∏dᵢ forces the dense path and must enumerate every cell.
	rng := NewRand(2)
	m := Model{Attrs: []string{"A", "B"}, Domains: []int{4, 5}, N: 20}
	r, err := m.Sample(rng)
	if err != nil {
		t.Fatal(err)
	}
	if r.N() != 20 {
		t.Fatalf("N = %d", r.N())
	}
	for a := relation.Value(1); a <= 4; a++ {
		for b := relation.Value(1); b <= 5; b++ {
			if !r.Contains(relation.Tuple{a, b}) {
				t.Fatalf("missing cell (%d,%d)", a, b)
			}
		}
	}
}

func TestSampleDensePath(t *testing.T) {
	// Density > 1/2 but < 1: dense selection, exact size, all distinct.
	rng := NewRand(3)
	m := Model{Attrs: []string{"A", "B"}, Domains: []int{10, 10}, N: 80}
	r, err := m.Sample(rng)
	if err != nil {
		t.Fatal(err)
	}
	if r.N() != 80 {
		t.Fatalf("N = %d", r.N())
	}
}

func TestDeterminism(t *testing.T) {
	m := Model{Attrs: []string{"A", "B", "C"}, Domains: []int{6, 6, 3}, N: 40}
	r1, err := m.Sample(NewRand(99))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m.Sample(NewRand(99))
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Equal(r2) {
		t.Fatal("same seed produced different relations")
	}
	r3, err := m.Sample(NewRand(100))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Equal(r3) {
		t.Fatal("different seeds produced identical relations (suspicious)")
	}
}

func TestMarginalUniformity(t *testing.T) {
	// Lemma B.1: each attribute's marginal is uniform. With many samples the
	// aggregate frequency of each value of A should be near N·trials/dA.
	const dA, dB, n, trials = 5, 5, 10, 400
	counts := make([]int, dA)
	for s := 0; s < trials; s++ {
		rng := NewRand(uint64(s))
		r, err := SampleAB(rng, dA, dB, n)
		if err != nil {
			t.Fatal(err)
		}
		pos, _ := r.Pos("A")
		for _, tup := range r.Rows() {
			counts[tup[pos]-1]++
		}
	}
	want := float64(n*trials) / dA
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("value %d occurred %d times, want ≈ %.0f (±5σ)", v+1, c, want)
		}
	}
}

func TestDomainProductOverflow(t *testing.T) {
	m := Model{
		Attrs:   []string{"A", "B", "C", "D", "E"},
		Domains: []int{1 << 20, 1 << 20, 1 << 20, 1 << 20, 1 << 20},
		N:       10,
	}
	if _, overflow := m.DomainProduct(); !overflow {
		t.Fatal("2^100 did not overflow")
	}
	// Sampling still works via rejection.
	r, err := m.Sample(NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	if r.N() != 10 {
		t.Fatalf("N = %d", r.N())
	}
}

func TestQuickSampleDistinctAndSized(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRand(seed)
		d := 2 + int(seed%8)
		n := 1 + int(seed%uint64(d*d))
		r, err := SampleAB(rng, d, d, n)
		if err != nil {
			return false
		}
		// Relation inserts deduplicate, so N() == n proves distinctness.
		return r.N() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
