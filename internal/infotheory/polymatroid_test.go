package infotheory_test

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"ajdloss/internal/infotheory"
	"ajdloss/internal/randrel"
	"ajdloss/internal/relation"
)

func TestEntropyVectorValues(t *testing.T) {
	r := relation.FromRows([]string{"A", "B"}, []relation.Tuple{{1, 1}, {1, 2}, {2, 1}, {2, 2}})
	ev, err := infotheory.NewEntropyVector(r, []string{"A", "B"})
	if err != nil {
		t.Fatal(err)
	}
	hA, err := ev.HOf("A")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(hA-math.Log(2)) > 1e-12 {
		t.Fatalf("H(A) = %v", hA)
	}
	hAB, err := ev.HOf("A", "B")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(hAB-math.Log(4)) > 1e-12 {
		t.Fatalf("H(AB) = %v", hAB)
	}
	if _, err := ev.HOf("Z"); err == nil {
		t.Fatal("unknown attribute accepted")
	}
	if ev.H(0) != 0 {
		t.Fatal("H(∅) != 0")
	}
}

func TestEntropyVectorValidation(t *testing.T) {
	r := relation.FromRows([]string{"A"}, []relation.Tuple{{1}})
	if _, err := infotheory.NewEntropyVector(r, nil); err == nil {
		t.Fatal("empty ground set accepted")
	}
	big := make([]string, 21)
	for i := range big {
		big[i] = string(rune('A' + i))
	}
	if _, err := infotheory.NewEntropyVector(r, big); err == nil {
		t.Fatal("oversized ground set accepted")
	}
}

func TestQuickEmpiricalEntropiesArePolymatroids(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 61))
		attrs := []string{"A", "B", "C", "D"}
		r := relation.New(attrs...)
		row := make(relation.Tuple, 4)
		n := 1 + rng.IntN(30)
		for i := 0; i < n; i++ {
			for j := range row {
				row[j] = relation.Value(rng.IntN(3) + 1)
			}
			r.Insert(row)
		}
		ev, err := infotheory.NewEntropyVector(r, attrs)
		if err != nil {
			return false
		}
		return len(ev.CheckPolymatroid(1e-9)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPolymatroidOnMultiset(t *testing.T) {
	m := relation.NewMultiset("A", "B", "C")
	m.Add(relation.Tuple{1, 1, 1}, 5)
	m.Add(relation.Tuple{1, 2, 1}, 2)
	m.Add(relation.Tuple{2, 2, 2}, 1)
	ev, err := infotheory.NewEntropyVector(m, []string{"A", "B", "C"})
	if err != nil {
		t.Fatal(err)
	}
	if v := ev.CheckPolymatroid(1e-9); len(v) != 0 {
		t.Fatalf("multiset entropies violate polymatroid axioms: %v", v)
	}
	// Scale invariance of the empirical distribution.
	ev2, err := infotheory.NewEntropyVector(m.Scale(7), []string{"A", "B", "C"})
	if err != nil {
		t.Fatal(err)
	}
	for mask := 0; mask < 8; mask++ {
		if math.Abs(ev.H(mask)-ev2.H(mask)) > 1e-12 {
			t.Fatalf("entropy not scale-invariant at mask %d", mask)
		}
	}
}

func BenchmarkEntropyVector(b *testing.B) {
	model := randrel.Model{Attrs: []string{"A", "B", "C"}, Domains: []int{64, 64, 8}, N: 2000}
	r, err := model.Sample(randrel.NewRand(7))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, err := infotheory.NewEntropyVector(r, r.Attrs())
		if err != nil {
			b.Fatal(err)
		}
		if v := ev.CheckPolymatroid(1e-9); len(v) != 0 {
			b.Fatal("polymatroid violation")
		}
	}
}
