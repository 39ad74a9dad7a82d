package bitset

import (
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	s := New(10)
	if s.Len() != 0 {
		t.Fatal("new set not empty")
	}
	s.Add(3)
	s.Add(7)
	s.Add(3)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if !s.Contains(3) || !s.Contains(7) || s.Contains(4) {
		t.Fatal("Contains wrong")
	}
	s.Remove(3)
	if s.Contains(3) || s.Len() != 1 {
		t.Fatal("Remove failed")
	}
	s.Remove(100) // out of range: no-op
	s.Remove(-1)  // negative: no-op
}

func TestGrowth(t *testing.T) {
	s := Of()
	s.Add(1000)
	if !s.Contains(1000) || s.Len() != 1 {
		t.Fatal("growth failed")
	}
	if s.Contains(999) || s.Contains(1001) {
		t.Fatal("phantom elements after growth")
	}
}

func TestAddNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	s := New(4)
	s.Add(-1)
}

func TestSetAlgebra(t *testing.T) {
	a := Of(1, 2, 3, 64, 100)
	b := Of(3, 64)
	if got := a.Elems(); !reflect.DeepEqual(got, []int{1, 2, 3, 64, 100}) {
		t.Fatalf("Elems = %v", got)
	}
	if !b.SubsetOf(a) || a.SubsetOf(b) {
		t.Fatal("SubsetOf wrong")
	}
	// A shorter word slice is a subset of a longer one and vice versa.
	if !Of(1).SubsetOf(Of(1, 200)) || Of(1, 200).SubsetOf(Of(1)) || !New(0).SubsetOf(Of(5)) {
		t.Fatal("SubsetOf wrong across word lengths")
	}
}

func TestEqualAndKey(t *testing.T) {
	a := Of(1, 65)
	b := New(128)
	b.Add(1)
	b.Add(65)
	if !a.SubsetOf(b) || !b.SubsetOf(a) || a.Key() != b.Key() {
		t.Fatal("equal sets reported unequal")
	}
	// Keys must agree even when capacity differs (trailing zero words).
	c := New(1024)
	c.Add(1)
	c.Add(65)
	if a.Key() != c.Key() {
		t.Fatal("Key differs across capacities")
	}
	d := Of(1, 66)
	if a.Key() == d.Key() {
		t.Fatal("distinct sets share a key")
	}
}

func TestString(t *testing.T) {
	if s := Of(2, 1).String(); s != "{1, 2}" {
		t.Fatalf("String = %q", s)
	}
	if s := Of().String(); s != "{}" {
		t.Fatalf("String = %q", s)
	}
}

// randomSet draws a set over [0, 130) — spanning word boundaries.
func randomSet(rng *rand.Rand) Set {
	s := New(130)
	for i := 0; i < 130; i++ {
		if rng.Float64() < 0.3 {
			s.Add(i)
		}
	}
	return s
}

func TestQuickAlgebraLaws(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	f := func(seed uint64) bool {
		local := rand.New(rand.NewPCG(seed, rng.Uint64()))
		a, b := randomSet(local), randomSet(local)
		// Every set is a subset of itself; a ⊆ b and b ⊆ a exactly when
		// the keys agree.
		if !a.SubsetOf(a) || (a.SubsetOf(b) && b.SubsetOf(a)) != (a.Key() == b.Key()) {
			return false
		}
		// Removing b's elements from a leaves a subset of a, disjoint from b.
		d := FromSlice(a.Elems())
		for _, e := range b.Elems() {
			d.Remove(e)
		}
		if !d.SubsetOf(a) {
			return false
		}
		for _, e := range d.Elems() {
			if b.Contains(e) {
				return false
			}
		}
		// Adding b's elements to a gives a superset of both, of size
		// |a| + |b| − |a ∩ b|.
		u := FromSlice(a.Elems())
		common := 0
		for _, e := range b.Elems() {
			if a.Contains(e) {
				common++
			}
			u.Add(e)
		}
		return a.SubsetOf(u) && b.SubsetOf(u) && u.Len() == a.Len()+b.Len()-common && d.Len() == a.Len()-common
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickElemsRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		elems := make([]int, 0, len(raw))
		for _, r := range raw {
			elems = append(elems, int(r%500))
		}
		s := FromSlice(elems)
		// Every listed element is contained, and Elems is sorted unique.
		got := s.Elems()
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				return false
			}
		}
		for _, e := range elems {
			if !s.Contains(e) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
