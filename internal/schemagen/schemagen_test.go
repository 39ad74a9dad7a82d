package schemagen

import (
	"testing"
	"testing/quick"

	"ajdloss/internal/core"
	"ajdloss/internal/jointree"
	"ajdloss/internal/randrel"
)

func TestAttrNames(t *testing.T) {
	got := AttrNames(3)
	if len(got) != 3 || got[0] != "X1" || got[2] != "X3" {
		t.Fatalf("AttrNames = %v", got)
	}
}

func TestChain(t *testing.T) {
	attrs := AttrNames(4)
	s, err := Chain(attrs, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("chain has %d bags: %v", s.Len(), s)
	}
	if !jointree.IsAcyclic(s) {
		t.Fatal("chain schema not acyclic")
	}
	// Parameter validation.
	for _, bad := range [][3]int{{0, 0, 0}, {2, 2, 0}, {2, -1, 0}} {
		if _, err := Chain(attrs, bad[0], bad[1]); err == nil {
			t.Errorf("Chain(%v) accepted", bad)
		}
	}
	if _, err := Chain([]string{"A"}, 2, 1); err == nil {
		t.Fatal("too few attributes accepted")
	}
	// Non-aligned tail: 5 attrs, width 3, overlap 1 → bags at 0..2, 2..4.
	s2, err := Chain(AttrNames(5), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 {
		t.Fatalf("chain5 = %v", s2)
	}
}

func TestRandomJoinTreeValid(t *testing.T) {
	rng := randrel.NewRand(1)
	for i := 0; i < 50; i++ {
		m := 1 + i%6
		tree, err := RandomJoinTree(rng, m, m+3, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if tree.Len() != m {
			t.Fatalf("tree has %d bags, want %d", tree.Len(), m)
		}
	}
	// Parameter validation.
	if _, err := RandomJoinTree(rng, 0, 3, 0.4); err == nil {
		t.Fatal("m=0 accepted")
	}
	if _, err := RandomJoinTree(rng, 4, 2, 0.4); err == nil {
		t.Fatal("nAttrs < m accepted")
	}
	if _, err := RandomJoinTree(rng, 2, 3, 1.0); err == nil {
		t.Fatal("grow=1 accepted")
	}
}

func TestUniformDomains(t *testing.T) {
	d := UniformDomains([]string{"A", "B"}, 7)
	if d["A"] != 7 || d["B"] != 7 || len(d) != 2 {
		t.Fatalf("UniformDomains = %v", d)
	}
}

func TestLosslessRelationIsLossless(t *testing.T) {
	rng := randrel.NewRand(11)
	built := 0
	for i := 0; built < 5 && i < 50; i++ {
		tree, err := RandomJoinTree(rng, 3, 5, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		domains := UniformDomains(tree.Attrs(), 3)
		r, err := LosslessRelation(rng, tree, domains, 10)
		if err != nil {
			continue
		}
		built++
		loss, err := core.ComputeLossTree(r, tree)
		if err != nil {
			t.Fatal(err)
		}
		if loss.Spurious != 0 {
			t.Fatalf("planted relation has %d spurious tuples", loss.Spurious)
		}
		j, err := core.JMeasure(r, tree)
		if err != nil {
			t.Fatal(err)
		}
		if j > 1e-9 {
			t.Fatalf("planted relation has J = %v", j)
		}
	}
	if built == 0 {
		t.Fatal("no planted relation could be built in 50 attempts")
	}
}

func TestLosslessRelationMissingDomain(t *testing.T) {
	rng := randrel.NewRand(12)
	tree, err := RandomJoinTree(rng, 2, 3, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LosslessRelation(rng, tree, map[string]int{}, 5); err == nil {
		t.Fatal("missing domain did not error")
	}
}

func TestNoisyRelation(t *testing.T) {
	rng := randrel.NewRand(13)
	base := Diagonal(5)
	domains := map[string]int{"A": 10, "B": 10}
	noisy, err := NoisyRelation(rng, base, domains, 7)
	if err != nil {
		t.Fatal(err)
	}
	if noisy.N() != 12 {
		t.Fatalf("noisy N = %d, want 12", noisy.N())
	}
	if base.N() != 5 {
		t.Fatal("NoisyRelation mutated its input")
	}
	if !base.SubsetOf(noisy) {
		t.Fatal("noise removed original tuples")
	}
	// Capacity check.
	if _, err := NoisyRelation(rng, base, map[string]int{"A": 2, "B": 2}, 10); err == nil {
		t.Fatal("overfull noise accepted")
	}
	if _, err := NoisyRelation(rng, base, map[string]int{"A": 10}, 1); err == nil {
		t.Fatal("missing domain accepted")
	}
}

func TestDiagonal(t *testing.T) {
	r := Diagonal(4)
	if r.N() != 4 {
		t.Fatalf("N = %d", r.N())
	}
	for i := int32(1); i <= 4; i++ {
		if !r.Contains([]int32{i, i}) {
			t.Fatalf("missing (%d,%d)", i, i)
		}
	}
}

func TestBlockMVDLossless(t *testing.T) {
	rng := randrel.NewRand(14)
	r := BlockMVD(rng, 3, 4)
	if r.N() != 3*4*4 {
		t.Fatalf("N = %d", r.N())
	}
	schema, err := jointree.MVDSchema([]string{"C"}, []string{"A"}, []string{"B"})
	if err != nil {
		t.Fatal(err)
	}
	j, err := core.JMeasureSchema(r, schema)
	if err != nil {
		t.Fatal(err)
	}
	if j > 1e-9 {
		t.Fatalf("planted MVD has J = %v", j)
	}
}

func TestQuickChainAlwaysAcyclic(t *testing.T) {
	f := func(seed uint64) bool {
		n := 2 + int(seed%8)
		width := 2 + int(seed%3)
		if width > n {
			width = n
		}
		overlap := int(seed) % width
		if overlap < 0 {
			overlap = 0
		}
		s, err := Chain(AttrNames(n), width, overlap)
		if err != nil {
			return true // invalid parameter combination rejected is fine
		}
		return jointree.IsAcyclic(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
