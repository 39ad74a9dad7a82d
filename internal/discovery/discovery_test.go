package discovery

import (
	"math"
	"reflect"
	"testing"

	"ajdloss/internal/core"
	"ajdloss/internal/engine"
	"ajdloss/internal/jointree"
	"ajdloss/internal/randrel"
	"ajdloss/internal/schemagen"
)

func TestChowLiuOnPlantedMVD(t *testing.T) {
	rng := randrel.NewRand(1)
	r := schemagen.BlockMVD(rng, 3, 4) // lossless C ↠ A|B
	c, err := ChowLiu(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
	// All bags have size 2 over 3 attributes → 2 bags.
	if c.Tree.Len() != 2 {
		t.Fatalf("Chow-Liu tree has %d bags: %v", c.Tree.Len(), c.Tree)
	}
	for _, bag := range c.Tree.Bags {
		if len(bag) != 2 {
			t.Fatalf("bag %v has size %d", bag, len(bag))
		}
	}
	if c.J < 0 {
		t.Fatalf("J = %v", c.J)
	}
}

func TestChowLiuTwoAttrs(t *testing.T) {
	r := schemagen.Diagonal(5)
	c, err := ChowLiu(r)
	if err != nil {
		t.Fatal(err)
	}
	if c.Tree.Len() != 1 {
		t.Fatalf("2-attribute Chow-Liu should be a single bag, got %v", c.Tree)
	}
	if c.J > 1e-9 {
		t.Fatalf("single-bag schema must be lossless, J = %v", c.J)
	}
}

func TestChowLiuOneAttrErrors(t *testing.T) {
	r := schemagen.Diagonal(3)
	single, err := r.Project("A")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ChowLiu(single); err == nil {
		t.Fatal("single attribute accepted")
	}
}

func TestCoarsenMonotone(t *testing.T) {
	rng := randrel.NewRand(3)
	model := randrel.Model{Attrs: []string{"A", "B", "C", "D"}, Domains: []int{3, 3, 3, 3}, N: 30}
	r, err := model.Sample(rng)
	if err != nil {
		t.Fatal(err)
	}
	start, err := ChowLiu(r)
	if err != nil {
		t.Fatal(err)
	}
	path, err := Coarsen(r, start.Tree, 0)
	if err != nil {
		t.Fatal(err)
	}
	// J non-increasing along the path, ending at a single bag with J = 0.
	for i := 1; i < len(path); i++ {
		if path[i].J > path[i-1].J+1e-9 {
			t.Fatalf("J increased from %v to %v at step %d", path[i-1].J, path[i].J, i)
		}
	}
	last := path[len(path)-1]
	if last.Tree.Len() != 1 || last.J > 1e-9 {
		t.Fatalf("coarsening did not reach the trivial schema: %v (J=%v)", last.Tree, last.J)
	}
}

func TestDiscoverFindsPlantedSchema(t *testing.T) {
	rng := randrel.NewRand(4)
	r := schemagen.BlockMVD(rng, 4, 3)
	c, err := Discover(r, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if c.J > 1e-9 {
		t.Fatalf("discovered schema has J = %v", c.J)
	}
	// The discovered schema must actually be lossless on the data.
	loss, err := core.ComputeLossTree(r, c.Tree)
	if err != nil {
		t.Fatal(err)
	}
	if loss.Spurious != 0 {
		t.Fatalf("discovered schema has %d spurious tuples", loss.Spurious)
	}
	// And nontrivial (more than one bag) because the planted MVD is real.
	if c.Tree.Len() < 2 {
		t.Fatalf("discovery fell back to the trivial schema: %v", c.Tree)
	}
}

func TestFindMVDsPlanted(t *testing.T) {
	rng := randrel.NewRand(5)
	r := schemagen.BlockMVD(rng, 4, 3)
	cands, err := FindMVDs(r, 1, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no MVD found on planted data")
	}
	// The best candidate is exact. (Note it need not be the planted C ↠ A|B:
	// in the block construction A functionally determines C, so A ↠ B|C is
	// exact too.)
	best := cands[0]
	if best.J > 1e-9 {
		t.Fatalf("best MVD has J = %v", best.J)
	}
	if len(best.Groups) < 2 {
		t.Fatalf("best MVD groups = %v", best.Groups)
	}
	// The planted separator C must appear among the exact candidates.
	foundC := false
	for _, c := range cands {
		if len(c.X) == 1 && c.X[0] == "C" && c.J <= 1e-9 {
			foundC = true
			break
		}
	}
	if !foundC {
		t.Fatal("planted MVD C ->> A|B not discovered")
	}
}

func TestFindMVDsValidation(t *testing.T) {
	r := schemagen.Diagonal(4)
	if _, err := FindMVDs(r, 5, 0); err == nil {
		t.Fatal("maxSep ≥ #attrs accepted")
	}
	if _, err := FindMVDs(r, -1, 0); err == nil {
		t.Fatal("negative maxSep accepted")
	}
	// Diagonal relation: A determines B, so the empty separator yields a
	// dependence edge and no split — unless threshold is huge.
	cands, err := FindMVDs(r, 0, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 0 {
		t.Fatalf("diagonal relation should admit no exact MVD, got %v", cands)
	}
	loose, err := FindMVDs(r, 0, math.Log(4)+1)
	if err != nil {
		t.Fatal(err)
	}
	if len(loose) == 0 {
		t.Fatal("huge threshold should admit the independence split")
	}
}

func TestFindMVDsRankedByJ(t *testing.T) {
	rng := randrel.NewRand(6)
	model := randrel.Model{Attrs: []string{"A", "B", "C", "D"}, Domains: []int{3, 3, 3, 3}, N: 40}
	r, err := model.Sample(rng)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := FindMVDs(r, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(cands); i++ {
		if cands[i].J < cands[i-1].J-1e-12 {
			t.Fatal("candidates not sorted by J")
		}
	}
	// Each candidate's schema must be valid and acyclic.
	for _, c := range cands {
		s, err := jointree.MVDSchema(c.X, c.Groups...)
		if err != nil {
			t.Fatal(err)
		}
		if !jointree.IsAcyclic(s) {
			t.Fatalf("candidate schema %v not acyclic", s)
		}
	}
}

// TestFindMVDsUnderProcsCap: FindMVDs' plans run on the engine's pool, so
// engine.SetMaxProcs (the daemon's -procs) bounds them; the candidates must
// be identical capped and uncapped. 20000 rows make the plan levels large
// enough to fan out when uncapped.
func TestFindMVDsUnderProcsCap(t *testing.T) {
	model := randrel.Model{Attrs: []string{"A", "B", "C", "D", "E"}, Domains: []int{16, 16, 16, 16, 16}, N: 20000}
	find := func(procs int) []MVDCandidate {
		engine.SetMaxProcs(procs)
		defer engine.SetMaxProcs(0)
		r, err := model.Sample(randrel.NewRand(9))
		if err != nil {
			t.Fatal(err)
		}
		cands, err := FindMVDs(r, 2, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		return cands
	}
	capped, uncapped := find(1), find(0)
	if len(capped) == 0 || !reflect.DeepEqual(capped, uncapped) {
		t.Fatalf("candidates differ under -procs 1:\n%v\n%v", capped, uncapped)
	}
}

func TestDiscoverNoisyDegradesGracefully(t *testing.T) {
	rng := randrel.NewRand(7)
	base := schemagen.BlockMVD(rng, 4, 3)
	domains := map[string]int{"A": 12, "B": 12, "C": 4}
	noisy, err := schemagen.NoisyRelation(rng, base, domains, 30)
	if err != nil {
		t.Fatal(err)
	}
	// With noise, the planted split no longer has J = 0 but a permissive
	// target still discovers a nontrivial schema.
	c, err := Discover(noisy, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if c.J > 0.5 && c.Tree.Len() > 1 {
		t.Fatalf("Discover returned J = %v above target with a nontrivial schema", c.J)
	}
}
