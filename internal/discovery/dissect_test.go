package discovery

import (
	"testing"

	"ajdloss/internal/core"
	"ajdloss/internal/join"
	"ajdloss/internal/jointree"
	"ajdloss/internal/randrel"
	"ajdloss/internal/relation"
	"ajdloss/internal/schemagen"
)

// snowflake builds a 5-attribute relation with the planted acyclic schema
// {K,A}, {K,B}, {A,C}: K ↠ A C | B and A ↠ C | rest hold by construction.
func snowflake(seed uint64) *relation.Relation {
	rng := randrel.NewRand(seed)
	ka := relation.New("K", "A")
	kb := relation.New("K", "B")
	ac := relation.New("A", "C")
	for k := relation.Value(1); k <= 12; k++ {
		a := relation.Value(rng.IntN(4) + 1)
		ka.Insert(relation.Tuple{k, a})
		for b := 0; b < 2; b++ {
			kb.Insert(relation.Tuple{k, relation.Value(rng.IntN(5) + 1)})
		}
	}
	for a := relation.Value(1); a <= 4; a++ {
		ac.Insert(relation.Tuple{a, a + 100})
	}
	return ka.NaturalJoin(kb).NaturalJoin(ac)
}

func TestDissectRecoversPlantedSchema(t *testing.T) {
	r := snowflake(1)
	cand, err := Dissect(r, DissectConfig{MaxSep: 1, Threshold: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if cand.J > 1e-9 {
		t.Fatalf("dissected schema has J = %v", cand.J)
	}
	if cand.Tree.Len() < 3 {
		t.Fatalf("dissection too coarse: %v", cand.Tree)
	}
	// Lossless on the data.
	loss, err := core.ComputeLossTree(r, cand.Tree)
	if err != nil {
		t.Fatal(err)
	}
	if loss.Spurious != 0 {
		t.Fatalf("dissected schema loses %d tuples", loss.Spurious)
	}
	// No bag should be the whole attribute set.
	for _, bag := range cand.Tree.Bags {
		if len(bag) == r.Arity() {
			t.Fatalf("dissection kept the trivial bag: %v", cand.Tree)
		}
	}
}

func TestDissectRespectsMinBag(t *testing.T) {
	r := snowflake(2)
	cand, err := Dissect(r, DissectConfig{MaxSep: 1, Threshold: 1e-9, MinBag: r.Arity()})
	if err != nil {
		t.Fatal(err)
	}
	if cand.Tree.Len() != 1 {
		t.Fatalf("MinBag = arity should keep one bag, got %v", cand.Tree)
	}
	if cand.J > 1e-9 {
		t.Fatalf("trivial schema must be lossless, J = %v", cand.J)
	}
}

func TestDissectValidation(t *testing.T) {
	if _, err := Dissect(relation.New("A", "B"), DissectConfig{}); err == nil {
		t.Fatal("empty relation accepted")
	}
	one := relation.FromRows([]string{"A"}, []relation.Tuple{{1}})
	if _, err := Dissect(one, DissectConfig{}); err == nil {
		t.Fatal("single attribute accepted")
	}
}

func TestDissectOnRandomNoise(t *testing.T) {
	// Pure noise has no exact splits: dissection returns a coarse schema
	// whose loss is still consistent with Lemma 4.1.
	rng := randrel.NewRand(3)
	model := randrel.Model{Attrs: []string{"A", "B", "C", "D"}, Domains: []int{3, 3, 3, 3}, N: 50}
	r, err := model.Sample(rng)
	if err != nil {
		t.Fatal(err)
	}
	cand, err := Dissect(r, DissectConfig{MaxSep: 1, Threshold: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	loss, err := core.ComputeLossTree(r, cand.Tree)
	if err != nil {
		t.Fatal(err)
	}
	if cand.J > loss.LogOnePlusRho()+1e-9 {
		t.Fatalf("Lemma 4.1 violated by dissected schema: %v > %v", cand.J, loss.LogOnePlusRho())
	}
}

func TestDissectPermissiveThresholdStillAcyclic(t *testing.T) {
	// A permissive threshold forces aggressive splitting; the result must
	// remain a valid acyclic schema covering all attributes.
	r := snowflake(4)
	cand, err := Dissect(r, DissectConfig{MaxSep: 2, Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := cand.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
	covered := map[string]bool{}
	for _, bag := range cand.Tree.Bags {
		for _, a := range bag {
			covered[a] = true
		}
	}
	for _, a := range r.Attrs() {
		if !covered[a] {
			t.Fatalf("attribute %q lost by dissection", a)
		}
	}
	// Aggressive splits can be lossy — quantify and sanity-check via the
	// sampler that spurious tuples exist iff loss > 0.
	lossRep, err := core.ComputeLossTree(r, cand.Tree)
	if err != nil {
		t.Fatal(err)
	}
	s, err := join.NewSampler(r.Snapshot(), cand.Tree)
	if err != nil {
		t.Fatal(err)
	}
	if s.JoinSize() != lossRep.JoinSize {
		t.Fatalf("sampler join size %d != loss join size %d", s.JoinSize(), lossRep.JoinSize)
	}
}

func TestDissectAgainstPlantedRandomTree(t *testing.T) {
	// End-to-end: plant a lossless AJD, dissect, and require a lossless
	// discovery at least as fine as the trivial schema.
	rng := randrel.NewRand(5)
	for attempt := 0; attempt < 20; attempt++ {
		tree, err := schemagen.RandomJoinTree(rng, 3, 5, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		domains := schemagen.UniformDomains(tree.Attrs(), 3)
		r, err := schemagen.LosslessRelation(rng, tree, domains, 12)
		if err != nil {
			continue
		}
		cand, err := Dissect(r, DissectConfig{MaxSep: 2, Threshold: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		if cand.J > 1e-9 {
			t.Fatalf("dissection of planted lossless data has J = %v (tree %v)", cand.J, cand.Tree)
		}
		sch := cand.Tree.Schema()
		if !jointree.IsAcyclic(sch) {
			t.Fatalf("cyclic discovery %v", sch)
		}
		return
	}
	t.Skip("no planted instance produced in 20 attempts")
}
