package join

import (
	"math"
	"math/rand/v2"
	"testing"

	"ajdloss/internal/jointree"
	"ajdloss/internal/relation"
)

// checkInJoin draws n tuples from s and fails unless each lies in mat.
func checkInJoin(t *testing.T, s *Sampler, mat *relation.Relation, rng *rand.Rand, n int) {
	t.Helper()
	cols := make([]int, len(mat.Attrs()))
	pos := map[string]int{}
	for i, a := range s.Attrs() {
		pos[a] = i
	}
	for i, a := range mat.Attrs() {
		cols[i] = pos[a]
	}
	buf := make(relation.Tuple, len(cols))
	for i := 0; i < n; i++ {
		tup := s.Sample(rng)
		for j, c := range cols {
			buf[j] = tup[c]
		}
		if !mat.Contains(buf) {
			t.Fatalf("sampled tuple %v not in join", tup)
		}
	}
}

func TestSamplerMatchesJoinSupport(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	r := randomRelation(rng, []string{"A", "B", "C", "D"}, 3, 25)
	tree := chainTree(t)
	mat, err := materialize(r, tree)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(r.Snapshot(), tree)
	if err != nil {
		t.Fatal(err)
	}
	if s.JoinSize() != int64(mat.N()) {
		t.Fatalf("sampler size %d != join %d", s.JoinSize(), mat.N())
	}
	checkInJoin(t, s, mat, rng, 200)
}

func TestSamplerUniform(t *testing.T) {
	// Small join with known size: frequencies must be near-uniform. The
	// projections of r are AB = {(1,1),(2,1),(3,2)} and
	// BC = {(1,5),(1,6),(2,7)}.
	r := relation.FromRows([]string{"A", "B", "C"}, []relation.Tuple{{1, 1, 5}, {2, 1, 6}, {3, 2, 7}})
	tree := jointree.MustJoinTree([][]string{{"A", "B"}, {"B", "C"}}, [][2]int{{0, 1}})
	s, err := NewSampler(r.Snapshot(), tree)
	if err != nil {
		t.Fatal(err)
	}
	// Join: (1,1,5),(1,1,6),(2,1,5),(2,1,6),(3,2,7) — size 5.
	if s.JoinSize() != 5 {
		t.Fatalf("join size = %d, want 5", s.JoinSize())
	}
	rng := rand.New(rand.NewPCG(3, 4))
	const draws = 20000
	counts := make(map[string]int)
	for i := 0; i < draws; i++ {
		counts[relation.RowKey(s.Sample(rng))]++
	}
	if len(counts) != 5 {
		t.Fatalf("support = %d outcomes", len(counts))
	}
	want := float64(draws) / 5
	for k, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("outcome %q drawn %d times, want ≈ %.0f", k, c, want)
		}
	}
}

func TestSamplerEmptyJoin(t *testing.T) {
	tree := jointree.MustJoinTree([][]string{{"A", "B"}, {"B", "C"}}, [][2]int{{0, 1}})
	if _, err := NewSampler(relation.New("A", "B", "C").Snapshot(), tree); err == nil {
		t.Fatal("empty join sampler did not error")
	}
	r := relation.FromRows([]string{"A", "B"}, []relation.Tuple{{1, 1}})
	if _, err := NewSampler(r.Snapshot(), tree); err == nil {
		t.Fatal("unknown attribute accepted")
	}
}

func TestSampleSpurious(t *testing.T) {
	// Diagonal relation, independence schema: every off-diagonal tuple is
	// spurious.
	r := diagonal(10)
	schema := jointree.MustSchema([]string{"A"}, []string{"B"})
	tree, err := jointree.BuildJoinTree(schema)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(r.Snapshot(), tree)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 6))
	sp := SampleSpurious(s, r, rng, 500)
	// ρ/(1+ρ) = 90/100: expect ≈450 spurious among 500.
	if len(sp) < 400 {
		t.Fatalf("only %d/500 spurious draws", len(sp))
	}
	pos := map[string]int{}
	for i, a := range s.Attrs() {
		pos[a] = i
	}
	for _, tup := range sp {
		if tup[pos["A"]] == tup[pos["B"]] {
			t.Fatalf("diagonal tuple %v reported spurious", tup)
		}
	}
}

func TestSamplerLosslessJoinSamplesOriginal(t *testing.T) {
	ab := relation.FromRows([]string{"A", "B"}, []relation.Tuple{{1, 1}, {2, 2}})
	bc := relation.FromRows([]string{"B", "C"}, []relation.Tuple{{1, 5}, {2, 6}})
	r := ab.NaturalJoin(bc)
	schema := jointree.MustSchema([]string{"A", "B"}, []string{"B", "C"})
	tree, err := jointree.BuildJoinTree(schema)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(r.Snapshot(), tree)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(7, 8))
	if got := SampleSpurious(s, r, rng, 200); len(got) != 0 {
		t.Fatalf("lossless join produced %d spurious samples", len(got))
	}
}

func TestSamplerStarTree(t *testing.T) {
	// Branching tree exercises multi-child conditional sampling.
	rng := rand.New(rand.NewPCG(9, 10))
	tree := jointree.MustJoinTree(
		[][]string{{"A", "B"}, {"B", "C"}, {"B", "D"}},
		[][2]int{{0, 1}, {0, 2}},
	)
	r := randomRelation(rng, []string{"A", "B", "C", "D"}, 3, 20)
	mat, err := materialize(r, tree)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(r.Snapshot(), tree)
	if err != nil {
		t.Fatal(err)
	}
	if s.JoinSize() != int64(mat.N()) {
		t.Fatalf("size %d != %d", s.JoinSize(), mat.N())
	}
	checkInJoin(t, s, mat, rng, 300)
}
