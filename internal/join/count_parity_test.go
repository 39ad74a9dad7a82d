package join

import (
	"math/rand/v2"
	"runtime"
	"testing"
	"testing/quick"

	"ajdloss/internal/jointree"
	"ajdloss/internal/relation"
)

// atEachGOMAXPROCS runs f at GOMAXPROCS 1, 2 and 8: the snapshot count plans
// its groupings on the engine's worker pool, and parity must not depend on
// the pool size.
func atEachGOMAXPROCS(t *testing.T, f func(t *testing.T)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		f(t)
	}
}

// naiveCount is the count's oracle: junction-tree message passing over the
// bag projections of a cold copy of r, so no grouping is shared with the
// snapshot count, with messages keyed by the separator values' row key. It
// shares no code with treePlan and scales to joins too large to
// materialize. Its callers keep joins far below 2⁶³, so it does not check
// overflow.
func naiveCount(r *relation.Relation, tree *jointree.JoinTree) (int64, error) {
	rels, err := Projections(r.Clone(), tree.Schema())
	if err != nil {
		return 0, err
	}
	rooted, err := jointree.Root(tree, 0)
	if err != nil {
		return 0, err
	}
	// sepKey keys a tuple of rel by its values on the attributes sep.
	sepKey := func(rel *relation.Relation, tup relation.Tuple, sep []string) string {
		vals := make(relation.Tuple, len(sep))
		for j, a := range sep {
			c, _ := rel.Pos(a)
			vals[j] = tup[c]
		}
		return relation.RowKey(vals)
	}
	msgs := make([]map[string]int64, len(rooted.Order))
	var total int64
	for pos := len(rooted.Order) - 1; pos >= 0; pos-- {
		rel := rels[rooted.Order[pos]]
		msgs[pos] = make(map[string]int64)
		for _, tup := range rel.Rows() {
			w := int64(1)
			for c := pos + 1; c < len(rooted.Order); c++ {
				if rooted.Parent[c] != pos {
					continue
				}
				w *= msgs[c][sepKey(rel, tup, rooted.Sep[c])]
			}
			if pos == 0 {
				total += w
			} else {
				msgs[pos][sepKey(rel, tup, rooted.Sep[pos])] += w
			}
		}
	}
	return total, nil
}

// materialize is the independent oracle: the join of the bag projections
// of a cold copy of r, built tuple by tuple.
func materialize(r *relation.Relation, tree *jointree.JoinTree) (*relation.Relation, error) {
	rels, err := Projections(r.Clone(), tree.Schema())
	if err != nil {
		return nil, err
	}
	return MaterializeTree(tree, rels)
}

// TestQuickSnapshotCountParity compares the snapshot count (CountSnapshot,
// CountAcyclicJoin and the sampler's JoinSize) and the naive count with the
// size of the materialized join on random join trees and relations: single
// bags, empty separators, empty relations and duplicate-heavy domains.
func TestQuickSnapshotCountParity(t *testing.T) {
	atEachGOMAXPROCS(t, func(t *testing.T) {
		f := func(seed uint64) bool {
			rng := rand.New(rand.NewPCG(seed, 47))
			// At least one attribute per bag keeps every bag non-empty.
			m := 1 + rng.IntN(5)
			tree, err := randomJoinTree(rng, m, m+rng.IntN(4))
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			// Domain 1 makes every column constant; domain 2 is duplicate
			// heavy; n = 0 is the empty relation.
			domain := 1 + rng.IntN(4)
			n := rng.IntN(60)
			if rng.IntN(8) == 0 {
				n = 0
			}
			r := randomRelation(rng, tree.Attrs(), domain, n)
			mat, err := materialize(r, tree)
			if err != nil {
				t.Logf("seed %d: materialized oracle: %v", seed, err)
				return false
			}
			want := int64(mat.N())
			if got, err := naiveCount(r, tree); err != nil || got != want {
				t.Logf("seed %d: naive count %d (%v), materialized %d", seed, got, err, want)
				return false
			}
			got, err := CountSnapshot(r.Snapshot(), tree)
			if err != nil || got != want {
				t.Logf("seed %d: snapshot count %d (%v), oracle %d", seed, got, err, want)
				return false
			}
			// Through the schema, on the GYO join tree: any join tree of the
			// schema has the same join.
			got, err = CountAcyclicJoin(r, tree.Schema())
			if err != nil || got != want {
				t.Logf("seed %d: CountAcyclicJoin %d (%v), oracle %d", seed, got, err, want)
				return false
			}
			// The sampler runs the same pass and refuses only the empty join.
			s, err := NewSampler(r.Snapshot(), tree)
			if (err == nil) != (want > 0) || (err == nil && s.JoinSize() != want) {
				t.Logf("seed %d: NewSampler %v (%v), oracle %d", seed, s, err, want)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSnapshotCountParityOnPool repeats the parity check on a relation
// large enough that the count's plan levels fan out on the engine's pool:
// a chain of seven bags over 20000 rows puts seven groupings of every row
// on each of its first two levels; the sampler, built on another cold copy,
// plans the same groupings. The naive count over the bag projections of a
// cold copy is the oracle; the join is too large to materialize.
func TestSnapshotCountParityOnPool(t *testing.T) {
	attrs := []string{"A", "B", "C", "D", "E", "F", "G", "H"}
	bags := make([][]string, len(attrs)-1)
	edges := make([][2]int, 0, len(bags)-1)
	for i := range bags {
		bags[i] = attrs[i : i+2]
		if i > 0 {
			edges = append(edges, [2]int{i - 1, i})
		}
	}
	tree := jointree.MustJoinTree(bags, edges)
	r := randomRelation(rand.New(rand.NewPCG(8, 9)), attrs, 8, 20000)
	want, err := naiveCount(r, tree)
	if err != nil {
		t.Fatal(err)
	}
	atEachGOMAXPROCS(t, func(t *testing.T) {
		view := r.Clone() // a cold snapshot at every pool size
		if got, err := CountSnapshot(view.Snapshot(), tree); err != nil || got != want {
			t.Fatalf("snapshot count %d (%v), oracle %d", got, err, want)
		}
		if got, err := CountAcyclicJoin(view, tree.Schema()); err != nil || got != want {
			t.Fatalf("CountAcyclicJoin %d (%v), oracle %d", got, err, want)
		}
		if s, err := NewSampler(r.Clone().Snapshot(), tree); err != nil || s.JoinSize() != want {
			t.Fatalf("NewSampler %v (%v), oracle %d", s, err, want)
		}
	})
}

// TestSnapshotCountEdgeCases pins the cases the random trees reach only by
// chance: a single bag, a forest of disjoint bags (every separator empty)
// and the empty relation.
func TestSnapshotCountEdgeCases(t *testing.T) {
	r := randomRelation(rand.New(rand.NewPCG(5, 6)), []string{"A", "B", "C"}, 3, 20)
	cases := []struct {
		name string
		tree *jointree.JoinTree
	}{
		{"single bag", jointree.MustJoinTree([][]string{{"A", "B", "C"}}, nil)},
		{"empty separators", jointree.MustJoinTree([][]string{{"A"}, {"B"}, {"C"}}, [][2]int{{0, 1}, {1, 2}})},
		{"chain", jointree.MustJoinTree([][]string{{"A", "B"}, {"B", "C"}}, [][2]int{{0, 1}})},
	}
	for _, rel := range []*relation.Relation{r, relation.New("A", "B", "C")} {
		for _, c := range cases {
			want, err := naiveCount(rel, c.tree)
			if err != nil {
				t.Fatal(err)
			}
			got, err := CountSnapshot(rel.Snapshot(), c.tree)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s, n=%d: snapshot count %d, oracle %d", c.name, rel.N(), got, want)
			}
		}
	}
	if got, err := CountSnapshot(r.Snapshot(), jointree.MustJoinTree([][]string{{"A", "Z"}}, nil)); err == nil {
		t.Fatalf("unknown attribute counted %d", got)
	}
}
