package ajdloss

// Parity property tests for the columnar group-count engine: on random
// relations (seeded via internal/randrel) every entropy, J-measure and loss
// value produced by the group-ID path must agree with the legacy
// string-keyed path (legacyEntropy) to floating-point tolerance, and the
// parallelized discovery routines must be deterministic across runs.

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"ajdloss/internal/core"
	"ajdloss/internal/discovery"
	"ajdloss/internal/infotheory"
	"ajdloss/internal/join"
	"ajdloss/internal/jointree"
	"ajdloss/internal/randrel"
	"ajdloss/internal/relation"
	"ajdloss/internal/schemagen"
)

const parityTol = 1e-9

// parityInstance draws a random 4-attribute relation for the given seed.
func parityInstance(t *testing.T, seed uint64, n int) *relation.Relation {
	t.Helper()
	model := randrel.Model{
		Attrs:   []string{"A", "B", "C", "D"},
		Domains: []int{3 + int(seed%5), 4, 2 + int(seed%3), 5},
		N:       n,
	}
	r, err := model.Sample(randrel.NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// subsetsOf enumerates all non-empty attribute subsets.
func subsetsOf(attrs []string) [][]string {
	var out [][]string
	for mask := 1; mask < 1<<len(attrs); mask++ {
		var sub []string
		for i := range attrs {
			if mask&(1<<i) != 0 {
				sub = append(sub, attrs[i])
			}
		}
		out = append(out, sub)
	}
	return out
}

func TestEngineEntropyParity(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		r := parityInstance(t, seed, 150)
		for _, sub := range subsetsOf(r.Attrs()) {
			legacy, err := legacyEntropy(r, sub...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := infotheory.Entropy(r, sub...)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-legacy) > parityTol {
				t.Fatalf("seed %d H(%v): engine %.15f vs legacy %.15f", seed, sub, got, legacy)
			}
		}
		// Multiset path with scaled multiplicities: same distribution.
		m := relation.MultisetOf(r).Scale(3)
		for _, sub := range subsetsOf(r.Attrs()) {
			legacy, err := legacyEntropy(r, sub...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := infotheory.Entropy(m, sub...)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-legacy) > parityTol {
				t.Fatalf("seed %d multiset H(%v): %.15f vs %.15f", seed, sub, got, legacy)
			}
		}
	}
}

// legacyJMeasure recomputes Eq. 7 entirely through the legacy string path.
func legacyJMeasure(t *testing.T, r *relation.Relation, tree *jointree.JoinTree) float64 {
	t.Helper()
	var sum float64
	for _, bag := range tree.Bags {
		h, err := legacyEntropy(r, bag...)
		if err != nil {
			t.Fatal(err)
		}
		sum += h
	}
	for e := range tree.Edges {
		h, err := legacyEntropy(r, tree.Separator(e)...)
		if err != nil {
			t.Fatal(err)
		}
		sum -= h
	}
	hAll, err := legacyEntropy(r, tree.Attrs()...)
	if err != nil {
		t.Fatal(err)
	}
	j := sum - hAll
	if j < 0 && j > -1e-9 {
		j = 0
	}
	return j
}

func TestEngineJMeasureAndLossParity(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		r := parityInstance(t, seed, 120)
		schema, err := schemagen.Chain(r.Attrs(), 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := jointree.BuildJoinTree(schema)
		if err != nil {
			t.Fatal(err)
		}
		jNew, err := core.JMeasure(r, tree)
		if err != nil {
			t.Fatal(err)
		}
		jLegacy := legacyJMeasure(t, r, tree)
		if math.Abs(jNew-jLegacy) > parityTol {
			t.Fatalf("seed %d: J engine %.15f vs legacy %.15f", seed, jNew, jLegacy)
		}

		// ρ parity: the group-ID message passing must agree with the
		// materialized join cardinality.
		loss, err := core.ComputeLoss(r, schema)
		if err != nil {
			t.Fatal(err)
		}
		joined, err := join.AcyclicJoin(r, schema)
		if err != nil {
			t.Fatal(err)
		}
		if loss.JoinSize != int64(joined.N()) {
			t.Fatalf("seed %d: counted join %d vs materialized %d", seed, loss.JoinSize, joined.N())
		}

		// Theorem 3.2 through the engine: KL(P‖P^T) = J(T).
		rooted, err := jointree.Root(tree, 0)
		if err != nil {
			t.Fatal(err)
		}
		f, err := core.NewFactorization(r, rooted)
		if err != nil {
			t.Fatal(err)
		}
		kl, err := f.KLFromEmpirical()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(kl-jNew) > 1e-6 {
			t.Fatalf("seed %d: KL %.12f vs J %.12f", seed, kl, jNew)
		}
	}
}

// poolInstance draws 20 000 rows over four attributes of domain 16: enough
// rows that the engine's plan levels fan out on its worker pool, which the
// parallel-determinism tests below must reach.
func poolInstance(t *testing.T, seed uint64) *relation.Relation {
	t.Helper()
	model := randrel.Model{Attrs: []string{"A", "B", "C", "D"}, Domains: []int{16, 16, 16, 16}, N: 20000}
	r, err := model.Sample(randrel.NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestChowLiuParallelDeterminism(t *testing.T) {
	base := poolInstance(t, 42)
	first, err := discovery.ChowLiu(base)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 5; run++ {
		// Fresh relation each run: cold engine caches, fresh worker pool.
		r := poolInstance(t, 42)
		c, err := discovery.ChowLiu(r)
		if err != nil {
			t.Fatal(err)
		}
		if c.J != first.J {
			t.Fatalf("run %d: J %.17g vs %.17g", run, c.J, first.J)
		}
		if !reflect.DeepEqual(c.Tree.Bags, first.Tree.Bags) {
			t.Fatalf("run %d: bags %v vs %v", run, c.Tree.Bags, first.Tree.Bags)
		}
		if !reflect.DeepEqual(c.Tree.Edges, first.Tree.Edges) {
			t.Fatalf("run %d: edges %v vs %v", run, c.Tree.Edges, first.Tree.Edges)
		}
	}
}

func TestFindMVDsParallelDeterminism(t *testing.T) {
	first, err := discovery.FindMVDs(poolInstance(t, 7), 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		got, err := discovery.FindMVDs(poolInstance(t, 7), 2, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d: FindMVDs output differs", run)
		}
	}
}

// legacyEntropy computes H(attrs) through the legacy string-keyed path: it
// re-hashes every projected row into a map keyed by relation.RowKey, with no
// reuse between calls. It is the oracle the parity tests and the baseline
// the benchmarks hold the columnar engine against.
func legacyEntropy(r *relation.Relation, attrs ...string) (float64, error) {
	if len(attrs) == 0 {
		return 0, nil
	}
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		p, ok := r.Pos(a)
		if !ok {
			return 0, fmt.Errorf("unknown attribute %q", a)
		}
		cols[i] = p
	}
	data := r.Columns()
	m := make(map[string]int)
	buf := make(relation.Tuple, len(cols))
	for i := 0; i < r.N(); i++ {
		for k, c := range cols {
			buf[k] = data[c][i]
		}
		m[relation.RowKey(buf)]++
	}
	counts := make([]int, 0, len(m))
	for _, c := range m {
		counts = append(counts, c)
	}
	return infotheory.EntropyFromCounts(counts, r.N()), nil
}
