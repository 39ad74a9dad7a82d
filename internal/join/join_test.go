package join

import (
	"errors"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"ajdloss/internal/jointree"
	"ajdloss/internal/relation"
)

// diagonal builds the Example 4.1 relation {(i,i)}.
func diagonal(n int) *relation.Relation {
	r := relation.New("A", "B")
	for i := 1; i <= n; i++ {
		r.Insert(relation.Tuple{relation.Value(i), relation.Value(i)})
	}
	return r
}

// randomJoinTree builds a random valid join tree: attributes are assigned to
// connected subtrees, so the running intersection property holds by
// construction. (Duplicated from schemagen to avoid an import cycle.)
func randomJoinTree(rng *rand.Rand, m, nAttrs int) (*jointree.JoinTree, error) {
	edges := make([][2]int, 0, m-1)
	adj := make([][]int, m)
	for i := 1; i < m; i++ {
		p := rng.IntN(i)
		edges = append(edges, [2]int{p, i})
		adj[p] = append(adj[p], i)
		adj[i] = append(adj[i], p)
	}
	bags := make([][]string, m)
	for a := 0; a < nAttrs; a++ {
		name := string(rune('A' + a))
		start := a % m
		in := map[int]bool{start: true}
		stack := []int{start}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range adj[u] {
				if !in[v] && rng.Float64() < 0.4 {
					in[v] = true
					stack = append(stack, v)
				}
			}
		}
		for node := range in {
			bags[node] = append(bags[node], name)
		}
	}
	return jointree.NewJoinTree(bags, edges)
}

func randomRelation(rng *rand.Rand, attrs []string, domain, n int) *relation.Relation {
	r := relation.New(attrs...)
	row := make(relation.Tuple, len(attrs))
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = relation.Value(rng.IntN(domain) + 1)
		}
		r.Insert(row)
	}
	return r
}

func chainTree(t *testing.T) *jointree.JoinTree {
	t.Helper()
	return jointree.MustJoinTree(
		[][]string{{"A", "B"}, {"B", "C"}, {"C", "D"}},
		[][2]int{{0, 1}, {1, 2}},
	)
}

func TestProjections(t *testing.T) {
	r := relation.FromRows([]string{"A", "B", "C"}, []relation.Tuple{{1, 1, 1}, {1, 2, 2}})
	s := jointree.MustSchema([]string{"A", "B"}, []string{"B", "C"})
	ps, err := Projections(r, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 || ps[0].N() != 2 || ps[1].N() != 2 {
		t.Fatalf("projections = %v", ps)
	}
	bad := jointree.MustSchema([]string{"Z"})
	if _, err := Projections(r, bad); err == nil {
		t.Fatal("unknown attribute did not error")
	}
}

func TestAcyclicJoinLossless(t *testing.T) {
	// A relation that satisfies the chain AJD exactly: built as a join.
	ab := relation.FromRows([]string{"A", "B"}, []relation.Tuple{{1, 1}, {2, 2}})
	bc := relation.FromRows([]string{"B", "C"}, []relation.Tuple{{1, 5}, {2, 6}})
	r := ab.NaturalJoin(bc)
	s := jointree.MustSchema([]string{"A", "B"}, []string{"B", "C"})
	j, err := AcyclicJoin(r, s)
	if err != nil {
		t.Fatal(err)
	}
	if !j.EqualUpToOrder(r) {
		t.Fatal("lossless join changed the relation")
	}
	n, err := CountAcyclicJoin(r, s)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(r.N()) {
		t.Fatalf("count = %d, want %d", n, r.N())
	}
}

func TestCountMatchesMaterializeChain(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	r := randomRelation(rng, []string{"A", "B", "C", "D"}, 3, 30)
	tree := chainTree(t)
	rels, err := Projections(r, tree.Schema())
	if err != nil {
		t.Fatal(err)
	}
	mat, err := MaterializeTree(tree, rels)
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := CountSnapshot(r.Snapshot(), tree)
	if err != nil {
		t.Fatal(err)
	}
	if cnt != int64(mat.N()) {
		t.Fatalf("count %d != materialized %d", cnt, mat.N())
	}
}

func TestCountCrossProduct(t *testing.T) {
	// Example 4.1 schema: {{A},{B}} with empty separator.
	r := diagonal(7)
	s := jointree.MustSchema([]string{"A"}, []string{"B"})
	n, err := CountAcyclicJoin(r, s)
	if err != nil {
		t.Fatal(err)
	}
	if n != 49 {
		t.Fatalf("cross count = %d, want 49", n)
	}
}

func TestCountArityMismatch(t *testing.T) {
	tree := chainTree(t)
	if _, err := MaterializeTree(tree, nil); err == nil {
		t.Fatal("wrong relation count accepted (materialize)")
	}
	if _, err := FullReduce(tree, nil); err == nil {
		t.Fatal("wrong relation count accepted (full reduce)")
	}
}

// TestCountOverflow checks that the two callers of the one counting pass —
// CountSnapshot and NewSampler — agree on overflow and on the empty join.
func TestCountOverflow(t *testing.T) {
	// 256 tuples over nine attributes, each with 256 distinct values, so
	// every message and weight is a power of two. On the chain of singleton
	// bags every tuple has one child, and the message into bag 1, the sum of
	// 256 weights of 2⁵⁶, overflows. On the star rooted at bag 0 every
	// message is 2⁸, and each root tuple's weight, the product of eight of
	// them, overflows. Unchecked, either would wrap to exactly 0 rather than
	// to a negative number some later check might catch.
	attrs := []string{"A", "B", "C", "D", "E", "F", "G", "H", "I"}
	wide := relation.New(attrs...)
	row := make(relation.Tuple, len(attrs))
	for i := 0; i < 256; i++ {
		for j := range row {
			row[j] = relation.Value(i + j*256)
		}
		wide.Insert(row)
	}
	singletons := make([][]string, len(attrs))
	var chain, star [][2]int
	for i, a := range attrs {
		singletons[i] = []string{a}
		if i > 0 {
			chain = append(chain, [2]int{i - 1, i})
			star = append(star, [2]int{0, i})
		}
	}
	wideChain := jointree.MustJoinTree(singletons, chain)
	wideStar := jointree.MustJoinTree(singletons, star)
	// Every case's join is empty or overflows, so each count is 0 or
	// ErrOverflow, and the sampler refuses every case.
	cases := []struct {
		name    string
		tree    *jointree.JoinTree
		r       *relation.Relation
		wantErr error
	}{
		{"overflowing sum", wideChain, wide, ErrOverflow},
		{"overflowing product", wideStar, wide, ErrOverflow},
		{"empty join", wideChain, relation.New(attrs...), nil},
	}
	for _, c := range cases {
		got, err := CountSnapshot(c.r.Snapshot(), c.tree)
		if got != 0 || !errors.Is(err, c.wantErr) || (err != nil) != (c.wantErr != nil) {
			t.Errorf("%s: CountSnapshot = %d, %v; want 0, %v", c.name, got, err, c.wantErr)
		}
		s, err := NewSampler(c.r.Snapshot(), c.tree)
		if s != nil || err == nil || errors.Is(err, ErrOverflow) != (c.wantErr != nil) {
			t.Errorf("%s: NewSampler = %v, %v; want an error, ErrOverflow: %v", c.name, s, err, c.wantErr != nil)
		}
	}
}

// GloballyConsistent reports whether the per-bag relations are globally
// consistent on the join tree: the full reducer removes no tuples. The
// projections of any relation onto an acyclic schema are always globally
// consistent (Beeri et al. 1983).
func GloballyConsistent(t *jointree.JoinTree, rels []*relation.Relation) (bool, error) {
	reduced, err := FullReduce(t, rels)
	if err != nil {
		return false, err
	}
	for i := range rels {
		if reduced[i].N() != rels[i].N() {
			return false, nil
		}
	}
	return true, nil
}

func TestFullReduceRemovesDanglers(t *testing.T) {
	ab := relation.FromRows([]string{"A", "B"}, []relation.Tuple{{1, 1}, {2, 9}}) // (2,9) dangles
	bc := relation.FromRows([]string{"B", "C"}, []relation.Tuple{{1, 5}, {7, 6}}) // (7,6) dangles
	tree := jointree.MustJoinTree([][]string{{"A", "B"}, {"B", "C"}}, [][2]int{{0, 1}})
	reduced, err := FullReduce(tree, []*relation.Relation{ab, bc})
	if err != nil {
		t.Fatal(err)
	}
	if reduced[0].N() != 1 || reduced[1].N() != 1 {
		t.Fatalf("reduction left %d/%d tuples", reduced[0].N(), reduced[1].N())
	}
	// Inputs untouched.
	if ab.N() != 2 || bc.N() != 2 {
		t.Fatal("FullReduce mutated inputs")
	}
	consistent, err := GloballyConsistent(tree, []*relation.Relation{ab, bc})
	if err != nil {
		t.Fatal(err)
	}
	if consistent {
		t.Fatal("dangling inputs reported consistent")
	}
}

// TestFullReduceInconsistentIndependent exercises the reducer on
// independently-sourced per-bag relations (NOT projections of one relation)
// crafted so that the upward pass and the downward pass each remove
// different danglers: upward kills (2,20) in BC and (2,2) in AB; only the
// downward pass can then kill (9,30) in BC and (30,300) in CD, because
// their dangling cause lives toward the root.
func TestFullReduceInconsistentIndependent(t *testing.T) {
	ab := relation.FromRows([]string{"A", "B"}, []relation.Tuple{{1, 1}, {2, 2}})
	bc := relation.FromRows([]string{"B", "C"}, []relation.Tuple{{1, 10}, {2, 20}, {9, 30}})
	cd := relation.FromRows([]string{"C", "D"}, []relation.Tuple{{10, 100}, {30, 300}})
	tree := jointree.MustJoinTree(
		[][]string{{"A", "B"}, {"B", "C"}, {"C", "D"}},
		[][2]int{{0, 1}, {1, 2}},
	)
	rels := []*relation.Relation{ab, bc, cd}

	reduced, err := FullReduce(tree, rels)
	if err != nil {
		t.Fatal(err)
	}
	wantAB := relation.FromRows([]string{"A", "B"}, []relation.Tuple{{1, 1}})
	wantBC := relation.FromRows([]string{"B", "C"}, []relation.Tuple{{1, 10}})
	wantCD := relation.FromRows([]string{"C", "D"}, []relation.Tuple{{10, 100}})
	for i, want := range []*relation.Relation{wantAB, wantBC, wantCD} {
		if !reduced[i].Equal(want) {
			t.Errorf("bag %d reduced to\n%vwant\n%v", i, reduced[i], want)
		}
	}
	// The upward-only danglers and the downward-only danglers are both gone.
	if reduced[1].Contains(relation.Tuple{2, 20}) {
		t.Error("upward-pass dangler (2,20) survived")
	}
	if reduced[1].Contains(relation.Tuple{9, 30}) || reduced[2].Contains(relation.Tuple{30, 300}) {
		t.Error("downward-pass danglers survived")
	}
	// Inputs untouched.
	if ab.N() != 2 || bc.N() != 3 || cd.N() != 2 {
		t.Fatal("FullReduce mutated inputs")
	}
	if ok, err := GloballyConsistent(tree, rels); err != nil || ok {
		t.Fatalf("inconsistent bags reported consistent (err=%v)", err)
	}
	// And the reduced family IS globally consistent: reduction is idempotent.
	if ok, err := GloballyConsistent(tree, reduced); err != nil || !ok {
		t.Fatalf("reduced bags not consistent (err=%v)", err)
	}

	// Reduction never changes the join result: materializing the reduced
	// bags, the original bags, and running the Yannakakis pipeline all agree.
	direct, err := MaterializeTree(tree, rels)
	if err != nil {
		t.Fatal(err)
	}
	y, err := YannakakisJoin(tree, rels)
	if err != nil {
		t.Fatal(err)
	}
	fromReduced, err := MaterializeTree(tree, reduced)
	if err != nil {
		t.Fatal(err)
	}
	if !y.EqualUpToOrder(direct) || !fromReduced.EqualUpToOrder(direct) {
		t.Fatalf("reduction changed the join: direct\n%vyannakakis\n%vreduced\n%v", direct, y, fromReduced)
	}
	want := relation.FromRows([]string{"A", "B", "C", "D"}, []relation.Tuple{{1, 1, 10, 100}})
	if !direct.EqualUpToOrder(want) {
		t.Fatalf("join =\n%vwant\n%v", direct, want)
	}
}

// TestFullReduceEmptyIntersection: a bag whose every tuple dangles reduces
// to empty, and the global join is empty — reduction must agree with the
// direct join on the degenerate case too.
func TestFullReduceToEmpty(t *testing.T) {
	ab := relation.FromRows([]string{"A", "B"}, []relation.Tuple{{1, 1}, {2, 2}})
	bc := relation.FromRows([]string{"B", "C"}, []relation.Tuple{{7, 1}, {8, 2}}) // no B overlap
	tree := jointree.MustJoinTree([][]string{{"A", "B"}, {"B", "C"}}, [][2]int{{0, 1}})
	rels := []*relation.Relation{ab, bc}
	reduced, err := FullReduce(tree, rels)
	if err != nil {
		t.Fatal(err)
	}
	if reduced[0].N() != 0 || reduced[1].N() != 0 {
		t.Fatalf("reduction left %d/%d tuples", reduced[0].N(), reduced[1].N())
	}
	direct, err := MaterializeTree(tree, rels)
	if err != nil {
		t.Fatal(err)
	}
	if direct.N() != 0 {
		t.Fatalf("join has %d tuples, want 0", direct.N())
	}
}

func TestYannakakisEqualsMaterialize(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	tree := chainTree(t)
	rels := []*relation.Relation{
		randomRelation(rng, []string{"A", "B"}, 4, 15),
		randomRelation(rng, []string{"B", "C"}, 4, 15),
		randomRelation(rng, []string{"C", "D"}, 4, 15),
	}
	y, err := YannakakisJoin(tree, rels)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MaterializeTree(tree, rels)
	if err != nil {
		t.Fatal(err)
	}
	if !y.EqualUpToOrder(m) {
		t.Fatal("Yannakakis join differs from direct materialization")
	}
}

func TestProjectionsGloballyConsistent(t *testing.T) {
	// Beeri et al.: projections of any relation onto an acyclic schema are
	// globally consistent — the full reducer must be a no-op.
	rng := rand.New(rand.NewPCG(21, 22))
	r := randomRelation(rng, []string{"A", "B", "C", "D"}, 3, 40)
	tree := chainTree(t)
	rels, err := Projections(r, tree.Schema())
	if err != nil {
		t.Fatal(err)
	}
	ok, err := GloballyConsistent(tree, rels)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("projections of a relation reported inconsistent")
	}
}

func TestQuickCountEqualsMaterialize(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 41))
		tree, err := randomJoinTree(rng, 2+rng.IntN(4), 6+rng.IntN(3))
		if err != nil {
			return false
		}
		attrs := tree.Attrs()
		r := randomRelation(rng, attrs, 3, 1+rng.IntN(40))
		rels, err := Projections(r, tree.Schema())
		if err != nil {
			return false
		}
		mat, err := MaterializeTree(tree, rels)
		if err != nil {
			return false
		}
		cnt, err := CountSnapshot(r.Snapshot(), tree)
		if err != nil {
			return false
		}
		if cnt != int64(mat.N()) {
			return false
		}
		// R must always be contained in the join of its projections.
		return r.SubsetOf(mat) || mat.N() < r.N()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickYannakakisAgreesOnArbitraryInputs(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 43))
		tree := jointree.MustJoinTree(
			[][]string{{"A", "B"}, {"B", "C"}, {"B", "D"}},
			[][2]int{{0, 1}, {0, 2}},
		)
		rels := []*relation.Relation{
			randomRelation(rng, []string{"A", "B"}, 3, 1+rng.IntN(15)),
			randomRelation(rng, []string{"B", "C"}, 3, 1+rng.IntN(15)),
			randomRelation(rng, []string{"B", "D"}, 3, 1+rng.IntN(15)),
		}
		y, err := YannakakisJoin(tree, rels)
		if err != nil {
			return false
		}
		m, err := MaterializeTree(tree, rels)
		if err != nil {
			return false
		}
		return y.EqualUpToOrder(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
