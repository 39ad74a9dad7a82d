package join

import (
	"errors"
	"fmt"
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
	cnt, err := CountTree(tree, rels)
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
	if _, err := CountTree(tree, nil); err == nil {
		t.Fatal("wrong relation count accepted")
	}
	if _, err := MaterializeTree(tree, nil); err == nil {
		t.Fatal("wrong relation count accepted (materialize)")
	}
}

// column returns a one-attribute relation holding the values 1..n.
func column(attr string, n int) *relation.Relation {
	r := relation.New(attr)
	for v := 1; v <= n; v++ {
		r.Insert(relation.Tuple{relation.Value(v)})
	}
	return r
}

// zeroAndOverflowTree is a root bag {A} holding A = 1 whose children are a
// bag {A, Z} and two bags {B} and {C}, each the parent of three disjoint
// 2000-value bags, so each sends the root a message of 2000³ = 8·10⁹ and
// their product, 6.4·10¹⁹, overflows int64. {A, Z} holds A = 1 when
// joinable and A = 2 otherwise, which makes its message 0; zeroFirst puts it
// before the two large children, and otherwise after them.
func zeroAndOverflowTree(zeroFirst, joinable bool) (*jointree.JoinTree, []*relation.Relation) {
	a := relation.Value(2)
	if joinable {
		a = 1
	}
	az := relation.FromRows([]string{"A", "Z"}, []relation.Tuple{{a, 1}})
	bags := [][]string{{"A"}}
	rels := []*relation.Relation{column("A", 1)}
	var edges [][2]int
	add := func(parent int, bag []string, r *relation.Relation) int {
		bags, rels = append(bags, bag), append(rels, r)
		edges = append(edges, [2]int{parent, len(bags) - 1})
		return len(bags) - 1
	}
	if zeroFirst {
		add(0, []string{"A", "Z"}, az)
	}
	for _, hub := range []string{"B", "C"} {
		h := add(0, []string{hub}, column(hub, 1))
		for k := 1; k <= 3; k++ {
			leaf := fmt.Sprintf("%s%d", hub, k)
			add(h, []string{leaf}, column(leaf, 2000))
		}
	}
	if !zeroFirst {
		add(0, []string{"A", "Z"}, az)
	}
	return jointree.MustJoinTree(bags, edges), rels
}

// TestCountOverflow checks that the three callers of the one counting pass —
// CountTree, CountSnapshot and NewSampler — agree on the zero rule, on
// overflow and on the empty join. A tuple's weight is 0 at its first zero
// child message, before a later product can overflow; an overflow met
// before the zero is ErrOverflow. The snapshot path counts projections of
// one relation, which are globally consistent, so it never sees a zero
// message: the two ordering cases run on independent relations, and the
// snapshot path runs on the overflow and empty cases.
func TestCountOverflow(t *testing.T) {
	// 1000 tuples over seven attributes, each with 1000 distinct values: the
	// join of the singleton bags is 1000⁷ = 10²¹ > MaxInt64.
	attrs := []string{"A", "B", "C", "D", "E", "F", "G"}
	wide := relation.New(attrs...)
	row := make(relation.Tuple, len(attrs))
	for i := 0; i < 1000; i++ {
		for j := range row {
			row[j] = relation.Value(i + j*1000)
		}
		wide.Insert(row)
	}
	singletons := make([][]string, len(attrs))
	for i, a := range attrs {
		singletons[i] = []string{a}
	}
	wideTree, err := jointree.BuildJoinTree(jointree.MustSchema(singletons...))
	if err != nil {
		t.Fatal(err)
	}
	zeroFirst, zeroFirstRels := zeroAndOverflowTree(true, false)
	zeroLast, zeroLastRels := zeroAndOverflowTree(false, false)
	noZero, noZeroRels := zeroAndOverflowTree(true, true)
	// Every case's join is empty or overflows, so each count is 0 or
	// ErrOverflow, and the sampler refuses every case.
	cases := []struct {
		name    string
		tree    *jointree.JoinTree
		rels    []*relation.Relation // nil: the projections of r
		r       *relation.Relation   // nil: the case has no snapshot form
		wantErr error
	}{
		{"zero before overflow", zeroFirst, zeroFirstRels, nil, nil},
		{"overflow before zero", zeroLast, zeroLastRels, nil, ErrOverflow},
		{"overflow, no zero", noZero, noZeroRels, nil, ErrOverflow},
		{"overflowing snapshot", wideTree, nil, wide, ErrOverflow},
		{"empty join", chainTree(t), nil, relation.New("A", "B", "C", "D"), nil},
	}
	for _, c := range cases {
		check := func(path string, got int64, err error) {
			t.Helper()
			if got != 0 || !errors.Is(err, c.wantErr) || (err != nil) != (c.wantErr != nil) {
				t.Errorf("%s: %s = %d, %v; want 0, %v", c.name, path, got, err, c.wantErr)
			}
		}
		rels := c.rels
		if c.r != nil {
			if rels, err = Projections(c.r, c.tree.Schema()); err != nil {
				t.Fatal(err)
			}
			got, err := CountSnapshot(c.r.Snapshot(), c.tree)
			check("CountSnapshot", got, err)
		}
		got, err := CountTree(c.tree, rels)
		check("CountTree", got, err)
		s, err := NewSampler(c.tree, rels)
		if s != nil || err == nil || errors.Is(err, ErrOverflow) != (c.wantErr != nil) {
			t.Errorf("%s: NewSampler = %v, %v; want an error, ErrOverflow: %v", c.name, s, err, c.wantErr != nil)
		}
	}
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
	// The counting path agrees on both the original and the reduced bags.
	for _, in := range [][]*relation.Relation{rels, reduced} {
		if n, err := CountTree(tree, in); err != nil || n != 1 {
			t.Fatalf("CountTree = %d, %v; want 1", n, err)
		}
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
	if n, err := CountTree(tree, rels); err != nil || n != 0 {
		t.Fatalf("CountTree = %d, %v; want 0", n, err)
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
		cnt, err := CountTree(tree, rels)
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
		cnt, err := CountTree(tree, rels)
		if err != nil {
			return false
		}
		return y.EqualUpToOrder(m) && cnt == int64(m.N())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
