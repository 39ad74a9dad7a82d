package jointree

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"ajdloss/internal/bitset"
)

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema(); err == nil {
		t.Fatal("empty schema accepted")
	}
	if _, err := NewSchema([]string{}); err == nil {
		t.Fatal("empty bag accepted")
	}
	if _, err := NewSchema([]string{""}); err == nil {
		t.Fatal("empty attribute accepted")
	}
	s, err := NewSchema([]string{"A", "B", "A"}) // in-bag duplicate collapses
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Bags()[0]) != 2 {
		t.Fatalf("bag = %v", s.Bags()[0])
	}
}

func TestSchemaAttrsAndString(t *testing.T) {
	s := MustSchema([]string{"B", "A"}, []string{"A", "C"})
	if got := s.Attrs(); !reflect.DeepEqual(got, []string{"B", "A", "C"}) {
		t.Fatalf("Attrs = %v", got)
	}
	if got := s.String(); got != "{A,B},{A,C}" {
		t.Fatalf("String = %q", got)
	}
}

func TestReduced(t *testing.T) {
	s := MustSchema([]string{"A", "B"}, []string{"A"}, []string{"A", "B"}, []string{"C"})
	r := s.Reduced()
	if r.Len() != 2 {
		t.Fatalf("Reduced = %v", r)
	}
	if !MustSchema([]string{"A"}, []string{"B"}).IsReduced() {
		t.Fatal("reduced schema reported unreduced")
	}
	if s.IsReduced() {
		t.Fatal("unreduced schema reported reduced")
	}
}

func TestMVDSchema(t *testing.T) {
	s, err := MVDSchema([]string{"X"}, []string{"U"}, []string{"V"}, []string{"W"})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("MVD schema has %d bags", s.Len())
	}
	if _, err := MVDSchema([]string{"X"}, []string{"U"}); err == nil {
		t.Fatal("single-group MVD accepted")
	}
	if _, err := MVDSchema([]string{"X"}, []string{"U"}, []string{"U"}); err == nil {
		t.Fatal("overlapping groups accepted")
	}
	if _, err := MVDSchema([]string{"X"}, []string{"X"}, []string{"V"}); err == nil {
		t.Fatal("group overlapping X accepted")
	}
	if _, err := MVDSchema([]string{"X"}, []string{}, []string{"V"}); err == nil {
		t.Fatal("empty group accepted")
	}
}

func TestValidateTreeStructure(t *testing.T) {
	bags := [][]string{{"A", "B"}, {"B", "C"}, {"C", "D"}}
	if _, err := NewJoinTree(bags, [][2]int{{0, 1}, {1, 2}}); err != nil {
		t.Fatal(err)
	}
	// Wrong edge count.
	if _, err := NewJoinTree(bags, [][2]int{{0, 1}}); err == nil {
		t.Fatal("missing edge accepted")
	}
	// Disconnected (cycle + isolated node has right edge count).
	if _, err := NewJoinTree(bags, [][2]int{{0, 1}, {0, 1}}); err == nil {
		t.Fatal("multi-edge accepted")
	}
	// Self loop.
	if _, err := NewJoinTree(bags, [][2]int{{0, 0}, {1, 2}}); err == nil {
		t.Fatal("self-loop accepted")
	}
	// Out of range.
	if _, err := NewJoinTree(bags, [][2]int{{0, 5}, {1, 2}}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	// No bags.
	if _, err := NewJoinTree(nil, nil); err == nil {
		t.Fatal("empty tree accepted")
	}
}

func TestValidateRIP(t *testing.T) {
	// A appears in bags 0 and 2 but not 1: RIP violated on the path.
	bags := [][]string{{"A", "B"}, {"B", "C"}, {"C", "A"}}
	if _, err := NewJoinTree(bags, [][2]int{{0, 1}, {1, 2}}); err == nil {
		t.Fatal("RIP violation accepted")
	}
	// Same bags, star around 1 — still violated.
	if _, err := NewJoinTree(bags, [][2]int{{1, 0}, {1, 2}}); err == nil {
		t.Fatal("RIP violation accepted (star)")
	}
}

func TestSeparatorAndComponents(t *testing.T) {
	tree := MustJoinTree(
		[][]string{{"A", "B"}, {"B", "C"}, {"C", "D"}},
		[][2]int{{0, 1}, {1, 2}},
	)
	if got := tree.Separator(0); !reflect.DeepEqual(got, []string{"B"}) {
		t.Fatalf("Separator(0) = %v", got)
	}
	u, v := tree.EdgeComponents(1)
	if !reflect.DeepEqual(u, []string{"A", "B", "C"}) || !reflect.DeepEqual(v, []string{"C", "D"}) {
		t.Fatalf("EdgeComponents = %v / %v", u, v)
	}
	mvds := tree.EdgeMVDs()
	if len(mvds) != 2 {
		t.Fatalf("EdgeMVDs = %d", len(mvds))
	}
	if mvds[1].String() != "C ↠ A,B,C | C,D" {
		t.Fatalf("MVD string = %q", mvds[1].String())
	}
}

func TestGYOAcyclic(t *testing.T) {
	cases := []struct {
		name    string
		bags    [][]string
		acyclic bool
	}{
		{"chain", [][]string{{"A", "B"}, {"B", "C"}, {"C", "D"}}, true},
		{"star", [][]string{{"X", "U"}, {"X", "V"}, {"X", "W"}}, true},
		{"triangle", [][]string{{"A", "B"}, {"B", "C"}, {"C", "A"}}, false},
		{"disconnected", [][]string{{"A"}, {"B"}}, true},
		{"single", [][]string{{"A", "B"}}, true},
		{"nested", [][]string{{"A", "B", "C"}, {"A", "B"}, {"B", "C"}}, true},
		{"cycle4", [][]string{{"A", "B"}, {"B", "C"}, {"C", "D"}, {"D", "A"}}, false},
		// α-acyclic despite containing a "cycle" covered by a big bag.
		{"covered-triangle", [][]string{{"A", "B", "C"}, {"A", "B"}, {"B", "C"}, {"C", "A"}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := MustSchema(tc.bags...)
			if got := IsAcyclic(s); got != tc.acyclic {
				t.Fatalf("IsAcyclic(%s) = %v, want %v", s, got, tc.acyclic)
			}
			tree, err := BuildJoinTree(s)
			if tc.acyclic {
				if err != nil {
					t.Fatalf("BuildJoinTree: %v", err)
				}
				if err := tree.Validate(); err != nil {
					t.Fatalf("GYO tree invalid: %v", err)
				}
				// MST construction must agree on acyclicity.
				mst, err := BuildJoinTreeMST(s)
				if err != nil {
					t.Fatalf("MST: %v", err)
				}
				if err := mst.Validate(); err != nil {
					t.Fatalf("MST tree invalid: %v", err)
				}
			} else if err == nil {
				t.Fatal("cyclic schema produced a join tree")
			}
		})
	}
}

func TestRootedEnumeration(t *testing.T) {
	tree := MustJoinTree(
		[][]string{{"A", "B"}, {"B", "C"}, {"C", "D"}, {"B", "E"}},
		[][2]int{{0, 1}, {1, 2}, {0, 3}},
	)
	r, err := Root(tree, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Order) != 4 || r.Order[0] != 0 || r.Parent[0] != -1 {
		t.Fatalf("order = %v parents = %v", r.Order, r.Parent)
	}
	// DFS property: parent precedes child.
	for i := 1; i < len(r.Order); i++ {
		if r.Parent[i] >= i {
			t.Fatalf("parent position %d not before %d", r.Parent[i], i)
		}
	}
	if err := r.DeltaEqualsPrefixIntersection(); err != nil {
		t.Fatal(err)
	}
	// Prefix/suffix cover all attributes.
	all := r.Prefix(3)
	sort.Strings(all)
	if strings.Join(all, "") != "ABCDE" {
		t.Fatalf("Prefix(last) = %v", all)
	}
	if got := r.Suffix(0); len(got) != 5 {
		t.Fatalf("Suffix(0) = %v", got)
	}
	if _, err := Root(tree, 9); err == nil {
		t.Fatal("bad root accepted")
	}
}

// DeltaEqualsPrefixIntersection verifies the running-intersection identity
// Δᵢ = Ω_{1:(i−1)} ∩ Ωᵢ stated in Section 2.3.
func (r *Rooted) DeltaEqualsPrefixIntersection() error {
	for i := 1; i < len(r.Order); i++ {
		want := intersectAttrs(r.Prefix(i-1), r.Bag(i))
		got := append([]string(nil), r.Sep[i]...)
		sort.Strings(got)
		if len(want) != len(got) {
			return fmt.Errorf("jointree: Δ_%d mismatch: parent∩bag=%v prefix∩bag=%v", i+1, got, want)
		}
		for k := range want {
			if want[k] != got[k] {
				return fmt.Errorf("jointree: Δ_%d mismatch: parent∩bag=%v prefix∩bag=%v", i+1, got, want)
			}
		}
	}
	return nil
}

func TestRootAnyNodeDeltaInvariant(t *testing.T) {
	tree := MustJoinTree(
		[][]string{{"A", "B"}, {"B", "C"}, {"C", "D"}, {"B", "E"}},
		[][2]int{{0, 1}, {1, 2}, {0, 3}},
	)
	for root := 0; root < tree.Len(); root++ {
		r := MustRoot(tree, root)
		if err := r.DeltaEqualsPrefixIntersection(); err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
	}
}

func TestContractEdge(t *testing.T) {
	tree := MustJoinTree(
		[][]string{{"A", "B"}, {"B", "C"}, {"C", "D"}},
		[][2]int{{0, 1}, {1, 2}},
	)
	c, err := tree.ContractEdge(0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("contracted tree has %d bags", c.Len())
	}
	bag0 := append([]string(nil), c.Bags[0]...)
	sort.Strings(bag0)
	if strings.Join(bag0, "") != "ABC" {
		t.Fatalf("merged bag = %v", c.Bags[0])
	}
	if _, err := tree.ContractEdge(5); err == nil {
		t.Fatal("bad edge index accepted")
	}
	// Contracting to a single bag.
	c2, err := c.ContractEdge(0)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != 1 || len(c2.Edges) != 0 {
		t.Fatalf("full contraction = %v", c2)
	}
}

func TestExample41Schema(t *testing.T) {
	// S = {{A},{B}}: disconnected but acyclic; join tree with empty separator.
	s := MustSchema([]string{"A"}, []string{"B"})
	tree, err := BuildJoinTree(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Separator(0); len(got) != 0 {
		t.Fatalf("separator = %v, want empty", got)
	}
}

// randomTreeBags builds a random valid join tree directly (attributes
// assigned to connected subtrees), for property tests.
func randomTreeBags(rng *rand.Rand, m, nAttrs int) ([][]string, [][2]int) {
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
	return bags, edges
}

func TestQuickGYORoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 31))
		m := 2 + rng.IntN(5)
		bags, edges := randomTreeBags(rng, m, m+rng.IntN(4))
		tree, err := NewJoinTree(bags, edges)
		if err != nil {
			return false // construction must be valid by design
		}
		// The schema of a valid join tree is acyclic and GYO recovers a
		// valid join tree over the same bags.
		s := tree.Schema()
		rebuilt, err := BuildJoinTree(s)
		if err != nil {
			return false
		}
		if rebuilt.Validate() != nil {
			return false
		}
		// MST agrees.
		mst, err := BuildJoinTreeMST(s)
		return err == nil && mst.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickContractPreservesValidity(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 37))
		m := 3 + rng.IntN(4)
		bags, edges := randomTreeBags(rng, m, m+2)
		tree, err := NewJoinTree(bags, edges)
		if err != nil {
			return false
		}
		e := rng.IntN(len(tree.Edges))
		c, err := tree.ContractEdge(e)
		if err != nil {
			return false
		}
		return c.Validate() == nil && c.Len() == tree.Len()-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestParseSchema(t *testing.T) {
	s, err := ParseSchema("A,B; B,C")
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 || s.String() != "{A,B},{B,C}" {
		t.Fatalf("parsed = %v", s)
	}
	for _, bad := range []string{"", ";A,B", "A,,B", "A;;B", " , "} {
		if _, err := ParseSchema(bad); err == nil {
			t.Errorf("ParseSchema(%q) accepted", bad)
		}
	}
	one, err := ParseSchema("A")
	if err != nil || one.Len() != 1 {
		t.Fatalf("single bag: %v, %v", one, err)
	}
}

// BuildJoinTreeMST constructs a join tree by computing a maximum-weight
// spanning tree over the bag graph with edge weight |Ωᵢ ∩ Ω_j| (Maier's
// construction). For an acyclic schema the result is a valid join tree; for
// a cyclic schema validation fails and an error is returned. It serves as an
// independent cross-check of BuildJoinTree.
func BuildJoinTreeMST(s *Schema) (*JoinTree, error) {
	m := s.Len()
	v := newVocabulary(s)
	sets := make([]bitset.Set, m)
	for i, bag := range s.bags {
		sets[i] = v.set(bag)
	}
	type cand struct {
		w    int
		u, t int
	}
	var cands []cand
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			w := 0
			for _, e := range sets[i].Elems() {
				if sets[j].Contains(e) {
					w++
				}
			}
			cands = append(cands, cand{w: w, u: i, t: j})
		}
	}
	// Sort by descending weight (stable selection keeps determinism).
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].w > cands[j-1].w; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	parent := make([]int, m)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	var edges [][2]int
	for _, c := range cands {
		ru, rt := find(c.u), find(c.t)
		if ru != rt {
			parent[ru] = rt
			edges = append(edges, [2]int{c.u, c.t})
			if len(edges) == m-1 {
				break
			}
		}
	}
	t := &JoinTree{Bags: s.bags, Edges: edges}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("jointree: MST construction failed (schema likely cyclic): %w", err)
	}
	return t, nil
}
