package fd

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"ajdloss/internal/core"
	"ajdloss/internal/jointree"
	"ajdloss/internal/relation"
)

// cityRelation: Cust → City holds, City → Cust does not.
func cityRelation() *relation.Relation {
	return relation.FromRows([]string{"Cust", "City", "Item"}, []relation.Tuple{
		{1, 10, 100}, {1, 10, 101}, {2, 10, 100}, {3, 20, 102}, {3, 20, 100},
	})
}

func TestHolds(t *testing.T) {
	r := cityRelation()
	cases := []struct {
		fd   FD
		want bool
	}{
		{FD{X: []string{"Cust"}, Y: []string{"City"}}, true},
		{FD{X: []string{"City"}, Y: []string{"Cust"}}, false},
		{FD{X: []string{"Cust", "Item"}, Y: []string{"City"}}, true}, // augmentation
		{FD{X: []string{"Cust"}, Y: []string{"Item"}}, false},
		{FD{X: []string{"Cust"}, Y: nil}, true},                  // trivial
		{FD{X: nil, Y: []string{"City"}}, false},                 // not constant
		{FD{X: []string{"Cust"}, Y: []string{"Cust"}}, true},     // reflexive
		{FD{X: nil, Y: []string{"Cust", "City", "Item"}}, false}, // whole row not constant
	}
	for _, c := range cases {
		got, err := Holds(r, c.fd)
		if err != nil {
			t.Fatalf("%v: %v", c.fd, err)
		}
		if got != c.want {
			t.Errorf("Holds(%v) = %v, want %v", c.fd, got, c.want)
		}
	}
	if _, err := Holds(r, FD{X: []string{"Zip"}, Y: []string{"City"}}); err == nil {
		t.Fatal("unknown attribute did not error")
	}
}

func TestConstantAttribute(t *testing.T) {
	r := relation.FromRows([]string{"A", "B"}, []relation.Tuple{{1, 5}, {2, 5}})
	ok, err := Holds(r, FD{X: nil, Y: []string{"B"}})
	if err != nil || !ok {
		t.Fatalf("constant FD: %v, %v", ok, err)
	}
}

func TestLeeCharacterization(t *testing.T) {
	// H(Y|X) = 0 iff the FD holds (Lee Part I).
	r := cityRelation()
	h, err := ConditionalEntropy(r, FD{X: []string{"Cust"}, Y: []string{"City"}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h) > 1e-12 {
		t.Fatalf("H(City|Cust) = %v, want 0", h)
	}
	h2, err := ConditionalEntropy(r, FD{X: []string{"City"}, Y: []string{"Cust"}})
	if err != nil {
		t.Fatal(err)
	}
	if h2 <= 0 {
		t.Fatalf("H(Cust|City) = %v, want > 0", h2)
	}
}

func TestG3Error(t *testing.T) {
	r := cityRelation()
	g, err := G3Error(r, FD{X: []string{"Cust"}, Y: []string{"City"}})
	if err != nil || g != 0 {
		t.Fatalf("g3 of exact FD = %v, %v", g, err)
	}
	// City=10 has customers {1,1,2}: keep the majority (2 rows of cust 1),
	// remove 1; City=20 has only cust 3. g3 = 1/5.
	g2, err := G3Error(r, FD{X: []string{"City"}, Y: []string{"Cust"}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g2-0.2) > 1e-12 {
		t.Fatalf("g3 = %v, want 0.2", g2)
	}
	empty := relation.New("A")
	if _, err := G3Error(empty, FD{X: nil, Y: []string{"A"}}); err == nil {
		t.Fatal("empty relation did not error")
	}
	if g, err := G3Error(r, FD{X: []string{"Cust"}, Y: nil}); err != nil || g != 0 {
		t.Fatalf("trivial FD g3 = %v, %v", g, err)
	}
}

func TestClosureAndImplies(t *testing.T) {
	fds := []FD{
		{X: []string{"A"}, Y: []string{"B"}},
		{X: []string{"B"}, Y: []string{"C"}},
		{X: []string{"C", "D"}, Y: []string{"E"}},
	}
	cl := Closure([]string{"A"}, fds)
	if !reflect.DeepEqual(cl, []string{"A", "B", "C"}) {
		t.Fatalf("A+ = %v", cl)
	}
	cl2 := Closure([]string{"A", "D"}, fds)
	if !reflect.DeepEqual(cl2, []string{"A", "B", "C", "D", "E"}) {
		t.Fatalf("(AD)+ = %v", cl2)
	}
	if !Implies(fds, FD{X: []string{"A"}, Y: []string{"C"}}) {
		t.Fatal("transitivity not implied")
	}
	if Implies(fds, FD{X: []string{"A"}, Y: []string{"E"}}) {
		t.Fatal("A -> E wrongly implied")
	}
	// Armstrong: reflexivity and augmentation come out of closure too.
	if !Implies(fds, FD{X: []string{"A", "Z"}, Y: []string{"A"}}) {
		t.Fatal("reflexivity failed")
	}
	if !Implies(fds, FD{X: []string{"A", "Z"}, Y: []string{"B"}}) {
		t.Fatal("augmentation failed")
	}
}

func TestCandidateKeys(t *testing.T) {
	// (Cust, Item) is the only minimal key of cityRelation: Cust->City, and
	// (Cust,Item) pairs are unique.
	r := cityRelation()
	keys, err := CandidateKeys(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || !reflect.DeepEqual(keys[0], []string{"Cust", "Item"}) {
		t.Fatalf("keys = %v", keys)
	}
	// Diagonal relation: both A and B are keys.
	diag := relation.FromRows([]string{"A", "B"}, []relation.Tuple{{1, 1}, {2, 2}, {3, 3}})
	keys2, err := CandidateKeys(diag, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys2) != 2 {
		t.Fatalf("diagonal keys = %v", keys2)
	}
	// maxSize caps the search.
	capped, err := CandidateKeys(r, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) != 0 {
		t.Fatalf("capped keys = %v", capped)
	}
	// Single-tuple relation: the empty set is a superkey.
	one := relation.FromRows([]string{"A"}, []relation.Tuple{{1}})
	ok, err := IsSuperkey(one, nil)
	if err != nil || !ok {
		t.Fatalf("empty superkey on singleton: %v, %v", ok, err)
	}
}

func TestToMVDAndLosslessness(t *testing.T) {
	// Fagin: a satisfied FD X → Y yields a lossless decomposition
	// {XY, X(Ω\Y)}.
	r := cityRelation()
	f := FD{X: []string{"Cust"}, Y: []string{"City"}}
	mvd, err := ToMVD(f, r.Attrs())
	if err != nil {
		t.Fatal(err)
	}
	loss, err := core.MVDLoss(r, mvd)
	if err != nil {
		t.Fatal(err)
	}
	if loss.Spurious != 0 {
		t.Fatalf("FD-derived MVD lost %d tuples", loss.Spurious)
	}
	// Degenerate cases rejected.
	if _, err := ToMVD(FD{X: []string{"Cust"}, Y: []string{"City", "Item"}}, r.Attrs()); err == nil {
		t.Fatal("MVD with empty rest accepted")
	}
	if _, err := ToMVD(FD{X: []string{"Cust"}, Y: []string{"Cust"}}, r.Attrs()); err == nil {
		t.Fatal("MVD with empty Y accepted")
	}
}

func TestDiscoverExact(t *testing.T) {
	r := cityRelation()
	ds, err := Discover(r, DiscoverConfig{MaxLHS: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, d := range ds {
		want[d.FD.String()] = true
		if d.G3 != 0 {
			t.Fatalf("exact discovery returned g3 = %v for %v", d.G3, d.FD)
		}
		if d.H > 1e-12 {
			t.Fatalf("exact discovery returned H = %v for %v", d.H, d.FD)
		}
	}
	if !want["Cust -> City"] {
		t.Fatalf("Cust -> City not discovered: %v", ds)
	}
	// Minimality: Cust,Item -> City must NOT be reported since Cust -> City.
	if want["Cust,Item -> City"] {
		t.Fatal("non-minimal FD reported")
	}
}

func TestDiscoverApproximate(t *testing.T) {
	r := cityRelation()
	ds, err := Discover(r, DiscoverConfig{MaxLHS: 1, MaxG3: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	// City -> Cust has g3 = 0.2 ≤ 0.25, so it appears now.
	found := false
	for _, d := range ds {
		if d.FD.String() == "City -> Cust" {
			found = true
			if math.Abs(d.G3-0.2) > 1e-12 {
				t.Fatalf("g3 = %v", d.G3)
			}
		}
	}
	if !found {
		t.Fatalf("approximate FD missing: %s", Canonical(ds))
	}
}

func TestQuickHoldsIffZeroEntropyAndZeroG3(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 51))
		r := relation.New("A", "B", "C")
		row := make(relation.Tuple, 3)
		n := 1 + rng.IntN(30)
		for i := 0; i < n; i++ {
			for j := range row {
				row[j] = relation.Value(rng.IntN(3) + 1)
			}
			r.Insert(row)
		}
		fdep := FD{X: []string{"A"}, Y: []string{"B"}}
		holds, err := Holds(r, fdep)
		if err != nil {
			return false
		}
		h, err := ConditionalEntropy(r, fdep)
		if err != nil {
			return false
		}
		g3, err := G3Error(r, fdep)
		if err != nil {
			return false
		}
		return holds == (h < 1e-12) && holds == (g3 == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickClosureIsClosure(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 53))
		attrs := []string{"A", "B", "C", "D", "E"}
		var fds []FD
		for k := 0; k < 4; k++ {
			x := attrs[rng.IntN(5)]
			y := attrs[rng.IntN(5)]
			fds = append(fds, FD{X: []string{x}, Y: []string{y}})
		}
		start := []string{attrs[rng.IntN(5)]}
		cl := Closure(start, fds)
		// Monotone: start ⊆ closure; idempotent: closure(closure) = closure.
		if !subsetOf(start, cl) {
			return false
		}
		return reflect.DeepEqual(Closure(cl, fds), cl)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Implies reports whether the FD set logically implies f (via closure).
func Implies(fds []FD, f FD) bool {
	cl := Closure(f.X, fds)
	in := make(map[string]bool, len(cl))
	for _, a := range cl {
		in[a] = true
	}
	for _, a := range f.Y {
		if !in[a] {
			return false
		}
	}
	return true
}

// ToMVD weakens the FD X → Y into the MVD X ↠ Y | rest over the attribute
// universe attrs: every FD is an MVD (Fagin 1977), so a satisfied FD yields
// a lossless two-bag schema {XY, X(Ω\Y)}.
func ToMVD(f FD, attrs []string) (jointree.MVD, error) {
	inX := make(map[string]bool, len(f.X))
	for _, a := range f.X {
		inX[a] = true
	}
	inY := make(map[string]bool, len(f.Y))
	for _, a := range f.Y {
		if inX[a] {
			continue
		}
		inY[a] = true
	}
	var rest []string
	for _, a := range attrs {
		if !inX[a] && !inY[a] {
			rest = append(rest, a)
		}
	}
	if len(inY) == 0 || len(rest) == 0 {
		return jointree.MVD{}, fmt.Errorf("fd: FD %v yields a degenerate MVD over %v", f, attrs)
	}
	var ys []string
	for _, a := range attrs {
		if inY[a] {
			ys = append(ys, a)
		}
	}
	return jointree.MVD{X: append([]string(nil), f.X...), Y: ys, Z: rest}, nil
}

// Closure returns the attribute closure X⁺ under the given FDs (Armstrong
// axioms fixpoint).
func Closure(x []string, fds []FD) []string {
	in := make(map[string]bool, len(x))
	var out []string
	add := func(a string) {
		if !in[a] {
			in[a] = true
			out = append(out, a)
		}
	}
	for _, a := range x {
		add(a)
	}
	for changed := true; changed; {
		changed = false
		for _, f := range fds {
			applies := true
			for _, a := range f.X {
				if !in[a] {
					applies = false
					break
				}
			}
			if !applies {
				continue
			}
			for _, a := range f.Y {
				if !in[a] {
					add(a)
					changed = true
				}
			}
		}
	}
	sort.Strings(out)
	return out
}
