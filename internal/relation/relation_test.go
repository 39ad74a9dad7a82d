package relation

import (
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"
)

func mustProject(t *testing.T, r *Relation, attrs ...string) *Relation {
	t.Helper()
	p, err := r.Project(attrs...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	for _, bad := range [][]string{{"A", "A"}, {""}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", bad)
				}
			}()
			New(bad...)
		}()
	}
}

func TestInsertDedup(t *testing.T) {
	r := New("A", "B")
	if !r.Insert(Tuple{1, 2}) {
		t.Fatal("first insert rejected")
	}
	if r.Insert(Tuple{1, 2}) {
		t.Fatal("duplicate accepted")
	}
	if !r.Insert(Tuple{2, 1}) {
		t.Fatal("distinct tuple rejected")
	}
	if r.N() != 2 {
		t.Fatalf("N = %d", r.N())
	}
	if !r.Contains(Tuple{1, 2}) || r.Contains(Tuple{9, 9}) {
		t.Fatal("Contains wrong")
	}
	if r.Contains(Tuple{1}) {
		t.Fatal("wrong-arity Contains true")
	}
}

func TestInsertArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-arity insert did not panic")
		}
	}()
	New("A").Insert(Tuple{1, 2})
}

func TestInsertCopies(t *testing.T) {
	r := New("A")
	row := Tuple{1}
	r.Insert(row)
	row[0] = 99
	if !r.Contains(Tuple{1}) || r.Contains(Tuple{99}) {
		t.Fatal("Insert aliases caller storage")
	}
}

func TestProject(t *testing.T) {
	r := FromRows([]string{"A", "B", "C"}, []Tuple{
		{1, 1, 1}, {1, 1, 2}, {1, 2, 1}, {2, 2, 2},
	})
	p := mustProject(t, r, "A", "B")
	if p.N() != 3 {
		t.Fatalf("projection N = %d, want 3", p.N())
	}
	if !p.Contains(Tuple{1, 1}) || !p.Contains(Tuple{1, 2}) || !p.Contains(Tuple{2, 2}) {
		t.Fatal("projection contents wrong")
	}
	// Column reordering.
	q := mustProject(t, r, "C", "A")
	if !q.Contains(Tuple{2, 1}) {
		t.Fatal("reordered projection wrong")
	}
	if _, err := r.Project("Z"); err == nil {
		t.Fatal("projecting unknown attribute did not error")
	}
}

func TestProjectCounts(t *testing.T) {
	r := FromRows([]string{"A", "B"}, []Tuple{{1, 1}, {1, 2}, {2, 3}})
	counts, err := r.ProjectCounts("A")
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 2 {
		t.Fatalf("distinct = %d", len(counts))
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != r.N() {
		t.Fatalf("counts sum to %d, want %d", total, r.N())
	}
	if counts[RowKey(Tuple{1})] != 2 || counts[RowKey(Tuple{2})] != 1 {
		t.Fatal("multiplicities wrong")
	}
}

func TestSelect(t *testing.T) {
	r := FromRows([]string{"A", "B"}, []Tuple{{1, 1}, {1, 2}, {2, 3}})
	s, err := r.Select("A", 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 2 {
		t.Fatalf("selected %d", s.N())
	}
	if _, err := r.Select("Z", 0); err == nil {
		t.Fatal("Select unknown attribute did not error")
	}
	w := r.SelectWhere(func(t Tuple) bool { return t[1] >= 2 })
	if w.N() != 2 {
		t.Fatalf("SelectWhere %d", w.N())
	}
}

func TestEqualAndSubset(t *testing.T) {
	a := FromRows([]string{"A", "B"}, []Tuple{{1, 2}, {3, 4}})
	b := FromRows([]string{"A", "B"}, []Tuple{{3, 4}, {1, 2}})
	if !a.Equal(b) {
		t.Fatal("order-insensitive Equal failed")
	}
	c := FromRows([]string{"B", "A"}, []Tuple{{2, 1}, {4, 3}})
	if a.Equal(c) {
		t.Fatal("Equal ignored schema order")
	}
	if !a.EqualUpToOrder(c) {
		t.Fatal("EqualUpToOrder failed")
	}
	d := FromRows([]string{"A", "B"}, []Tuple{{1, 2}})
	if !d.SubsetOf(a) || a.SubsetOf(d) {
		t.Fatal("SubsetOf wrong")
	}
}

func TestNaturalJoin(t *testing.T) {
	r := FromRows([]string{"A", "B"}, []Tuple{{1, 1}, {1, 2}, {2, 1}})
	s := FromRows([]string{"B", "C"}, []Tuple{{1, 5}, {1, 6}, {3, 7}})
	j := r.NaturalJoin(s)
	want := FromRows([]string{"A", "B", "C"}, []Tuple{
		{1, 1, 5}, {1, 1, 6}, {2, 1, 5}, {2, 1, 6},
	})
	if !j.EqualUpToOrder(want) {
		t.Fatalf("join = %v", j)
	}
	if got := r.JoinCount(s); got != 4 {
		t.Fatalf("JoinCount = %d", got)
	}
}

func TestCrossProduct(t *testing.T) {
	r := FromRows([]string{"A"}, []Tuple{{1}, {2}})
	s := FromRows([]string{"B"}, []Tuple{{5}, {6}, {7}})
	j := r.NaturalJoin(s)
	if j.N() != 6 {
		t.Fatalf("cross product N = %d", j.N())
	}
	if got := r.JoinCount(s); got != 6 {
		t.Fatalf("JoinCount = %d", got)
	}
}

func TestJoinSharedAllAttrs(t *testing.T) {
	r := FromRows([]string{"A", "B"}, []Tuple{{1, 1}, {2, 2}})
	s := FromRows([]string{"A", "B"}, []Tuple{{1, 1}, {3, 3}})
	j := r.NaturalJoin(s)
	if j.N() != 1 || !j.Contains(Tuple{1, 1}) {
		t.Fatalf("intersection join wrong: %v", j)
	}
}

func TestSemijoin(t *testing.T) {
	r := FromRows([]string{"A", "B"}, []Tuple{{1, 1}, {2, 2}, {3, 3}})
	s := FromRows([]string{"B", "C"}, []Tuple{{1, 9}, {3, 9}})
	sj := r.Semijoin(s)
	if sj.N() != 2 || !sj.Contains(Tuple{1, 1}) || !sj.Contains(Tuple{3, 3}) {
		t.Fatalf("semijoin = %v", sj)
	}
	// Disjoint attributes: all-or-nothing.
	u := FromRows([]string{"Z"}, []Tuple{{1}})
	if r.Semijoin(u).N() != r.N() {
		t.Fatal("semijoin with nonempty disjoint relation should keep all")
	}
	empty := New("Z")
	if r.Semijoin(empty).N() != 0 {
		t.Fatal("semijoin with empty disjoint relation should drop all")
	}
}

func TestSortedRowsDeterministic(t *testing.T) {
	r := FromRows([]string{"A", "B"}, []Tuple{{2, 1}, {1, 2}, {1, 1}})
	got := r.SortedRows()
	want := []Tuple{{1, 1}, {1, 2}, {2, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SortedRows = %v", got)
	}
}

func TestDomainHelpers(t *testing.T) {
	r := FromRows([]string{"A", "B"}, []Tuple{{1, 5}, {2, 5}, {2, 6}})
	d, err := r.DomainSize("A")
	if err != nil || d != 2 {
		t.Fatalf("DomainSize = %d, %v", d, err)
	}
	vals, err := r.ActiveDomain("B")
	if err != nil || !reflect.DeepEqual(vals, []Value{5, 6}) {
		t.Fatalf("ActiveDomain = %v, %v", vals, err)
	}
	if _, err := r.ActiveDomain("Z"); err == nil {
		t.Fatal("ActiveDomain unknown attr did not error")
	}
}

func TestRowKeyInjective(t *testing.T) {
	// Negative and large values must round-trip distinctly.
	pairs := []Tuple{{-1, 0}, {0, -1}, {1 << 30, 0}, {0, 1 << 30}, {256, 0}, {0, 256}}
	seen := make(map[string]Tuple)
	for _, p := range pairs {
		k := RowKey(p)
		if prev, dup := seen[k]; dup {
			t.Fatalf("RowKey collision between %v and %v", prev, p)
		}
		seen[k] = p
	}
}

// randomRelation builds a relation with n tuples over the given attrs.
func randomRelation(rng *rand.Rand, attrs []string, domain, n int) *Relation {
	r := New(attrs...)
	row := make(Tuple, len(attrs))
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = Value(rng.IntN(domain) + 1)
		}
		r.Insert(row)
	}
	return r
}

// naiveJoin is a quadratic reference implementation.
func naiveJoin(r, s *Relation) *Relation {
	shared := []string{}
	for _, a := range r.Attrs() {
		if s.HasAttr(a) {
			shared = append(shared, a)
		}
	}
	outAttrs := append([]string(nil), r.Attrs()...)
	for _, a := range s.Attrs() {
		if !r.HasAttr(a) {
			outAttrs = append(outAttrs, a)
		}
	}
	out := New(outAttrs...)
	for _, rt := range r.Rows() {
		for _, st := range s.Rows() {
			match := true
			for _, a := range shared {
				rp, _ := r.Pos(a)
				sp, _ := s.Pos(a)
				if rt[rp] != st[sp] {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			row := make(Tuple, 0, len(outAttrs))
			row = append(row, rt...)
			for i, a := range s.Attrs() {
				if !r.HasAttr(a) {
					row = append(row, st[i])
				}
			}
			out.Insert(row)
		}
	}
	return out
}

func TestQuickJoinMatchesNaive(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		r := randomRelation(rng, []string{"A", "B"}, 4, 1+rng.IntN(20))
		s := randomRelation(rng, []string{"B", "C"}, 4, 1+rng.IntN(20))
		fast := r.NaturalJoin(s)
		slow := naiveJoin(r, s)
		return fast.EqualUpToOrder(slow) && r.JoinCount(s) == int64(slow.N())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickProjectionLaws(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 7))
		r := randomRelation(rng, []string{"A", "B", "C"}, 3, 1+rng.IntN(30))
		// Π_A(Π_AB(R)) = Π_A(R).
		ab, err := r.Project("A", "B")
		if err != nil {
			return false
		}
		a1, err := ab.Project("A")
		if err != nil {
			return false
		}
		a2, err := r.Project("A")
		if err != nil {
			return false
		}
		if !a1.Equal(a2) {
			return false
		}
		// |Π_Y(R)| ≤ |R|, and projecting all attrs is the identity.
		if ab.N() > r.N() {
			return false
		}
		all, err := r.Project("A", "B", "C")
		if err != nil {
			return false
		}
		return all.Equal(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSemijoinLaws(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 13))
		r := randomRelation(rng, []string{"A", "B"}, 4, 1+rng.IntN(20))
		s := randomRelation(rng, []string{"B", "C"}, 4, 1+rng.IntN(20))
		// r ⋉ s = Π_{attrs(r)}(r ⋈ s), and semijoin is idempotent.
		sj := r.Semijoin(s)
		joined := r.NaturalJoin(s)
		proj, err := joined.Project(r.Attrs()...)
		if err != nil {
			return false
		}
		return sj.Equal(proj) && sj.Semijoin(s).Equal(sj) && sj.SubsetOf(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// ProjectCounts returns the multiset projection of R onto attrs: a map from
// encoded projected-row key to its multiplicity. It is the string-keyed
// oracle the group-count tests compare the columnar engine against.
func (r *Relation) ProjectCounts(attrs ...string) (map[string]int, error) {
	cols, err := r.columns(attrs)
	if err != nil {
		return nil, err
	}
	counts := make(map[string]int)
	buf := make(Tuple, len(cols))
	for i := 0; i < r.n; i++ {
		counts[RowKey(gather(r.cols, cols, i, buf))]++
	}
	return counts, nil
}
