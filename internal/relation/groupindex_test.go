package relation

import (
	"sort"
	"sync"
	"testing"
)

// legacyCountMultiset collects the sorted multiset of counts from the legacy
// string-keyed path.
func legacyCountMultiset(counts map[string]int) []int {
	out := make([]int, 0, len(counts))
	for _, c := range counts {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

func groupCountMultiset(counts []int) []int {
	out := append([]int(nil), counts...)
	sort.Ints(out)
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestGroupCountsMatchProjectCounts(t *testing.T) {
	r := FromRows([]string{"A", "B", "C"}, []Tuple{
		{1, 1, 1}, {1, 1, 2}, {1, 2, 1}, {2, 1, 1}, {2, 2, 2}, {3, 1, 2},
	})
	subsets := [][]string{{"A"}, {"B"}, {"C"}, {"A", "B"}, {"B", "C"}, {"A", "C"}, {"A", "B", "C"}, {"C", "A"}}
	for _, attrs := range subsets {
		pc, err := r.ProjectCounts(attrs...)
		if err != nil {
			t.Fatal(err)
		}
		gc, err := r.GroupCounts(attrs...)
		if err != nil {
			t.Fatal(err)
		}
		legacy := legacyCountMultiset(pc)
		grouped := groupCountMultiset(gc)
		if !equalInts(legacy, grouped) {
			t.Errorf("GroupCounts(%v) = %v, ProjectCounts gives %v", attrs, grouped, legacy)
		}
	}
	if _, err := r.GroupCounts("Z"); err == nil {
		t.Error("GroupCounts on unknown attribute should fail")
	}
	// Repeated attributes are deduped, matching the legacy set semantics.
	dup, err := r.GroupCounts("A", "A", "B")
	if err != nil {
		t.Fatalf("duplicate attrs should be accepted: %v", err)
	}
	ab, err := r.GroupCounts("A", "B")
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(groupCountMultiset(dup), groupCountMultiset(ab)) {
		t.Errorf("GroupCounts(A,A,B) = %v, want %v", dup, ab)
	}
}

func TestGroupingIDsConsistent(t *testing.T) {
	r := FromRows([]string{"A", "B"}, []Tuple{{1, 1}, {1, 2}, {2, 1}, {1, 1}})
	g, err := r.Grouping("A")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.IDs) != r.N() {
		t.Fatalf("got %d ids for %d rows", len(g.IDs), r.N())
	}
	// Rows agree on A iff they share a group id, and counts add up.
	colA := r.MustColumns([]string{"A"})[0]
	for i := 0; i < r.N(); i++ {
		for j := 0; j < r.N(); j++ {
			same := r.Row(i)[colA] == r.Row(j)[colA]
			if same != (g.IDs[i] == g.IDs[j]) {
				t.Fatalf("rows %d,%d: value-equal=%v id-equal=%v", i, j, same, g.IDs[i] == g.IDs[j])
			}
		}
	}
	totals := 0
	for _, c := range g.Counts.Flatten() {
		totals += c
	}
	if totals != r.N() {
		t.Fatalf("group counts sum to %d, want %d", totals, r.N())
	}
}

func TestGroupingEmptyAttrSet(t *testing.T) {
	r := FromRows([]string{"A"}, []Tuple{{1}, {2}})
	g, err := r.Grouping()
	if err != nil {
		t.Fatal(err)
	}
	if g.Groups() != 1 || g.Counts.At(0) != 2 {
		t.Fatalf("trivial grouping = %+v, want one group of 2", g)
	}
	h, err := r.GroupEntropy("A")
	if err != nil {
		t.Fatal(err)
	}
	if h <= 0 {
		t.Fatalf("H(A) = %g, want > 0", h)
	}
}

func TestGroupCacheInvalidatedOnInsert(t *testing.T) {
	r := FromRows([]string{"A"}, []Tuple{{1}, {2}})
	h1, err := r.GroupEntropy("A")
	if err != nil {
		t.Fatal(err)
	}
	r.Insert(Tuple{3})
	h2, err := r.GroupEntropy("A")
	if err != nil {
		t.Fatal(err)
	}
	if h2 <= h1 {
		t.Fatalf("entropy after insert %g should exceed %g", h2, h1)
	}
	fresh := FromRows([]string{"A"}, []Tuple{{1}, {2}, {3}})
	hf, err := fresh.GroupEntropy("A")
	if err != nil {
		t.Fatal(err)
	}
	if h2 != hf {
		t.Fatalf("stale cache: incremental %g vs fresh %g", h2, hf)
	}
}

func TestMultisetGroupCountsWeighted(t *testing.T) {
	m := NewMultiset("A", "B")
	m.Add(Tuple{1, 1}, 3)
	m.Add(Tuple{1, 2}, 1)
	m.Add(Tuple{2, 1}, 2)
	gc, err := m.GroupCounts("A")
	if err != nil {
		t.Fatal(err)
	}
	got := groupCountMultiset(gc)
	want := []int{2, 4}
	if !equalInts(got, want) {
		t.Fatalf("weighted GroupCounts(A) = %v, want %v", got, want)
	}
	pc, err := m.ProjectCounts("A")
	if err != nil {
		t.Fatal(err)
	}
	legacy := legacyCountMultiset(pc)
	if !equalInts(got, legacy) {
		t.Fatalf("group %v vs legacy %v", got, legacy)
	}
	// Scaling multiplicities leaves the entropy unchanged.
	h1, err := m.GroupEntropy("A", "B")
	if err != nil {
		t.Fatal(err)
	}
	h2, err := m.Scale(5).GroupEntropy("A", "B")
	if err != nil {
		t.Fatal(err)
	}
	if diff := h1 - h2; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("entropy not scale-invariant: %g vs %g", h1, h2)
	}
}

func TestAlignGroups(t *testing.T) {
	r := FromRows([]string{"A", "B"}, []Tuple{{1, 1}, {1, 2}, {2, 1}})
	s := FromRows([]string{"B", "C"}, []Tuple{{1, 7}, {2, 8}, {3, 9}})
	rIDs, sIDs, groups, err := AlignGroups(r, []string{"B"}, s, []string{"B"})
	if err != nil {
		t.Fatal(err)
	}
	if groups < 3 {
		t.Fatalf("expected ≥3 groups for B values {1,2,3}, got %d", groups)
	}
	colRB := r.MustColumns([]string{"B"})[0]
	colSB := s.MustColumns([]string{"B"})[0]
	for i := 0; i < r.N(); i++ {
		for j := 0; j < s.N(); j++ {
			same := r.Row(i)[colRB] == s.Row(j)[colSB]
			if same != (rIDs[i] == sIDs[j]) {
				t.Fatalf("align mismatch r%d s%d", i, j)
			}
		}
	}
	if _, _, _, err := AlignGroups(r, []string{"A"}, s, []string{"B", "C"}); err == nil {
		t.Error("arity mismatch should fail")
	}
}

func TestGroupEngineConcurrentReads(t *testing.T) {
	rows := make([]Tuple, 0, 500)
	for i := 0; i < 500; i++ {
		rows = append(rows, Tuple{Value(i % 7), Value(i % 13), Value(i % 3)})
	}
	r := FromRows([]string{"A", "B", "C"}, rows)
	want, err := r.GroupEntropy("A", "B")
	if err != nil {
		t.Fatal(err)
	}
	subsets := [][]string{{"A"}, {"B"}, {"C"}, {"A", "B"}, {"B", "C"}, {"A", "C"}, {"A", "B", "C"}}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				for _, attrs := range subsets {
					if _, err := r.GroupEntropy(attrs...); err != nil {
						errs <- err
						return
					}
				}
				h, err := r.GroupEntropy("A", "B")
				if err != nil || h != want {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
