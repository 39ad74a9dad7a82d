package engine

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// leafSets are planned with AddLeafEntropy by the count-only tests. None is
// a sorted prefix of another, so all are memoized count-only; their
// prefixes hold row ids.
var leafSets = [][]string{{"C", "D"}, {"A", "B", "D"}, {"B", "C", "D"}, {"A", "C", "D"}, {"A", "B", "C", "D"}}

// planLeaves runs a plan that declares every set of sets a leaf.
func planLeaves(t *testing.T, s *Snapshot, sets [][]string) {
	t.Helper()
	p := s.Plan()
	for _, set := range sets {
		if err := p.AddLeafEntropy(set...); err != nil {
			t.Fatal(err)
		}
	}
	p.Run(0)
}

// memoEntryOf returns the memo entry of set, or nil.
func memoEntryOf(t *testing.T, s *Snapshot, set []string) *memoEntry {
	t.Helper()
	cols, err := s.sortedColumns(set)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.memo[colsKey(cols)]
}

// checkCountOnly fails unless every set is memoized count-only in s and its
// counts and entropy equal those of cold, a snapshot of the same rows.
func checkCountOnly(t *testing.T, label string, s, cold *Snapshot, sets [][]string) {
	t.Helper()
	for _, set := range sets {
		if ent := memoEntryOf(t, s, set); ent == nil || ent.g.IDs != nil {
			t.Fatalf("%s %v: memo entry %v is not count-only", label, set, ent)
		}
	}
	checkCounts(t, label, s, cold, sets)
}

// checkCounts compares the memoized counts and the entropy of every set in
// s, without filling ids, with cold's.
func checkCounts(t *testing.T, label string, s, cold *Snapshot, sets [][]string) {
	t.Helper()
	for _, set := range sets {
		ent := memoEntryOf(t, s, set)
		if ent == nil {
			t.Fatalf("%s %v: not memoized", label, set)
		}
		want, _ := cold.Grouping(set...)
		if got, wantC := ent.g.Counts.Flatten(), want.Counts.Flatten(); !slices.Equal(got, wantC) {
			t.Fatalf("%s %v: counts %v, cold %v", label, set, got, wantC)
		}
		h, _ := s.GroupEntropy(set...)
		if w, _ := cold.GroupEntropy(set...); h != w {
			t.Fatalf("%s %v: entropy %v, cold %v", label, set, h, w)
		}
	}
}

// checkFilled reads every set's grouping from s, which fills count-only
// entries, and compares ids and counts with cold's. A filled entry replaces
// the count-only one, whose probe the read must leave in place: only Extend
// takes probes.
func checkFilled(t *testing.T, label string, s, cold *Snapshot, sets [][]string) {
	t.Helper()
	for _, set := range sets {
		before := memoEntryOf(t, s, set)
		var probe *probe
		if before != nil {
			probe = before.next.Load()
		}
		got, err := s.Grouping(set...)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := cold.Grouping(set...)
		sameGrouping(t, fmt.Sprintf("%s %v", label, set), got, want)
		if ent := memoEntryOf(t, s, set); ent.g != got {
			t.Fatalf("%s %v: the filled grouping is not the memo's", label, set)
		}
		if before != nil && before.next.Load() != probe {
			t.Fatalf("%s %v: the read moved the entry's probe", label, set)
		}
	}
}

// TestCountOnlyFillParity plans leaf entropies on snapshots whose probes take
// each form (dense, map for a negative value, map past the dense budget),
// checks the leaves are memoized count-only with a cold snapshot's counts
// and entropies, then fills their ids and compares them with the cold
// snapshot's. A set also requested whole, or as a prefix of another
// request, is not a leaf.
func TestCountOnlyFillParity(t *testing.T) {
	attrs := []string{"A", "B", "C", "D"}
	forms := map[string][]Tuple{
		"dense":      randRows(11, 400, 4, 6),
		"negative":   randRows(12, 400, 4, 6),
		"wide value": randRows(13, 400, 4, 6),
	}
	for _, r := range forms["negative"] {
		r[3] -= 3
	}
	for i, r := range forms["wide value"] {
		r[3] = Value(i * 97 % 5000)
	}
	for name, rows := range forms {
		s := rowSnapshot(attrs, rows)
		cold := rowSnapshot(attrs, rows)
		planLeaves(t, s, leafSets)
		checkCountOnly(t, name, s, cold, leafSets)
		for _, set := range leafSets {
			if memoEntryOf(t, s, set).next.Load() == nil {
				t.Fatalf("%s %v: count-only entry without its probe", name, set)
			}
		}
		checkFilled(t, name, s, cold, leafSets)
		for _, set := range leafSets {
			if memoEntryOf(t, s, set).next.Load() == nil {
				t.Fatalf("%s %v: the filled entry holds no probe", name, set)
			}
		}
	}

	s := rowSnapshot(attrs, forms["dense"])
	p := s.Plan()
	for _, set := range leafSets {
		if err := p.AddLeafEntropy(set...); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.AddEntropy("A", "C", "D"); err != nil {
		t.Fatal(err)
	}
	for _, set := range [][]string{{"B", "C"}, {"A", "B", "C"}} {
		if err := p.AddLeafEntropy(set...); err != nil {
			t.Fatal(err)
		}
	}
	p.Run(0)
	for _, set := range [][]string{{"A", "C", "D"}, {"B", "C"}, {"A", "B", "C"}} {
		if memoEntryOf(t, s, set).g.IDs == nil {
			t.Fatalf("%v is a prefix or a whole request, but was memoized count-only", set)
		}
	}
	checkCountOnly(t, "mixed plan", s, rowSnapshot(attrs, forms["dense"]), [][]string{{"C", "D"}, {"A", "B", "D"}, {"B", "C", "D"}, {"A", "B", "C", "D"}})
}

// TestCountOnlyExtendParity extends count-only entries over ten appends,
// some bringing values past the dense probes' width and new parent groups.
// Each link must keep them count-only with a cold rebuild's counts and
// entropies. The last link, whose probes have absorbed every append, and a
// middle link, whose probes its child took, fill their ids; both must equal
// a cold rebuild's, and so must an extension of the filled link.
// Re-extending a link (its probes taken) must keep the sets count-only with
// a cold rebuild's counts; it reuses the id headroom of the later links, so
// it runs last.
func TestCountOnlyExtendParity(t *testing.T) {
	attrs := []string{"A", "B", "C", "D"}
	base := randRows(14, 400, 4, 6)
	seen := make(map[[4]Value]bool)
	for _, r := range base {
		seen[[4]Value{r[0], r[1], r[2], r[3]}] = true
	}
	var fresh []Tuple
	for _, r := range randRows(16, 500, 4, 9) {
		if !seen[[4]Value{r[0], r[1], r[2], r[3]}] {
			fresh = append(fresh, r)
		}
	}
	s := rowSnapshot(attrs, base)
	planLeaves(t, s, leafSets)
	links := []*Snapshot{s}
	for k := 0; k < 10; k++ {
		step := 1 + k*7
		next := extendRows(links[len(links)-1], fresh[:step])
		fresh = fresh[step:]
		links = append(links, next)
		cold := rowSnapshot(attrs, rowsOf(next))
		checkCountOnly(t, fmt.Sprintf("append %d", k+1), next, cold, leafSets)
	}
	checkFilled(t, "last link", links[10], rowSnapshot(attrs, rowsOf(links[10])), leafSets)
	last := extendRows(links[10], fresh[:20])
	checkFilled(t, "after fill", last, rowSnapshot(attrs, rowsOf(last)), leafSets)
	checkFilled(t, "link 5", links[5], rowSnapshot(attrs, rowsOf(links[5])), leafSets)
	again := extendRows(links[9], fresh[20:40])
	checkCountOnly(t, "re-extended", again, rowSnapshot(attrs, rowsOf(again)), leafSets)
	checkFilled(t, "re-extended", again, rowSnapshot(attrs, rowsOf(again)), leafSets)
}

// TestCountOnlyFillRacesExtend fills count-only entries on a snapshot while
// Extend takes their probes: whichever runs first, the readers' ids and the
// child's counts and ids must equal cold rebuilds'. Run under -race in CI.
func TestCountOnlyFillRacesExtend(t *testing.T) {
	attrs := []string{"A", "B", "C", "D"}
	rows := randRows(15, 500, 4, 7)
	parentCold := rowSnapshot(attrs, rows[:400])
	childCold := rowSnapshot(attrs, rows)
	for round := 0; round < 10; round++ {
		s := rowSnapshot(attrs, rows[:400])
		planLeaves(t, s, leafSets)
		var child *Snapshot
		got := make([]*Grouping, len(leafSets))
		var wg sync.WaitGroup
		wg.Add(1 + len(leafSets))
		go func() {
			defer wg.Done()
			child = extendRows(s, rows[400:])
		}()
		for i, set := range leafSets {
			go func() {
				defer wg.Done()
				got[i], _ = s.Grouping(set...)
			}()
		}
		wg.Wait()
		for i, set := range leafSets {
			want, _ := parentCold.Grouping(set...)
			sameGrouping(t, fmt.Sprintf("round %d reader %v", round, set), got[i], want)
		}
		checkCounts(t, fmt.Sprintf("round %d child", round), child, childCold, leafSets)
		checkFilled(t, fmt.Sprintf("round %d child", round), child, childCold, leafSets)
	}
}

// TestCountOnlyPrefixFilledAtItsLevel plans, on a snapshot whose memo holds
// a count-only set with its entropy, a set that extends it. The count-only
// prefix is pending work at its own level, where it is filled once, and the
// new leaf is memoized count-only.
func TestCountOnlyPrefixFilledAtItsLevel(t *testing.T) {
	attrs := []string{"A", "B", "C", "D"}
	rows := randRows(17, 400, 4, 6)
	s := rowSnapshot(attrs, rows)
	abc := []string{"A", "B", "C"}
	planLeaves(t, s, [][]string{abc})
	checkCountOnly(t, "first plan", s, rowSnapshot(attrs, rows), [][]string{abc})

	p := s.Plan()
	for _, set := range [][]string{abc, {"A", "B", "C", "D"}} {
		if err := p.AddLeafEntropy(set...); err != nil {
			t.Fatal(err)
		}
	}
	var level []*planNode
	for _, n := range p.nodes {
		if len(n.cols) == 3 {
			level = append(level, n)
		}
	}
	if nodes, work := s.pending(level); len(nodes) != 1 || work != s.NumRows() {
		t.Fatalf("count-only prefix: %d pending nodes, work %d; want 1, %d", len(nodes), work, s.NumRows())
	}
	p.Run(0)
	if memoEntryOf(t, s, abc).g.IDs == nil {
		t.Fatalf("%v is a prefix of the plan, but is still count-only after Run", abc)
	}
	cold := rowSnapshot(attrs, rows)
	checkCountOnly(t, "second plan", s, cold, [][]string{{"A", "B", "C", "D"}})
	checkFilled(t, "second plan", s, cold, [][]string{abc, {"A", "B", "C", "D"}})
}
