package relation

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// TestRowTableMatchesMap drives the row table through growth from empty,
// duplicate-heavy inserts and misses, against a string-keyed map oracle.
func TestRowTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	for _, arity := range []int{1, 2, 3, 5} {
		var tb rowTable
		cols := make([][]Value, arity)
		n := 0
		oracle := make(map[string]int)
		randomTuple := func() Tuple {
			tp := make(Tuple, arity)
			for i := range tp {
				tp[i] = Value(rng.IntN(9) - 2) // negative codes too
			}
			return tp
		}
		for step := 0; step < 4000; step++ {
			tp := randomTuple()
			want, seen := oracle[RowKey(tp)]
			got, added := tb.insert(cols, n, tp)
			if added == seen || (seen && got != want) || (!seen && got != n) {
				t.Fatalf("arity %d step %d: insert(%v) = %d, %v; oracle %d, %v (n=%d)", arity, step, tp, got, added, want, seen, n)
			}
			if added {
				oracle[RowKey(tp)] = n
				for c, v := range tp {
					cols[c] = append(cols[c], v)
				}
				n++
			}
			probe := randomTuple()
			want, seen = oracle[RowKey(probe)]
			if got := tb.find(cols, probe); (got >= 0) != seen || (seen && got != want) {
				t.Fatalf("arity %d step %d: find(%v) = %d; oracle %d, %v", arity, step, probe, got, want, seen)
			}
		}
		rebuilt := newRowTable(cols, n)
		for i, row := range rowsOf(cols, n) {
			if got := rebuilt.find(cols, row); got != i {
				t.Fatalf("arity %d: rebuilt table finds row %d at %d", arity, i, got)
			}
		}
	}
	var empty rowTable
	if got := empty.find([][]Value{nil}, Tuple{1}); got != -1 {
		t.Fatalf("empty table find = %d", got)
	}
}

// TestRelationRowIndexMatchesMap checks every relation path that builds or
// consults the row table — Insert, Append, FromRows, FromColumns, Clone, Project,
// a frozen View's lazily built index and Multiset.Add — against a map
// oracle, before and after growth.
func TestRelationRowIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 13))
	attrs := []string{"A", "B", "C"}
	batch := func(n int) []Tuple {
		out := make([]Tuple, n)
		for i := range out {
			out[i] = Tuple{Value(rng.IntN(6)), Value(rng.IntN(6)), Value(rng.IntN(6))}
		}
		return out
	}
	r := New(attrs...)
	oracle := make(map[string]bool)
	var order []Tuple
	record := func(tp Tuple) bool {
		if oracle[RowKey(tp)] {
			return false
		}
		oracle[RowKey(tp)] = true
		order = append(order, tp)
		return true
	}
	for _, tp := range batch(50) {
		if got, want := r.Insert(tp), record(tp); got != want {
			t.Fatalf("Insert(%v) = %v, want %v", tp, got, want)
		}
	}
	r.Snapshot() // Append extends a warm engine
	for k := 0; k < 20; k++ {
		b := batch(40)
		want := 0
		for _, tp := range b {
			if record(tp) {
				want++
			}
		}
		if got, err := r.Append(b); err != nil || got != want {
			t.Fatalf("Append batch %d = %d, %v; want %d", k, got, err, want)
		}
	}
	all := batch(300)
	input := append(slices.Clone(order), all...)
	fromRows := FromRows(attrs, input)
	for _, tp := range all {
		record(tp)
	}
	fromCols, err := FromColumns(attrs, columnsOf(order))
	if err != nil {
		t.Fatal(err)
	}
	view := r.View()
	clone := r.Clone()
	multiset := MultisetOf(r)
	for name, rel := range map[string]*Relation{"relation": r, "FromRows": fromRows, "FromColumns": fromCols, "View": view, "Clone": clone} {
		want := len(order)
		if name == "relation" || name == "View" || name == "Clone" {
			want = r.N()
		}
		if rel.N() != want {
			t.Fatalf("%s: N = %d, want %d", name, rel.N(), want)
		}
		for i := 0; i < rel.N(); i++ {
			if !slices.Equal(rel.Row(i), order[i]) {
				t.Fatalf("%s: row %d = %v, want first occurrence %v", name, i, rel.Row(i), order[i])
			}
		}
		for a := Value(-1); a < 7; a++ {
			for b := Value(0); b < 6; b++ {
				for c := Value(0); c < 6; c++ {
					tp := Tuple{a, b, c}
					inRel := false
					for _, row := range rel.Rows() {
						if slices.Equal(row, tp) {
							inRel = true
						}
					}
					if rel.Contains(tp) != inRel {
						t.Fatalf("%s: Contains(%v) = %v, want %v", name, tp, !inRel, inRel)
					}
				}
			}
		}
	}
	if multiset.Distinct() != r.N() || multiset.N() != r.N() {
		t.Fatalf("MultisetOf: %d distinct, N %d; want %d", multiset.Distinct(), multiset.N(), r.N())
	}
	for _, tp := range r.Rows() {
		multiset.Add(tp, 2)
		if got := multiset.Multiplicity(tp); got != 3 {
			t.Fatalf("Multiplicity(%v) = %d after Add(2), want 3", tp, got)
		}
	}
	if got := multiset.Multiplicity(Tuple{-1, -1, -1}); got != 0 {
		t.Fatalf("Multiplicity of an absent tuple = %d", got)
	}
	// Clone is independent: growing it leaves r and the View unchanged.
	extra := Tuple{9, 9, 9}
	if !clone.Insert(extra) || r.Contains(extra) || view.Contains(extra) || !clone.Contains(extra) {
		t.Fatal("Clone shares its row index with the original")
	}
	// Project's index covers exactly the distinct projected rows.
	proj := r.MustProject("A", "B")
	for _, tp := range r.Rows() {
		if !proj.Contains(Tuple{tp[0], tp[1]}) {
			t.Fatalf("projection misses %v", tp[:2])
		}
	}
	if proj.Insert(Tuple{r.Row(0)[0], r.Row(0)[1]}) {
		t.Fatal("projection accepted a duplicate of one of its rows")
	}
}

// columnsOf transposes rows into columns.
func columnsOf(rows []Tuple) [][]Value {
	var cols [][]Value
	for i, t := range rows {
		if i == 0 {
			cols = make([][]Value, len(t))
		}
		for c, v := range t {
			cols[c] = append(cols[c], v)
		}
	}
	return cols
}
