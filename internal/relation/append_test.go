package relation

import (
	"math/rand"
	"strings"
	"testing"
)

// randomRows draws n random tuples over the given arity and domain size.
func randomRows(rng *rand.Rand, n, arity, domain int) []Tuple {
	rows := make([]Tuple, n)
	for i := range rows {
		t := make(Tuple, arity)
		for c := range t {
			t[c] = Value(rng.Intn(domain) + 1)
		}
		rows[i] = t
	}
	return rows
}

// TestAppendMatchesRebuildExactly: after warming a workload of groupings and
// appending batches, every memoized grouping must be *identical* — ids, not
// just counts — to a from-scratch engine over the concatenated rows, because
// incremental and cold construction scan rows in the same stored order.
func TestAppendMatchesRebuildExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	attrs := []string{"A", "B", "C", "D"}
	r := FromRows(attrs, randomRows(rng, 200, 4, 5))
	workload := [][]string{
		{"A"}, {"B"}, {"C"}, {"D"},
		{"A", "B"}, {"B", "C"}, {"A", "C", "D"}, {"A", "B", "C", "D"},
	}
	warm := func(rel *Relation) {
		for _, w := range workload {
			if _, err := rel.Grouping(w...); err != nil {
				t.Fatal(err)
			}
		}
	}
	warm(r)
	for batch := 0; batch < 5; batch++ {
		if _, err := r.Append(randomRows(rng, 30, 4, 5)); err != nil {
			t.Fatal(err)
		}
		rebuilt := FromRows(attrs, r.Rows())
		for _, w := range workload {
			got, err := r.Grouping(w...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := rebuilt.Grouping(w...)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.IDs) != len(want.IDs) || got.Groups() != want.Groups() {
				t.Fatalf("batch %d %v: shape (%d ids, %d groups) vs rebuild (%d ids, %d groups)",
					batch, w, len(got.IDs), got.Groups(), len(want.IDs), want.Groups())
			}
			for i := range got.IDs {
				if got.IDs[i] != want.IDs[i] {
					t.Fatalf("batch %d %v: id[%d] = %d, rebuild %d", batch, w, i, got.IDs[i], want.IDs[i])
				}
			}
			for g := 0; g < got.Groups(); g++ {
				if got.Counts.At(g) != want.Counts.At(g) {
					t.Fatalf("batch %d %v: count[%d] = %d, rebuild %d", batch, w, g, got.Counts.At(g), want.Counts.At(g))
				}
			}
			hGot, err := r.GroupEntropy(w...)
			if err != nil {
				t.Fatal(err)
			}
			hWant, err := rebuilt.GroupEntropy(w...)
			if err != nil {
				t.Fatal(err)
			}
			if hGot != hWant {
				t.Fatalf("batch %d %v: entropy %v vs rebuild %v", batch, w, hGot, hWant)
			}
		}
	}
}

// TestAppendIsIncremental: an append must extend the memoized groupings
// copy-on-write — the pre-append Grouping value stays frozen at the rows it
// was computed over (snapshot semantics: in-flight readers are undisturbed),
// while the post-append value covers the new rows with identical ids for the
// shared prefix (the observable proof of incremental extension rather than a
// from-scratch rebuild with accidentally matching ids is the append
// benchmarks; the parity harness in append_quick_test.go pins the ids).
func TestAppendIsIncremental(t *testing.T) {
	r := FromRows([]string{"A", "B"}, []Tuple{{1, 1}, {1, 2}, {2, 1}})
	before, err := r.Grouping("A", "B")
	if err != nil {
		t.Fatal(err)
	}
	genBefore := r.Generation()
	if _, err := r.Append([]Tuple{{2, 2}, {3, 1}}); err != nil {
		t.Fatal(err)
	}
	after, err := r.Grouping("A", "B")
	if err != nil {
		t.Fatal(err)
	}
	if before == after {
		t.Fatal("append mutated the shared Grouping in place; snapshots must be copy-on-write")
	}
	if len(before.IDs) != 3 || before.Groups() != 3 {
		t.Fatalf("pre-append grouping changed: %d ids, %d groups; want 3, 3", len(before.IDs), before.Groups())
	}
	if len(after.IDs) != 5 || after.Groups() != 5 {
		t.Fatalf("extended grouping has %d ids, %d groups; want 5, 5", len(after.IDs), after.Groups())
	}
	for i := range before.IDs {
		if after.IDs[i] != before.IDs[i] {
			t.Fatalf("id[%d] changed across append: %d vs %d", i, before.IDs[i], after.IDs[i])
		}
	}
	if g := r.Generation(); g != genBefore+1 {
		t.Fatalf("generation = %d after append, want %d", g, genBefore+1)
	}
}

// TestInsertStartsNewChain: Append extends the snapshot chain, while Insert
// drops the head and the next query rebuilds it as a new chain (at the
// base generation), which is how a consumer following the chain by
// identity — the discovery memo — learns that its per-row state is void.
func TestInsertStartsNewChain(t *testing.T) {
	r := FromRows([]string{"A", "B"}, []Tuple{{1, 1}, {1, 2}})
	chain := r.Snapshot().Chain()
	if _, err := r.Append([]Tuple{{2, 1}}); err != nil {
		t.Fatal(err)
	}
	if c := r.Snapshot().Chain(); c != chain {
		t.Fatalf("Append moved the relation to chain %d, want %d", c, chain)
	}
	r.Insert(Tuple{3, 3})
	if c := r.Snapshot().Chain(); c == chain {
		t.Fatal("the snapshot rebuilt after Insert kept the old chain")
	}
}

func TestAppendDuplicatesAndArity(t *testing.T) {
	r := FromRows([]string{"A", "B"}, []Tuple{{1, 1}, {1, 2}})
	if _, err := r.Grouping("A"); err != nil {
		t.Fatal(err)
	}
	// Duplicates against existing rows and inside the batch are skipped.
	added, err := r.Append([]Tuple{{1, 1}, {5, 5}, {5, 5}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 || r.N() != 3 {
		t.Fatalf("added = %d, N = %d; want 1, 3", added, r.N())
	}
	// A bad-arity tuple anywhere in the batch rejects the whole batch before
	// any mutation — no partial append, no panic.
	if _, err := r.Append([]Tuple{{7, 7}, {1, 2, 3}}); err == nil {
		t.Fatal("bad-arity batch accepted")
	}
	if r.N() != 3 {
		t.Fatalf("partial append happened: N = %d", r.N())
	}
	if g, err := r.Grouping("A"); err != nil || g.Groups() != 2 {
		t.Fatalf("grouping after rejected batch: %v, %v", g, err)
	}
}

// TestAppendColdEngine: appending before the engine exists (or after Insert
// invalidated it) is fine — the lazily built engine simply covers all rows.
func TestAppendColdEngine(t *testing.T) {
	r := New("A", "B")
	if added, err := r.Append([]Tuple{{1, 1}, {2, 2}}); err != nil || added != 2 {
		t.Fatalf("cold append = %d, %v", added, err)
	}
	counts, err := r.GroupCounts("A")
	if err != nil || len(counts) != 2 {
		t.Fatalf("counts after cold append: %v, %v", counts, err)
	}
	// Insert still invalidates; a later Append on the rebuilt engine works.
	r.Insert(Tuple{3, 3})
	if _, err := r.GroupCounts("B"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Append([]Tuple{{4, 4}}); err != nil {
		t.Fatal(err)
	}
	if counts, err := r.GroupCounts("B"); err != nil || len(counts) != 4 {
		t.Fatalf("counts after insert+append: %v, %v", counts, err)
	}
}

// TestAppendIntoEmptyWarmEngine: the trivial (empty attribute set) grouping
// of an engine built over zero rows must grow correctly on append.
func TestAppendIntoEmptyWarmEngine(t *testing.T) {
	r := New("A")
	if _, err := r.Grouping(); err != nil { // builds the engine over 0 rows
		t.Fatal(err)
	}
	if _, err := r.Append([]Tuple{{1}, {2}}); err != nil {
		t.Fatal(err)
	}
	g, err := r.Grouping()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.IDs) != 2 || g.Groups() != 1 || g.Counts.At(0) != 2 {
		t.Fatalf("trivial grouping after append: %+v", g)
	}
}

func TestWriteCSVRowsRoundTrip(t *testing.T) {
	r := FromRows([]string{"A", "B"}, []Tuple{{1, 2}, {3, 4}})
	var sb strings.Builder
	if err := WriteCSVRows(&sb, r, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "A") {
		t.Fatalf("WriteCSVRows emitted a header: %q", sb.String())
	}
	recs, err := ReadCSVRows(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || len(recs[0]) != 2 {
		t.Fatalf("round trip: %v", recs)
	}
}
