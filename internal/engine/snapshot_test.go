package engine

import (
	"math/rand"
	"sync"
	"testing"
)

// Tuple is one row of a test fixture, one Value per attribute.
type Tuple = []Value

// columnsOf transposes rows of the given arity into columns.
func columnsOf(arity int, rows []Tuple) [][]Value {
	cols := make([][]Value, arity)
	for c := range cols {
		cols[c] = make([]Value, len(rows))
		for i, t := range rows {
			cols[c][i] = t[c]
		}
	}
	return cols
}

// rowsOf transposes a snapshot's columns back into rows.
func rowsOf(s *Snapshot) []Tuple {
	rows := make([]Tuple, s.NumRows())
	for i := range rows {
		rows[i] = make(Tuple, len(s.Columns()))
		for c, col := range s.Columns() {
			rows[i][c] = col[i]
		}
	}
	return rows
}

// rowSnapshot builds a generation-1 snapshot of distinct rows.
func rowSnapshot(attrs []string, rows []Tuple) *Snapshot {
	return NewSnapshotAt(attrs, columnsOf(len(attrs), rows), len(rows), 1)
}

// growColumns returns s's columns with the fresh rows appended, and their
// row count. The snapshot's columns are clipped to its rows, so the appends
// copy them, as an owner's columns do when they outgrow their capacity.
func growColumns(s *Snapshot, fresh []Tuple) ([][]Value, int) {
	cols := make([][]Value, len(s.Columns()))
	for c, col := range s.Columns() {
		cols[c] = col
		for _, t := range fresh {
			cols[c] = append(cols[c], t[c])
		}
	}
	return cols, s.NumRows() + len(fresh)
}

// extendRows extends s by the fresh rows.
func extendRows(s *Snapshot, fresh []Tuple) *Snapshot {
	return s.Extend(growColumns(s, fresh))
}

func randRows(seed int64, n, arity, domain int) []Tuple {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool)
	var rows []Tuple
	for len(rows) < n {
		t := make(Tuple, arity)
		key := make([]byte, arity)
		for c := range t {
			v := Value(rng.Intn(domain))
			t[c] = v
			key[c] = byte(v)
		}
		if seen[string(key)] {
			continue
		}
		seen[string(key)] = true
		rows = append(rows, t)
	}
	return rows
}

func sameGrouping(t *testing.T, label string, got, want *Grouping) {
	t.Helper()
	if len(got.IDs) != len(want.IDs) || got.Groups() != want.Groups() {
		t.Fatalf("%s: %d ids / %d groups, want %d / %d", label, len(got.IDs), got.Groups(), len(want.IDs), want.Groups())
	}
	for i := range got.IDs {
		if got.IDs[i] != want.IDs[i] {
			t.Fatalf("%s: id[%d] = %d, want %d", label, i, got.IDs[i], want.IDs[i])
		}
	}
	for g := 0; g < got.Groups(); g++ {
		if got.Counts.At(g) != want.Counts.At(g) {
			t.Fatalf("%s: count[%d] = %d, want %d", label, g, got.Counts.At(g), want.Counts.At(g))
		}
	}
}

// TestExtendParity: a chain of Extends must assign exactly the group ids,
// counts and entropies a cold snapshot over the concatenated rows would, for
// every attribute set memoized before the appends.
func TestExtendParity(t *testing.T) {
	attrs := []string{"A", "B", "C"}
	rows := randRows(1, 200, 3, 6)
	snap := rowSnapshot(attrs, rows[:100])
	sets := [][]string{{"A"}, {"B"}, {"C"}, {"A", "B"}, {"B", "C"}, {"A", "B", "C"}}
	for _, set := range sets {
		if _, err := snap.Grouping(set...); err != nil {
			t.Fatal(err)
		}
	}
	cur := snap
	for i := 100; i < 200; i += 25 {
		cur = extendRows(cur, rows[i:i+25])
		cold := rowSnapshot(attrs, rows[:i+25])
		for _, set := range sets {
			got, err := cur.Grouping(set...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := cold.Grouping(set...)
			if err != nil {
				t.Fatal(err)
			}
			sameGrouping(t, "extend", got, want)
			hg, _ := cur.GroupEntropy(set...)
			hw, _ := cold.GroupEntropy(set...)
			if hg != hw {
				t.Fatalf("entropy %v: %v vs cold %v", set, hg, hw)
			}
		}
	}
	if cur.Generation() != 5 {
		t.Fatalf("generation = %d after 4 extends, want 5", cur.Generation())
	}
}

// TestExtendLeavesParentFrozen: the defining property of the snapshot layer —
// extending must not change anything observable about the parent, including
// groupings handed out before the extension and ones computed after it.
func TestExtendLeavesParentFrozen(t *testing.T) {
	attrs := []string{"A", "B"}
	rows := randRows(2, 60, 2, 12)
	parent := rowSnapshot(attrs, rows[:40])
	gAB, err := parent.Grouping("A", "B")
	if err != nil {
		t.Fatal(err)
	}
	idsBefore := append([]int32(nil), gAB.IDs...)
	countsBefore := gAB.Counts.Flatten()
	hBefore, _ := parent.GroupEntropy("A", "B")

	child := extendRows(parent, rows[40:])

	// The shared Grouping value is frozen.
	if len(gAB.IDs) != 40 {
		t.Fatalf("parent grouping grew to %d ids", len(gAB.IDs))
	}
	for i := range idsBefore {
		if gAB.IDs[i] != idsBefore[i] {
			t.Fatalf("parent id[%d] changed", i)
		}
	}
	for g := range countsBefore {
		if gAB.Counts.At(g) != countsBefore[g] {
			t.Fatalf("parent count[%d] changed", g)
		}
	}
	// Queries against the parent still answer at the old generation, even for
	// sets first computed after the extension.
	if h, _ := parent.GroupEntropy("A", "B"); h != hBefore {
		t.Fatalf("parent entropy changed: %v vs %v", h, hBefore)
	}
	gA, err := parent.Grouping("A")
	if err != nil {
		t.Fatal(err)
	}
	if len(gA.IDs) != 40 {
		t.Fatalf("lazily computed parent grouping covers %d rows, want 40", len(gA.IDs))
	}
	if parent.N() != 40 || child.N() != 60 {
		t.Fatalf("N: parent %d child %d, want 40, 60", parent.N(), child.N())
	}
	if len(rowsOf(parent)) != 40 || len(rowsOf(child)) != 60 {
		t.Fatalf("rows: parent %d child %d", len(rowsOf(parent)), len(rowsOf(child)))
	}
	if parent.Generation()+1 != child.Generation() {
		t.Fatalf("generations: %d, %d", parent.Generation(), child.Generation())
	}
}

// TestExtendEmptyAndNoop: extending with no rows returns the receiver;
// extending an empty snapshot works.
func TestExtendEmptyAndNoop(t *testing.T) {
	snap := rowSnapshot([]string{"A"}, nil)
	if extendRows(snap, nil) != snap {
		t.Fatal("empty Extend must return the receiver")
	}
	if _, err := snap.Grouping("A"); err != nil {
		t.Fatal(err)
	}
	child := extendRows(snap, []Tuple{{1}, {2}})
	g, err := child.Grouping("A")
	if err != nil {
		t.Fatal(err)
	}
	if g.Groups() != 2 || len(g.IDs) != 2 {
		t.Fatalf("grouping after extend-from-empty: %d groups, %d ids", g.Groups(), len(g.IDs))
	}
	if h, _ := snap.GroupEntropy("A"); h != 0 {
		t.Fatalf("entropy of empty snapshot = %v", h)
	}
}

// TestSnapshotChainIdentity: every constructor starts a chain and every
// Extend child inherits its parent's, so two snapshots of equal rows and
// generation but separate construction are told apart.
func TestSnapshotChainIdentity(t *testing.T) {
	attrs := []string{"A", "B", "C"}
	rows := randRows(5, 20, 3, 3)
	s1 := rowSnapshot(attrs, rows[:10])
	s2 := extendRows(s1, rows[10:15])
	s3 := extendRows(s2, rows[15:])
	if s2.Chain() != s1.Chain() || s3.Chain() != s1.Chain() {
		t.Fatalf("Extend changed the chain: %d, %d, %d", s1.Chain(), s2.Chain(), s3.Chain())
	}
	twin := rowSnapshot(attrs, rows[:10])
	if twin.Chain() == s1.Chain() || twin.Generation() != s1.Generation() {
		t.Fatalf("a second construction over the same rows shares chain %d", twin.Chain())
	}
	recovered := NewSnapshotAt(attrs, columnsOf(3, rows), len(rows), s3.Generation())
	weighted := NewWeightedSnapshot(attrs, columnsOf(3, rows), make([]int64, len(rows)), len(rows))
	for _, other := range []*Snapshot{recovered, weighted} {
		if other.Chain() == s1.Chain() || other.Chain() == twin.Chain() {
			t.Fatalf("constructor reused chain %d", other.Chain())
		}
	}
}

// TestWeightedSnapshot: multiplicity-weighted counts and entropies.
func TestWeightedSnapshot(t *testing.T) {
	rows := []Tuple{{1, 1}, {1, 2}, {2, 1}}
	snap := NewWeightedSnapshot([]string{"A", "B"}, columnsOf(2, rows), []int64{3, 1, 2}, 6)
	counts, err := snap.GroupCounts("A")
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 2 || counts[0] != 4 || counts[1] != 2 {
		t.Fatalf("weighted counts = %v, want [4 2]", counts)
	}
	if snap.N() != 6 {
		t.Fatalf("N = %d, want 6", snap.N())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Extend on a weighted snapshot must panic")
		}
	}()
	extendRows(snap, []Tuple{{9, 9}})
}

// TestUnknownAttribute: error paths.
func TestUnknownAttribute(t *testing.T) {
	snap := rowSnapshot([]string{"A"}, []Tuple{{1}})
	if _, err := snap.Grouping("Z"); err == nil {
		t.Fatal("unknown attribute accepted")
	}
	if _, err := snap.GroupEntropy("Z"); err == nil {
		t.Fatal("unknown attribute accepted")
	}
}

// TestReextendRebuildsProbe: Extend hands each memoized probe to the child,
// so a second Extend of the same parent must rebuild it from the parent's
// rows. After extending a warm parent, dropping the child and extending the
// parent again with different rows, every memoized grouping and entropy must
// equal a cold snapshot's, and so must the next link of the chain. Column C
// holds negative values, so its probes take the map form; the appended rows
// bring values and groups the base never had.
func TestReextendRebuildsProbe(t *testing.T) {
	attrs := []string{"A", "B", "C"}
	shift := func(rows []Tuple) []Tuple {
		for _, r := range rows {
			r[2] -= 3
		}
		return rows
	}
	base := shift(randRows(5, 60, 3, 5))
	inBase := make(map[[3]Value]bool)
	for _, r := range base {
		inBase[[3]Value{r[0], r[1], r[2]}] = true
	}
	var pool []Tuple
	for _, r := range shift(randRows(6, 200, 3, 10)) {
		if !inBase[[3]Value{r[0], r[1], r[2]}] {
			pool = append(pool, r)
		}
	}
	first, second, third := pool[:30], pool[30:60], pool[60:90]

	sets := [][]string{{"A"}, {"B"}, {"C"}, {"A", "B"}, {"A", "C"}, {"B", "C"}, {"A", "B", "C"}}
	parent := rowSnapshot(attrs, base)
	for _, set := range sets {
		if _, err := parent.GroupEntropy(set...); err != nil {
			t.Fatal(err)
		}
	}
	check := func(label string, got *Snapshot, rows []Tuple) {
		t.Helper()
		cold := rowSnapshot(attrs, rows)
		for _, set := range sets {
			g, _ := got.Grouping(set...)
			w, _ := cold.Grouping(set...)
			sameGrouping(t, label, g, w)
			hg, _ := got.GroupEntropy(set...)
			hw, _ := cold.GroupEntropy(set...)
			if hg != hw {
				t.Fatalf("%s: entropy %v = %v, cold %v", label, set, hg, hw)
			}
		}
	}
	cat := func(parts ...[]Tuple) []Tuple {
		var out []Tuple
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}

	check("first child", extendRows(parent, first), cat(base, first))
	for key, ent := range parent.memo {
		if len(ent.cols) > 0 && ent.next.Load() != nil {
			t.Fatalf("memo %s kept its probe after Extend; the rebuild path goes untested", key)
		}
	}
	child := extendRows(parent, second)
	check("re-extended child", child, cat(base, second))
	check("grandchild", extendRows(child, third), cat(base, second, third))
	check("parent", parent, base)
}

// TestReextendWorkCountsRebuilds checks the work Extend counts for a level:
// the appended rows of every set while the sets still hold their probes,
// and the parent's rows as well for each set whose probe a first Extend took,
// since extending that snapshot again rebuilds the probe from all its rows.
func TestReextendWorkCountsRebuilds(t *testing.T) {
	attrs := []string{"A", "B", "C"}
	rows := randRows(8, 600, 3, 12)
	parent := rowSnapshot(attrs, rows[:500])
	for _, set := range [][]string{{"A"}, {"B"}, {"A", "B"}, {"A", "C"}} {
		if _, err := parent.Grouping(set...); err != nil {
			t.Fatal(err)
		}
	}
	level := func(s *Snapshot, size int) []*memoEntry {
		var out []*memoEntry
		for _, ent := range s.memo {
			if len(ent.cols) == size {
				out = append(out, ent)
			}
		}
		return out
	}
	const fresh = 7
	if got := parent.extendWork(level(parent, 0), fresh); got != fresh {
		t.Fatalf("empty set: work %d, want %d (it has no probe to rebuild)", got, fresh)
	}
	if got := parent.extendWork(level(parent, 2), fresh); got != 2*fresh {
		t.Fatalf("probes held: work %d, want %d", got, 2*fresh)
	}
	child := extendRows(parent, rows[500:])
	if got, want := parent.extendWork(level(parent, 2), fresh), 2*(fresh+parent.NumRows()); got != want {
		t.Fatalf("probes taken: work %d, want %d", got, want)
	}
	if got := child.extendWork(level(child, 1), fresh); got != 2*fresh {
		t.Fatalf("child holds the probes: work %d, want %d", got, 2*fresh)
	}
}

// TestHandoffConcurrentReaders: readers compute groupings the memo does not
// hold yet, on the parent and on each child, while one writer extends the
// chain and takes every probe it extends. Run under -race in CI.
func TestHandoffConcurrentReaders(t *testing.T) {
	attrs := []string{"A", "B", "C", "D"}
	rows := randRows(8, 500, 4, 6)
	parent := rowSnapshot(attrs, rows[:200])
	for _, set := range [][]string{{"A"}, {"A", "B"}, {"C", "D"}} {
		if _, err := parent.GroupEntropy(set...); err != nil {
			t.Fatal(err)
		}
	}
	sets := [][]string{{"B"}, {"A", "C"}, {"B", "D"}, {"A", "B", "C"}, {"B", "C", "D"}, {"A", "B", "C", "D"}}
	// Unbuffered: the writer extends each child while readers work on it.
	chain := make(chan *Snapshot)
	go func() {
		defer close(chain)
		cur := parent
		for i := 200; i < 500; i += 50 {
			cur = extendRows(cur, rows[i:i+50])
			chain <- cur
		}
	}()
	read := func(snap *Snapshot) {
		cold := rowSnapshot(attrs, rowsOf(snap))
		forEach(len(sets), 4, func(i int) {
			set := sets[i]
			h, err := snap.GroupEntropy(set...)
			if err != nil {
				t.Error(err)
				return
			}
			if w, _ := cold.GroupEntropy(set...); h != w {
				t.Errorf("%d rows, %v: entropy %v, cold %v", snap.NumRows(), set, h, w)
			}
		})
	}
	for snap := range chain {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); read(parent) }()
		go func() { defer wg.Done(); read(snap) }()
		wg.Wait()
	}
}
