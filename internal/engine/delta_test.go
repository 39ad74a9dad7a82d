package engine

import "testing"

func deltaRows(ts ...[3]Value) []Tuple {
	out := make([]Tuple, len(ts))
	for i, t := range ts {
		out[i] = Tuple{t[0], t[1], t[2]}
	}
	return out
}

// TestDeltaTracksGainedGroups extends a snapshot twice and checks the Delta
// summary against the grouping sizes observable directly.
func TestDeltaTracksGainedGroups(t *testing.T) {
	attrs := []string{"A", "B", "C"}
	s1 := rowSnapshot(attrs, deltaRows([3]Value{0, 0, 0}, [3]Value{0, 1, 0}, [3]Value{1, 0, 0}))
	// Memoize A and A,B so extends carry their records.
	if _, err := s1.Grouping("A"); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Grouping("A", "B"); err != nil {
		t.Fatal(err)
	}
	// Batch 1: new A value (dict grows, A gains a group), B within range.
	s2 := extendRows(s1, deltaRows([3]Value{2, 1, 0}))
	// Batch 2: duplicate projections only on A; A,B gains one pair.
	s3 := extendRows(s2, deltaRows([3]Value{1, 1, 0}))

	d, ok := s3.Delta(s1.Generation())
	if !ok {
		t.Fatal("Delta(gen1) not available")
	}
	if d.FromGen != 1 || d.ToGen != 3 || d.FromRows != 3 || d.ToRows != 5 || d.RowsAdded() != 2 {
		t.Fatalf("summary range wrong: %+v rowsAdded=%d", d, d.RowsAdded())
	}
	gained, known, err := d.GroupsGained("A")
	if err != nil || !known {
		t.Fatalf("GroupsGained(A): gained=%d known=%v err=%v", gained, known, err)
	}
	gA1, _ := s1.Grouping("A")
	gA3, _ := s3.Grouping("A")
	if want := gA3.Groups() - gA1.Groups(); gained != want {
		t.Fatalf("A gained %d groups, want %d", gained, want)
	}
	gained, known, err = d.GroupsGained("B", "A") // order-insensitive set
	if err != nil || !known {
		t.Fatalf("GroupsGained(B,A): known=%v err=%v", known, err)
	}
	gAB1, _ := s1.Grouping("A", "B")
	gAB3, _ := s3.Grouping("A", "B")
	if want := gAB3.Groups() - gAB1.Groups(); gained != want {
		t.Fatalf("A,B gained %d groups, want %d", gained, want)
	}
	if grew, err := d.DictGrew("A"); err != nil || !grew {
		t.Fatalf("DictGrew(A)=%v err=%v, want true (value 2 is new)", grew, err)
	}
	if grew, err := d.DictGrew("B"); err != nil || grew {
		t.Fatalf("DictGrew(B)=%v err=%v, want false", grew, err)
	}
	if changed, err := d.Changed("C"); err != nil || !changed {
		t.Fatalf("Changed(C)=%v err=%v; every partition's counts change on append", changed, err)
	}
}

// TestDeltaUnknownForLateGroupings: a grouping first materialized after an
// extend has no record for that extend, so GroupsGained must answer unknown
// over ranges crossing it — and known over ranges after it.
func TestDeltaUnknownForLateGroupings(t *testing.T) {
	attrs := []string{"A", "B", "C"}
	s1 := rowSnapshot(attrs, deltaRows([3]Value{0, 0, 0}, [3]Value{1, 1, 1}))
	s2 := extendRows(s1, deltaRows([3]Value{0, 1, 0}))
	if _, err := s2.Grouping("C"); err != nil { // first materialized at gen 2
		t.Fatal(err)
	}
	s3 := extendRows(s2, deltaRows([3]Value{1, 0, 1}))

	if _, known, err := s3.Delta1(t, s1.Generation()).groupsGained("C"); err != nil || known {
		t.Fatalf("C over gens 1..3: known=%v err=%v, want unknown (not memoized at extend 1→2)", known, err)
	}
	if _, known, err := s3.Delta1(t, s2.Generation()).groupsGained("C"); err != nil || !known {
		t.Fatalf("C over gens 2..3: known=%v err=%v, want known", known, err)
	}
}

// Delta1 is a test helper: Delta that must succeed.
func (s *Snapshot) Delta1(t *testing.T, since int64) *DeltaSummary {
	t.Helper()
	d, ok := s.Delta(since)
	if !ok {
		t.Fatalf("Delta(%d) not available at gen %d", since, s.Generation())
	}
	return d
}

func (d *DeltaSummary) groupsGained(attrs ...string) (int, bool, error) {
	return d.GroupsGained(attrs...)
}

// TestDeltaHorizonAndBounds: generations in the future, before construction,
// or beyond the retained chain answer !ok; the same generation answers an
// empty summary.
func TestDeltaHorizonAndBounds(t *testing.T) {
	attrs := []string{"A", "B", "C"}
	s := rowSnapshot(attrs, deltaRows([3]Value{0, 0, 0}))
	if _, ok := s.Delta(2); ok {
		t.Fatal("future generation must not answer")
	}
	if d, ok := s.Delta(1); !ok || d.RowsAdded() != 0 {
		t.Fatalf("same-generation delta: ok=%v", ok)
	}
	// A recovered snapshot has no history before its boot generation.
	r := NewSnapshotAt(attrs, columnsOf(3, deltaRows([3]Value{0, 0, 0})), 1, 7)
	if _, ok := r.Delta(3); ok {
		t.Fatal("pre-boot generation must not answer")
	}
	if _, ok := r.Delta(7); !ok {
		t.Fatal("boot generation must answer empty")
	}
	// Push past the retained horizon.
	cur := s
	for i := 0; i < maxDeltaChain+5; i++ {
		cur = extendRows(cur, deltaRows([3]Value{Value(i + 1), Value(i % 3), 0}))
	}
	if _, ok := cur.Delta(1); ok {
		t.Fatalf("generation 1 is %d extends back, beyond the %d-record horizon", maxDeltaChain+5, maxDeltaChain)
	}
	since := cur.Generation() - int64(maxDeltaChain) + 1
	d, ok := cur.Delta(since)
	if !ok {
		t.Fatalf("Delta(%d) within horizon must answer", since)
	}
	if d.RowsAdded() != int(cur.Generation()-since) {
		t.Fatalf("rowsAdded=%d want %d (one row per extend)", d.RowsAdded(), cur.Generation()-since)
	}
}
