package service

import (
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ajdloss/internal/persist"
	"ajdloss/internal/relation"
)

// TestFrozenColumnsSurviveGrowth pins the sharing rule the columnar storage
// relies on: a relation's snapshots, its frozen Views and the checkpoints
// serialized from them share the relation's column slices, and the relation
// only writes past the row count of every snapshot it has published. A View
// and a checkpoint taken at generation g must therefore still show exactly
// generation g's rows after Appends and Inserts have grown every column past
// its capacity, while a reader keeps querying the View.
func TestFrozenColumnsSurviveGrowth(t *testing.T) {
	rel := relation.New("A", "B", "C")
	for i := int32(0); i < 100; i++ {
		rel.Insert(relation.Tuple{i % 7, i % 5, i})
	}
	if _, err := rel.Grouping("A", "B"); err != nil {
		t.Fatal(err)
	}
	view := rel.View()
	ck := checkpointOf("d", view, nil)
	gen := view.Generation()
	wantRows := view.Rows()
	g, err := view.Grouping("A", "B")
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := slices.Clone(g.IDs)
	wantCols := make([][]int32, len(ck.Columns))
	for c, col := range ck.Columns {
		wantCols[c] = slices.Clone(col)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			if row := wantRows[k%len(wantRows)]; !view.Contains(row) || !slices.Equal(view.Row(k%len(wantRows)), row) {
				t.Errorf("view lost row %v during appends", row)
				return
			}
		}
	}()

	start := rel.Columns()
	next := int32(1000)
	fresh := func() relation.Tuple {
		next++
		return relation.Tuple{next % 7, next % 5, next}
	}
	for moved := false; !moved; {
		batch := make([]relation.Tuple, 40)
		for i := range batch {
			batch[i] = fresh()
		}
		if _, err := rel.Append(batch); err != nil {
			t.Fatal(err)
		}
		rel.Insert(fresh())
		rel.View() // rebuild the head the Insert invalidated, so Append extends again
		moved = true
		for c, col := range rel.Columns() {
			moved = moved && &col[0] != &start[c][0]
		}
	}
	close(stop)
	wg.Wait()

	if view.N() != len(wantRows) || view.Generation() != gen {
		t.Fatalf("view: %d rows at generation %d, want %d at %d", view.N(), view.Generation(), len(wantRows), gen)
	}
	for i, row := range view.Rows() {
		if !slices.Equal(row, wantRows[i]) {
			t.Fatalf("view row %d = %v, want %v", i, row, wantRows[i])
		}
	}
	if view.Contains(relation.Tuple{next % 7, next % 5, next}) {
		t.Fatal("view contains a row appended after it was taken")
	}
	if g, err := view.Grouping("A", "B"); err != nil || !slices.Equal(g.IDs, wantIDs) {
		t.Fatalf("view grouping IDs changed (err %v)", err)
	}
	if !reflect.DeepEqual(ck.Columns, wantCols) {
		t.Fatal("checkpoint columns changed after appends")
	}
}

// TestRecoveryRejectsCorruptCheckpoint: a checkpoint whose columns hold a
// duplicate row, or whose columns differ in length, fails recovery of its
// dataset with an error naming it — never a panic, never a silent dedupe —
// whether the dataset is recovered directly, eagerly at boot (a WAL tail is
// pending) or lazily on first touch.
func TestRecoveryRejectsCorruptCheckpoint(t *testing.T) {
	for _, ck := range []*persist.Checkpoint{
		{
			Name: "dup", Attrs: []string{"A", "B"}, Generation: 3,
			Dicts: [][]string{{"x", "y"}, {"u", "v"}}, Columns: [][]int32{{1, 2, 1}, {1, 1, 1}},
		},
		{
			Name: "ragged", Attrs: []string{"A", "B"}, Generation: 3,
			Dicts: [][]string{{"x", "y"}, {"u", "v"}}, Columns: [][]int32{{1, 2}, {1}},
		},
	} {
		named := func(how string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), strconv.Quote(ck.Name)) {
				t.Fatalf("%s recovery of %q: error %v, want one naming the dataset", how, ck.Name, err)
			}
		}
		_, _, err := datasetFromCheckpoint(ck)
		named("direct", err)

		for _, eager := range []bool{false, true} {
			dir := t.TempDir()
			store, err := persist.Open(dir, persist.Options{})
			if err != nil {
				t.Fatal(err)
			}
			ds, err := store.Dataset("default", ck.Name)
			if err != nil {
				t.Fatal(err)
			}
			if err := ds.WriteCheckpoint(ck); err != nil {
				t.Fatal(err)
			}
			if eager {
				if err := ds.AppendWAL(ck.Generation+1, [][]string{{"x", "v"}}); err != nil {
					t.Fatal(err)
				}
			}
			ds.Close()

			if store, err = persist.Open(dir, persist.Options{}); err != nil {
				t.Fatal(err)
			}
			s := New(16)
			recovered, err := s.EnableDurability(store)
			if eager {
				named("eager", err)
				continue
			}
			if err != nil || len(recovered) != 1 || !recovered[0].Lazy {
				t.Fatalf("lazy boot of %q: %+v, %v", ck.Name, recovered, err)
			}
			named("lazy", s.MaterializeAll())
		}
	}
}
