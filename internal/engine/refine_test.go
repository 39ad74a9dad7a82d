package engine

import (
	"runtime"
	"testing"
)

// bigRows returns n unique rows over four attributes (domain^arity must
// exceed n for the dedup in randRows to terminate).
func bigRows(n int) ([]string, []Tuple) {
	return []string{"A", "B", "C", "D"}, randRows(7, n, 4, 16)
}

// TestRefineMapProbe forces the map-probe form (a negative value makes
// probeWidth return 0) and checks it groups exactly as the dense form does
// on the same rows shifted into non-negative values: group ids depend only
// on value equality and row order, never on the probe representation.
func TestRefineMapProbe(t *testing.T) {
	attrs, rows := bigRows(9000)
	shifted := make([]Tuple, len(rows))
	for i, r := range rows {
		shifted[i] = Tuple{r[0] + 3, r[1], r[2], r[3]}
		rows[i] = Tuple{r[0] - 3, r[1], r[2], r[3]}
	}
	m, d := rowSnapshot(attrs, rows), rowSnapshot(attrs, shifted)
	if m.probeWidth(0) != 0 || d.probeWidth(0) == 0 {
		t.Fatalf("probe widths %d, %d: want map form then dense form", m.probeWidth(0), d.probeWidth(0))
	}
	for _, set := range [][]string{{"A"}, {"A", "B"}, {"A", "C", "D"}} {
		got, err := m.Grouping(set...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := d.Grouping(set...)
		if err != nil {
			t.Fatal(err)
		}
		sameGrouping(t, "map-probe", got, want)
	}
}

// TestRefineDeterministicAcrossGOMAXPROCS builds the same groupings and
// entropies at GOMAXPROCS 1, 2 and 8 through the public API (plan levels
// and Extend levels run on the worker pool) and requires bit-identical ids
// and entropies everywhere. This is the determinism
// guarantee the daemon's -procs flag documents: worker count bounds CPU,
// never results.
func TestRefineDeterministicAcrossGOMAXPROCS(t *testing.T) {
	attrs, rows := bigRows(10000)
	sets := [][]string{{"A"}, {"A", "B"}, {"B", "C", "D"}, {"A", "B", "C", "D"}}
	type outcome struct {
		ids [][]int32
		ent []float64
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var baseline *outcome
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		s := rowSnapshot(attrs, rows)
		// Warm the sets through one plan and extend past the cold build, so
		// the incremental path is covered at every parallelism too.
		p := s.Plan()
		for _, set := range sets {
			if err := p.AddEntropy(set...); err != nil {
				t.Fatal(err)
			}
		}
		p.Run(0)
		s2 := s
		s2 = extendRows(s2, randRows(99, 300, 4, 16))
		got := &outcome{}
		for _, set := range sets {
			g, err := s2.Grouping(set...)
			if err != nil {
				t.Fatal(err)
			}
			h, err := s2.GroupEntropy(set...)
			if err != nil {
				t.Fatal(err)
			}
			got.ids = append(got.ids, g.IDs)
			got.ent = append(got.ent, h)
		}
		if baseline == nil {
			baseline = got
			continue
		}
		for k := range sets {
			if got.ent[k] != baseline.ent[k] {
				t.Fatalf("GOMAXPROCS=%d: entropy %v = %v, want %v", procs, sets[k], got.ent[k], baseline.ent[k])
			}
			for i := range got.ids[k] {
				if got.ids[k][i] != baseline.ids[k][i] {
					t.Fatalf("GOMAXPROCS=%d: %v id[%d] = %d, want %d", procs, sets[k], i, got.ids[k][i], baseline.ids[k][i])
				}
			}
		}
	}
}

// TestSetMaxProcsCap checks the -procs plumbing: the cap bounds maxWorkers,
// zero restores the GOMAXPROCS default, and a capped engine still produces
// the baseline ids.
func TestSetMaxProcsCap(t *testing.T) {
	defer SetMaxProcs(0)
	SetMaxProcs(1)
	if got := maxWorkers(8); got != 1 {
		t.Fatalf("maxWorkers(8) under cap 1 = %d", got)
	}
	SetMaxProcs(0)
	if got := maxWorkers(3); got != 3 {
		t.Fatalf("maxWorkers(3) uncapped = %d", got)
	}
	if got := maxWorkers(-5); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("maxWorkers(-5) = %d, want GOMAXPROCS", got)
	}
	SetMaxProcs(-2) // negative treated as "restore default"
	if got := maxWorkers(4); got != 4 {
		t.Fatalf("maxWorkers(4) after SetMaxProcs(-2) = %d", got)
	}

	attrs, rows := bigRows(9000)
	want := rowSnapshot(attrs, rows)
	wantG, err := want.Grouping("A", "B", "C")
	if err != nil {
		t.Fatal(err)
	}
	SetMaxProcs(2)
	capped := rowSnapshot(attrs, rows)
	gotG, err := capped.Grouping("A", "B", "C")
	if err != nil {
		t.Fatal(err)
	}
	sameGrouping(t, "capped", gotG, wantG)
}
