package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"ajdloss/internal/infotheory"
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
	attrs := []string{"A", "B", "C", "D"}
	all := randRows(7, 73000, 4, 64)
	rows, fresh := all[:40000], all[40000:]
	sets := [][]string{{"A"}, {"A", "B"}, {"B", "C", "D"}, {"A", "B", "C", "D"}}
	// The plan's levels 1–3 and the Extend's hold two sets each; both must
	// reach the fan-out size, or the pool goes untested.
	if 2*len(rows) < parallelRows || 2*len(fresh) < parallelRows {
		t.Fatalf("%d rows and %d appended rows do not reach parallelRows = %d", len(rows), len(fresh), parallelRows)
	}
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
		s2 := extendRows(s, fresh)
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

// kernelSets are the attribute sets TestQuickRefineKernelParity checks; the
// first four are warmed before each Extend, the rest are first refined on
// the extended snapshot.
var kernelSets = [][]string{{"A"}, {"A", "B"}, {"B", "C", "D"}, {"A", "B", "C", "D"}, {"B"}, {"C", "D"}, {"A", "C"}, {"A", "B", "C"}}

// oracleGrouping groups the first n rows of cols by the columns of attrs
// (in any order) with a map keyed by the rows' values: ids in order of first
// occurrence, counts summing weights (1 per row when weights is nil). A set
// has at most four columns.
func oracleGrouping(attrs []string, cols [][]Value, n int, weights []int64, set []string) *Grouping {
	var pos []int
	for c, a := range attrs {
		for _, b := range set {
			if a == b {
				pos = append(pos, c)
			}
		}
	}
	seen := make(map[[4]Value]int32)
	g := &Grouping{IDs: make([]int32, n)}
	var counts []int
	for i := 0; i < n; i++ {
		var key [4]Value
		for k, c := range pos {
			key[k] = cols[c][i]
		}
		id, ok := seen[key]
		if !ok {
			id = int32(len(counts))
			seen[key] = id
			counts = append(counts, 0)
		}
		g.IDs[i] = id
		if weights == nil {
			counts[id]++
		} else {
			counts[id] += int(weights[i])
		}
	}
	g.Counts = countsOf(counts)
	return g
}

// kernelRows draws up to n distinct rows over four columns. Column c takes
// values in [lo[c], lo[c]+dom[c]); a zero lo puts 0 in the domain, a
// negative one forces map probes.
func kernelRows(rng *rand.Rand, n int, lo, dom []Value, seen map[[4]Value]bool) []Tuple {
	var rows []Tuple
	for try := 0; try < 4*n && len(rows) < n; try++ {
		var k [4]Value
		for c := range k {
			k[c] = lo[c] + Value(rng.Intn(int(dom[c])))
		}
		if seen[k] {
			continue
		}
		seen[k] = true
		rows = append(rows, Tuple(k[:]))
	}
	return rows
}

// probeForms tallies the probe representations the memo of s holds.
type probeForms struct{ dense, denseOverflow, budgetMap, negativeMap int }

func (f *probeForms) add(s *Snapshot) {
	for _, ent := range s.memo {
		pr := ent.next.Load()
		switch {
		case pr == nil:
		case pr.dense != nil && len(pr.m) > 0:
			f.denseOverflow++
		case pr.dense != nil:
			f.dense++
		case s.probeWidth(ent.cols[len(ent.cols)-1]) == 0:
			f.negativeMap++
		default:
			f.budgetMap++
		}
	}
}

// TestQuickRefineKernelParity holds refinement to a naive first-occurrence
// oracle on random snapshots whose domains include 0, whose parent-group
// counts fall on both sides of denseProbeBudget, some with negative values
// (map probes) and some weighted: the same ids, counts and entropies. It
// then extends twice, with values beyond the dense width and fresh parent
// groups (overflow entries of a handed-down probe), and extends the first
// snapshot again after its child took its probes (rebuildProbe), comparing
// each result with a cold snapshot of the same rows.
func TestQuickRefineKernelParity(t *testing.T) {
	attrs := []string{"A", "B", "C", "D"}
	var forms probeForms
	check := func(label string, s *Snapshot) bool {
		cols := s.Columns()
		for _, set := range kernelSets {
			got, err := s.Grouping(set...)
			if err != nil {
				t.Fatal(err)
			}
			want := oracleGrouping(attrs, cols, s.NumRows(), s.weights, set)
			h, err := s.GroupEntropy(set...)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.IDs, want.IDs) || !slices.Equal(got.Counts.Flatten(), want.Counts.Flatten()) {
				t.Logf("%s %v: ids/counts %v %v, oracle %v %v", label, set, got.IDs, got.Counts.Flatten(), want.IDs, want.Counts.Flatten())
				return false
			}
			if wantH := infotheory.EntropyFromCounts(want.Counts.Flatten(), s.N()); h != wantH {
				t.Logf("%s %v: entropy %v, oracle %v", label, set, h, wantH)
				return false
			}
		}
		forms.add(s)
		return true
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lo, dom := make([]Value, 4), make([]Value, 4)
		for c := range dom {
			dom[c] = []Value{1, 2, 3, 5, 40, 250}[rng.Intn(6)]
			if rng.Intn(5) == 0 {
				lo[c] = -2
			}
		}
		seen := make(map[[4]Value]bool)
		base := kernelRows(rng, 50+rng.Intn(350), lo, dom, seen)
		if len(base) == 0 {
			return true
		}
		cols := columnsOf(4, base)
		weights := make([]int64, len(base))
		total := 0
		for i := range weights {
			weights[i] = 1 + rng.Int63n(5)
			total += int(weights[i])
		}
		if !check("weighted", NewWeightedSnapshot(attrs, cols, weights, total)) {
			return false
		}
		s0 := rowSnapshot(attrs, base)
		if !check("cold", s0) {
			return false
		}
		// Appended rows reach past the base domain: values beyond the dense
		// width and parent groups the probes were not sized for.
		wide := make([]Value, 4)
		for c := range wide {
			wide[c] = dom[c] + 3
		}
		ext1 := kernelRows(rng, 1+rng.Intn(60), lo, wide, seen)
		ext2 := kernelRows(rng, 1+rng.Intn(60), lo, wide, seen)
		alt := kernelRows(rng, 1+rng.Intn(60), lo, wide, seen)
		// A fresh snapshot with only the first four sets warmed: those are
		// extended, the rest are first refined on the extended snapshots.
		s0 = rowSnapshot(attrs, base)
		for _, set := range kernelSets[:4] {
			if _, err := s0.Grouping(set...); err != nil {
				t.Fatal(err)
			}
		}
		// Each extension is checked before the next: re-extending s0 drops
		// s1 and s2, whose id slices share s0's headroom.
		s1 := extendRows(s0, ext1)
		for _, step := range []struct {
			label  string
			extend func() *Snapshot
		}{
			{"extend", func() *Snapshot { return s1 }},
			{"extend twice", func() *Snapshot { return extendRows(s1, ext2) }},
			// s1 took s0's probes, so extending s0 again rebuilds them.
			{"re-extend", func() *Snapshot { return extendRows(s0, alt) }},
		} {
			ext := step.extend()
			if !check(step.label, ext) {
				return false
			}
			cold := NewSnapshotAt(attrs, ext.Columns(), ext.NumRows(), 1)
			for _, set := range kernelSets {
				got, _ := ext.Grouping(set...)
				want, _ := cold.Grouping(set...)
				sameGrouping(t, fmt.Sprintf("%s %v vs cold", step.label, set), got, want)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
	if forms.dense == 0 || forms.denseOverflow == 0 || forms.budgetMap == 0 || forms.negativeMap == 0 {
		t.Fatalf("probe forms not all covered: %+v", forms)
	}
	t.Logf("probe forms: %+v", forms)
}
