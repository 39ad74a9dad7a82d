package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestPlanPrefixClosure: adding one k-set must enqueue its whole sorted
// prefix chain, deduplicated across overlapping requests.
func TestPlanPrefixClosure(t *testing.T) {
	snap := rowSnapshot([]string{"A", "B", "C", "D"}, randRows(3, 50, 4, 4))
	p := snap.Plan()
	if err := p.AddEntropy("A", "B", "C"); err != nil {
		t.Fatal(err)
	}
	// {A,B,C} brings ∅, {A}, {A,B} along: 4 nodes.
	if p.Len() != 4 {
		t.Fatalf("plan has %d nodes, want 4", p.Len())
	}
	// Overlapping add shares the {A}, {A,B} prefixes: only {A,B,D} is new.
	if err := p.AddEntropy("A", "B", "D"); err != nil {
		t.Fatal(err)
	}
	if p.Len() != 5 {
		t.Fatalf("plan has %d nodes after overlapping add, want 5", p.Len())
	}
	if err := p.AddGrouping("Z"); err == nil {
		t.Fatal("unknown attribute accepted")
	}
	p.Run(0)
	// Everything the plan touched must now answer from the memo with values
	// identical to direct computation on a fresh snapshot.
	cold := rowSnapshot([]string{"A", "B", "C", "D"}, rowsOf(snap))
	for _, set := range [][]string{{"A", "B", "C"}, {"A", "B", "D"}, {"A", "B"}, {"A"}} {
		got, _ := snap.GroupEntropy(set...)
		want, _ := cold.GroupEntropy(set...)
		if got != want {
			t.Fatalf("H(%v) = %v, want %v", set, got, want)
		}
	}
}

// runBatch answers a batch the way the analysis service does: one plan of
// every query's lattice nodes (fd included), one parents-first run, then Eval
// for every query but fd, whose g₃ internal/fd computes. An fd query's slot
// is left zero.
func runBatch(snap *Snapshot, qs []Query, workers int) ([]Result, error) {
	p := snap.Plan()
	for i := range qs {
		if err := qs[i].AddToPlan(p); err != nil {
			return nil, fmt.Errorf("query %d: %w", i+1, err)
		}
	}
	p.Run(workers)
	out := make([]Result, len(qs))
	for i := range qs {
		if qs[i].Kind == "fd" {
			continue
		}
		var err error
		if out[i], err = qs[i].Eval(snap); err != nil {
			return nil, fmt.Errorf("query %d: %w", i+1, err)
		}
	}
	return out, nil
}

// TestRunBatch: every query kind the engine answers against direct
// single-query computation, the fd kind's plan coverage, and validation
// failures.
func TestRunBatch(t *testing.T) {
	attrs := []string{"A", "B", "C"}
	// B = A (an exact FD A→B); C is noisy.
	var rows []Tuple
	for i := 0; i < 40; i++ {
		rows = append(rows, Tuple{Value(i % 8), Value(i % 8), Value(i % 5)})
	}
	snap := rowSnapshot(attrs, dedup(rows))
	qs := []Query{
		{Kind: "entropy", Attrs: []string{"A"}},
		{Kind: "entropy", Attrs: []string{"A"}, Given: []string{"C"}},
		{Kind: "mi", A: []string{"A"}, B: []string{"B"}},
		{Kind: "cmi", A: []string{"A"}, B: []string{"C"}, Given: []string{"B"}},
		{Kind: "fd", X: []string{"A"}, Y: []string{"B"}},
		{Kind: "fd", X: []string{"C"}, Y: []string{"A"}},
		{Kind: "distinct", Attrs: []string{"A", "C"}},
	}
	res, err := runBatch(snap, qs, 0)
	if err != nil {
		t.Fatal(err)
	}
	hA, _ := snap.GroupEntropy("A")
	if res[0].Nats != hA {
		t.Fatalf("batch H(A) = %v, direct %v", res[0].Nats, hA)
	}
	hAC, _ := snap.GroupEntropy("A", "C")
	hC, _ := snap.GroupEntropy("C")
	if got, want := res[1].Nats, hAC-hC; math.Abs(got-want) > 1e-12 {
		t.Fatalf("batch H(A|C) = %v, direct %v", got, want)
	}
	// A determines B, so I(A;B) = H(A) = H(B).
	if math.Abs(res[2].Nats-hA) > 1e-12 {
		t.Fatalf("I(A;B) = %v, want H(A) = %v", res[2].Nats, hA)
	}
	gAC, _ := snap.Grouping("A", "C")
	if res[6].Distinct != gAC.Groups() {
		t.Fatalf("distinct(A,C) = %d, want %d", res[6].Distinct, gAC.Groups())
	}
	// The plan covered the fd queries' X and X∪Y groupings, but their
	// answers belong to internal/fd.
	for _, key := range []string{colsKey([]int{0}), colsKey([]int{0, 1}), colsKey([]int{2}), colsKey([]int{0, 2})} {
		if _, ok := snap.memo[key]; !ok {
			t.Fatalf("plan did not memoize the fd grouping %s", key)
		}
	}
	if _, err := qs[4].Eval(snap); err == nil || !strings.Contains(err.Error(), "internal/fd") {
		t.Fatalf("Eval(fd) = %v, want an error naming internal/fd", err)
	}

	for _, bad := range []Query{
		{Kind: "entropy"},
		{Kind: "mi", A: []string{"A"}},
		{Kind: "fd", X: []string{"A"}},
		{Kind: "nope", Attrs: []string{"A"}},
		{Kind: "entropy", Attrs: []string{"Z"}},
	} {
		if _, err := runBatch(snap, []Query{bad}, 0); err == nil {
			t.Fatalf("invalid query %+v accepted", bad)
		}
	}
}

func dedup(rows []Tuple) []Tuple {
	seen := make(map[string]bool)
	var out []Tuple
	for _, r := range rows {
		key := ""
		for _, v := range r {
			key += string(rune(v)) + ","
		}
		if !seen[key] {
			seen[key] = true
			out = append(out, r)
		}
	}
	return out
}

// TestConcurrentSnapshotReads: many goroutines lazily filling the same
// snapshot's memo while a writer extends the chain — run under -race in CI.
func TestConcurrentSnapshotReads(t *testing.T) {
	attrs := []string{"A", "B", "C", "D"}
	rows := randRows(4, 400, 4, 5)
	snap := rowSnapshot(attrs, rows[:200])
	sets := [][]string{{"A"}, {"B"}, {"C", "D"}, {"A", "B"}, {"A", "C"}, {"B", "C", "D"}, {"A", "B", "C", "D"}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		cur := snap
		for i := 200; i < 400; i += 50 {
			cur = extendRows(cur, rows[i:i+50])
			for _, set := range sets {
				if _, err := cur.GroupEntropy(set...); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	forEach(64, 8, func(i int) {
		set := sets[i%len(sets)]
		h1, err := snap.GroupEntropy(set...)
		if err != nil {
			t.Error(err)
			return
		}
		h2, _ := snap.GroupEntropy(set...)
		if h1 != h2 {
			t.Errorf("entropy of %v changed under a frozen snapshot: %v vs %v", set, h1, h2)
		}
		g, err := snap.Grouping(set...)
		if err != nil {
			t.Error(err)
			return
		}
		if len(g.IDs) != 200 {
			t.Errorf("grouping of %v covers %d rows, want 200", set, len(g.IDs))
		}
	})
	<-done
}

// TestLevelWorkersRowWork pins the fan-out rule: a level runs inline below
// parallelRows rows of work and on the requested pool at and above it.
func TestLevelWorkersRowWork(t *testing.T) {
	for _, c := range []struct{ work, workers, want int }{
		{0, 0, 1},
		{parallelRows - 1, 0, 1},
		{parallelRows - 1, 8, 1},
		{parallelRows, 0, 0},
		{parallelRows, 8, 8},
		{parallelRows + 1, 4, 4},
	} {
		if got := levelWorkers(c.work, c.workers); got != c.want {
			t.Errorf("levelWorkers(%d, %d) = %d, want %d", c.work, c.workers, got, c.want)
		}
	}
}

// TestPlanPendingWork checks what a plan level counts as work: every row of
// a grouping the memo lacks, the group count of a memoized grouping whose
// entropy is still missing, and nothing for a node the memo answers, which
// the level then skips.
func TestPlanPendingWork(t *testing.T) {
	snap := rowSnapshot([]string{"A", "B", "C", "D"}, randRows(3, 200, 4, 4))
	level := func(entropyA bool) []*planNode {
		p := snap.Plan()
		add := p.AddGrouping
		if entropyA {
			add = p.AddEntropy
		}
		if err := add("A"); err != nil {
			t.Fatal(err)
		}
		if err := p.AddGrouping("B"); err != nil {
			t.Fatal(err)
		}
		var out []*planNode
		for _, n := range p.nodes {
			if len(n.cols) == 1 {
				out = append(out, n)
			}
		}
		return out
	}
	check := func(label string, entropyA bool, wantNodes, wantWork int) {
		t.Helper()
		nodes, work := snap.pending(level(entropyA))
		if len(nodes) != wantNodes || work != wantWork {
			t.Fatalf("%s: %d nodes, work %d; want %d nodes, work %d", label, len(nodes), work, wantNodes, wantWork)
		}
	}
	rows := snap.NumRows()
	check("cold", true, 2, 2*rows)
	g, err := snap.Grouping("A")
	if err != nil {
		t.Fatal(err)
	}
	check("A grouped, entropy missing", true, 2, g.Groups()+rows)
	check("A grouped, no entropy asked", false, 1, rows)
	if _, err := snap.GroupEntropy("A"); err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Grouping("B"); err != nil {
		t.Fatal(err)
	}
	check("all memoized", true, 0, 0)
}
