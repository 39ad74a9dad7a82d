package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// benchRows builds a deterministic 6-attribute instance with correlated
// columns, so the benchmark lattice has non-trivial refinements at every
// level (independent uniform columns would make every grouping collapse to
// row identity almost immediately).
func benchRows(n int) []Tuple {
	rng := rand.New(rand.NewSource(7))
	seen := make(map[[6]Value]bool)
	rows := make([]Tuple, 0, n)
	for len(rows) < n {
		a := Value(rng.Intn(16))
		b := Value(rng.Intn(16))
		var key [6]Value
		t := Tuple{a, b, (a + b) % 8, Value(rng.Intn(8)), a % 4, Value(rng.Intn(32))}
		copy(key[:], t)
		if seen[key] {
			continue
		}
		seen[key] = true
		rows = append(rows, t)
	}
	return rows
}

var benchAttrs = []string{"A", "B", "C", "D", "E", "F"}

// benchBatch is a batch of 10 lattice-overlapping queries: every one touches
// the {A}, {A,B} spine, so sharing refinements across the batch saves most
// of the work a cold sequential run repeats per query.
var benchBatch = []Query{
	{Kind: "entropy", Attrs: []string{"A", "B", "C"}},
	{Kind: "entropy", Attrs: []string{"A", "B", "D"}},
	{Kind: "entropy", Attrs: []string{"A", "B", "E"}},
	{Kind: "entropy", Attrs: []string{"A", "B", "C", "D"}},
	{Kind: "mi", A: []string{"A"}, B: []string{"B"}},
	{Kind: "cmi", A: []string{"C"}, B: []string{"D"}, Given: []string{"A", "B"}},
	{Kind: "cmi", A: []string{"C"}, B: []string{"E"}, Given: []string{"A", "B"}},
	{Kind: "fd", X: []string{"A", "B"}, Y: []string{"C"}},
	{Kind: "fd", X: []string{"A", "B"}, Y: []string{"E"}},
	{Kind: "distinct", Attrs: []string{"A", "B", "F"}},
}

// BenchmarkBatchAnalyze compares one batch of overlapping queries against
// the same queries issued sequentially cold (a fresh engine per query — what
// a per-request service without the snapshot layer would pay) and
// sequentially warm (one engine, queries one at a time: memo sharing without
// the planner's ordering and parallelism). Every variant starts from a cold
// engine per iteration so the numbers measure real partition work. Queries
// run as the service runs them (runBatch): the fd queries' groupings are
// planned, their g₃ scan is internal/fd's and not timed here.
func BenchmarkBatchAnalyze(b *testing.B) {
	rows := benchRows(20000)
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			snap := rowSnapshot(benchAttrs, rows)
			if _, err := runBatch(snap, benchBatch, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sequential-warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			snap := rowSnapshot(benchAttrs, rows)
			for _, q := range benchBatch {
				if _, err := runBatch(snap, []Query{q}, 1); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("sequential-cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, q := range benchBatch {
				snap := rowSnapshot(benchAttrs, rows)
				if _, err := runBatch(snap, []Query{q}, 1); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkSnapshotExtend measures the copy-on-write append path with a warm
// memo: each iteration extends a snapshot carrying the benchmark lattice by
// a 1% batch.
//
//   - chain: the path streaming appends take. Each iteration warms a fresh
//     snapshot untimed and times its one Extend, which hands every probe to
//     the child.
//   - reextend: extends one warm parent again and again, discarding each
//     child. After the first iteration the parent's probes are gone, so this
//     times the O(n)-per-set rebuild a second Extend of a snapshot pays.
//   - wide: chain's path on a memo of near-key sets, each of 10k groups or
//     more (wideRows): a batch touches few of their count chunks, so this
//     case shows what sharing the untouched ones saves.
func BenchmarkSnapshotExtend(b *testing.B) {
	all := benchRows(20200)
	base, fresh := all[:20000], all[20000:]
	warm := func(b *testing.B) *Snapshot {
		snap := rowSnapshot(benchAttrs, base)
		if _, err := runBatch(snap, benchBatch, 0); err != nil {
			b.Fatal(err)
		}
		return snap
	}
	b.Run("chain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			snap := warm(b)
			cols, n := growColumns(snap, fresh)
			runtime.GC() // keep the set-up's GC work out of the timed Extend
			b.StartTimer()
			snap.Extend(cols, n)
		}
	})
	b.Run("wide", func(b *testing.B) {
		all := wideRows(20200)
		base, fresh := all[:20000], all[20000:]
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			snap := rowSnapshot(wideAttrs, base)
			for _, set := range wideSets {
				if _, err := snap.GroupEntropy(set...); err != nil {
					b.Fatal(err)
				}
			}
			cols, n := growColumns(snap, fresh)
			runtime.GC()
			b.StartTimer()
			snap.Extend(cols, n)
		}
	})
	b.Run("reextend", func(b *testing.B) {
		snap := warm(b)
		cols, n := growColumns(snap, fresh)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Re-extending one parent discards each child — outside the
			// single-writer-chain contract, but safe here: one goroutine,
			// identical rows every iteration, and no reader ever sees a
			// child.
			snap.Extend(cols, n)
		}
	})
}

var (
	wideAttrs = []string{"A", "B", "C"}
	wideSets  = [][]string{{"A"}, {"B"}, {"C"}, {"A", "B"}}
)

// wideRows draws n distinct rows of three columns uniform over 16384 codes,
// so at n = 20000 each column has about 11.5k distinct values and {A,B} is a
// key: every set of wideSets groups into 10k groups or more, and about 70%
// of a batch's values land in existing groups of {A}, {B} and {C}.
func wideRows(n int) []Tuple {
	rng := rand.New(rand.NewSource(13))
	seen := make(map[[3]Value]bool)
	rows := make([]Tuple, 0, n)
	for len(rows) < n {
		t := [3]Value{Value(rng.Intn(16384)), Value(rng.Intn(16384)), Value(rng.Intn(16384))}
		if seen[t] {
			continue
		}
		seen[t] = true
		rows = append(rows, Tuple{t[0], t[1], t[2]})
	}
	return rows
}

// refineSink keeps BenchmarkRefineDense's result live.
var refineSink *Grouping

// BenchmarkRefineDense times one cold refinement of a 10k-row grouping by
// one column at the shapes fit's lattice produces (parent groups × dense
// probe width), and reports the cost per row. Rows are random, so every
// (parent group, value) pair occurs and the child has parents × width groups
// at most.
func BenchmarkRefineDense(b *testing.B) {
	const n = 10000
	for _, shape := range []struct{ parents, width int }{{125, 5}, {1296, 6}} {
		b.Run(fmt.Sprintf("%dx%d", shape.parents, shape.width), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			cols := [][]Value{make([]Value, n), make([]Value, n)}
			for i := 0; i < n; i++ {
				cols[0][i] = Value(rng.Intn(shape.parents))
				cols[1][i] = Value(rng.Intn(shape.width))
			}
			snap := NewSnapshotAt([]string{"P", "V"}, cols, n, 1)
			parent := snap.grouping([]int{0})
			if _, pr := snap.refine(parent, 1, true); pr.dense == nil {
				b.Fatalf("%d parents × width %d: want a dense probe", parent.Groups(), snap.probeWidth(1))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				refineSink, _ = snap.refine(parent, 1, true)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
		})
	}
}
