package relation

import (
	"math/rand"
	"runtime"
	"testing"
)

// Append-vs-rebuild benchmarks: the case for incremental group-index
// maintenance. Both benchmarks end in the same state — a relation of
// base+batch rows with every workload entropy answered — but the
// incremental path extends a warm engine (O(batch) probes plus an O(groups)
// counts copy and entropy refresh per memoized set) while the rebuild path
// re-ingests all rows and re-refines every partition from scratch
// (O(n × queried sets)).
// The ratio is the serving-capacity win of absorbing a streaming batch
// without a cold engine; EXPERIMENTS.md records the measured numbers.

const (
	benchAppendBaseN = 10000
	benchAppendArity = 5
	benchAppendDom   = 12
)

// benchAppendWorkload is the query mix kept warm across batches: every
// singleton and every pair — the shapes entropy/MI/discovery traffic issues.
func benchAppendWorkload(attrs []string) [][]string {
	var w [][]string
	for i, a := range attrs {
		w = append(w, []string{a})
		for _, b := range attrs[i+1:] {
			w = append(w, []string{a, b})
		}
	}
	return w
}

func benchAppendAttrs() []string { return []string{"A", "B", "C", "D", "E"} }

var benchAppendSink float64

func benchAppendQuery(b *testing.B, r *Relation, workload [][]string) {
	b.Helper()
	for _, w := range workload {
		h, err := r.GroupEntropy(w...)
		if err != nil {
			b.Fatal(err)
		}
		benchAppendSink += h
	}
}

// BenchmarkAppendBatchIncremental: absorb a 1% batch into a warm engine and
// re-answer the whole workload.
func BenchmarkAppendBatchIncremental(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	base := randomRows(rng, benchAppendBaseN, benchAppendArity, benchAppendDom)
	batch := randomRows(rng, benchAppendBaseN/100, benchAppendArity, benchAppendDom)
	workload := benchAppendWorkload(benchAppendAttrs())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := FromRows(benchAppendAttrs(), base)
		benchAppendQuery(b, r, workload) // warm the memo, untimed
		// Finish the set-up's garbage collection before timing: otherwise GC
		// work it started runs during the timed append and moves ns/op by
		// 1.5–3× between identical binaries.
		runtime.GC()
		b.StartTimer()
		if _, err := r.Append(batch); err != nil {
			b.Fatal(err)
		}
		benchAppendQuery(b, r, workload)
	}
}

// BenchmarkAppendBatchRebuild: the pre-streaming alternative — re-ingest
// base+batch into a cold relation and answer the workload from scratch.
func BenchmarkAppendBatchRebuild(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	base := randomRows(rng, benchAppendBaseN, benchAppendArity, benchAppendDom)
	batch := randomRows(rng, benchAppendBaseN/100, benchAppendArity, benchAppendDom)
	all := append(append([]Tuple{}, base...), batch...)
	workload := benchAppendWorkload(benchAppendAttrs())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := FromRows(benchAppendAttrs(), all)
		benchAppendQuery(b, r, workload)
	}
}
