package service

import (
	"math"
	"sync"
	"testing"
)

// TestBatchMatchesSingles: every batch result must equal the corresponding
// single-query endpoint's answer (the batch shares lattice work but must not
// change any value), and the whole batch must echo one generation.
func TestBatchMatchesSingles(t *testing.T) {
	s := newTestService(t, 16)
	qs := []BatchQuery{
		{Kind: "entropy", Attrs: []string{"A"}},
		{Kind: "entropy", Attrs: []string{"A", "B"}, Given: []string{"C"}},
		{Kind: "conditional_entropy", Attrs: []string{"B"}, Given: []string{"C"}},
		{Kind: "mi", A: []string{"A"}, B: []string{"B"}},
		{Kind: "cmi", A: []string{"A"}, B: []string{"B"}, Given: []string{"C"}},
		{Kind: "fd", X: []string{"C"}, Y: []string{"A"}},
		{Kind: "distinct", Attrs: []string{"A", "B", "C"}},
	}
	bv, err := s.BatchIn("default", "block", qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(bv.Results) != len(qs) {
		t.Fatalf("%d results for %d queries", len(bv.Results), len(qs))
	}
	if bv.Generation != 1 || bv.Rows != 12 {
		t.Fatalf("batch against gen %d, %d rows; want 1, 12", bv.Generation, bv.Rows)
	}
	// Entropy-family answers vs the single-query endpoint.
	singles := []struct {
		i              int
		attrs, a, b, g []string
	}{
		{0, []string{"A"}, nil, nil, nil},
		{1, []string{"A", "B"}, nil, nil, []string{"C"}},
		{2, []string{"B"}, nil, nil, []string{"C"}},
		{3, nil, []string{"A"}, []string{"B"}, nil},
		{4, nil, []string{"A"}, []string{"B"}, []string{"C"}},
	}
	for _, c := range singles {
		ev, err := s.EntropyIn("default", "block", c.attrs, c.a, c.b, c.g)
		if err != nil {
			t.Fatal(err)
		}
		got := bv.Results[c.i].Nats
		if got == nil || math.Abs(*got-ev.Nats) > 1e-12 {
			t.Fatalf("result %d = %v, single endpoint %v", c.i, got, ev.Nats)
		}
	}
	// C ↠ A|B is an MVD, not an FD: C does not determine A in the block
	// instance (each class has 2 A-values).
	if r := bv.Results[5]; r.Holds == nil || *r.Holds || r.G3 == nil || *r.G3 <= 0 {
		t.Fatalf("fd C→A result = %+v, want holds=false with positive g3", r)
	}
	// All 12 rows are distinct on the full schema.
	if r := bv.Results[6]; r.Distinct == nil || *r.Distinct != 12 {
		t.Fatalf("distinct(A,B,C) = %+v, want 12", r.Distinct)
	}

	// A repeated identical batch is served from the LRU.
	before := s.Stats()
	if _, err := s.BatchIn("default", "block", qs); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.CacheHits != before.CacheHits+1 || after.Computed != before.Computed {
		t.Fatalf("repeat batch not cached: before %+v after %+v", before, after)
	}
	if after.Batches != 2 {
		t.Fatalf("batches counter = %d, want 2", after.Batches)
	}
}

// TestBatchErrors: validation failures surface as errors (and are counted),
// never as half-answered batches.
func TestBatchErrors(t *testing.T) {
	s := newTestService(t, 16)
	cases := [][]BatchQuery{
		nil,
		{{Kind: "entropy"}},
		{{Kind: "mi", A: []string{"A"}}},
		{{Kind: "fd", X: []string{"A"}}},
		{{Kind: "warp", Attrs: []string{"A"}}},
		{{Kind: "entropy", Attrs: []string{"nope"}}},
	}
	for i, qs := range cases {
		if _, err := s.BatchIn("default", "block", qs); err == nil {
			t.Fatalf("case %d: invalid batch accepted", i)
		}
	}
	if _, err := s.BatchIn("default", "missing", []BatchQuery{{Kind: "entropy", Attrs: []string{"A"}}}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

// TestBatchReadsDuringAppends is the PR's -race acceptance scenario: writers
// stream appends while readers hammer /batch-equivalent queries. The read
// path takes zero lock acquisitions — each batch grabs the current frozen
// view with one atomic load and computes entirely against that snapshot — so
// the only thing to verify is *consistency*: every response must be
// internally coherent for the one generation it echoes, old snapshots
// included. The block dataset keeps full-schema rows distinct, giving two
// strong invariants per response: distinct(A,B,C) == rows and
// H(A,B,C) == ln(rows) exactly (up to float), whatever generation the batch
// landed on.
func TestBatchReadsDuringAppends(t *testing.T) {
	s := newTestService(t, 32)
	const (
		writers     = 2
		appendsEach = 20
		batchSize   = 5
		readers     = 4
	)
	qs := []BatchQuery{
		{Kind: "distinct", Attrs: []string{"A", "B", "C"}},
		{Kind: "entropy", Attrs: []string{"A", "B", "C"}},
		{Kind: "mi", A: []string{"A"}, B: []string{"C"}},
		{Kind: "fd", X: []string{"A", "B", "C"}, Y: []string{"A"}},
	}
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				bv, err := s.BatchIn("default", "block", qs)
				if err != nil {
					t.Error(err)
					return
				}
				if d := bv.Results[0].Distinct; d == nil || *d != bv.Rows {
					t.Errorf("gen %d: distinct %v != rows %d (response mixes generations)", bv.Generation, d, bv.Rows)
					return
				}
				h := bv.Results[1].Nats
				if h == nil || math.Abs(*h-math.Log(float64(bv.Rows))) > 1e-9 {
					t.Errorf("gen %d: H(full) = %v, want ln(%d)", bv.Generation, h, bv.Rows)
					return
				}
				if holds := bv.Results[3].Holds; holds == nil || !*holds {
					t.Errorf("gen %d: full-schema superkey FD reported false", bv.Generation)
					return
				}
			}
		}()
	}
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < appendsEach; i++ {
				start := 1000 + (w*appendsEach+i)*batchSize
				if _, err := s.AppendIn("default", "block", appendRecords(start, batchSize), false); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()

	// After the dust settles: final generation saw every append batch.
	d, _ := s.Registry().GetIn("default", "block")
	wantRows := 12 + writers*appendsEach*batchSize
	if v := d.View(); v.N() != wantRows {
		t.Fatalf("final rows = %d, want %d", v.N(), wantRows)
	}
	bv, err := s.BatchIn("default", "block", qs)
	if err != nil {
		t.Fatal(err)
	}
	if bv.Rows != wantRows || *bv.Results[0].Distinct != wantRows {
		t.Fatalf("final batch: rows %d distinct %v, want %d", bv.Rows, *bv.Results[0].Distinct, wantRows)
	}
}

// TestViewFrozenAcrossAppend: a view grabbed before an append keeps
// answering at its own generation afterwards — the service-level statement
// of snapshot immutability.
func TestViewFrozenAcrossAppend(t *testing.T) {
	s := newTestService(t, 16)
	d, _ := s.Registry().GetIn("default", "block")
	old := d.View()
	if old.Generation() != 1 || old.N() != 12 {
		t.Fatalf("fresh view: gen %d rows %d", old.Generation(), old.N())
	}
	hOld, err := old.GroupEntropy("A", "B", "C")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendIn("default", "block", appendRecords(5000, 7), false); err != nil {
		t.Fatal(err)
	}
	if old.Generation() != 1 || old.N() != 12 {
		t.Fatalf("old view changed after append: gen %d rows %d", old.Generation(), old.N())
	}
	if h, _ := old.GroupEntropy("A", "B", "C"); h != hOld {
		t.Fatalf("old view entropy drifted: %v vs %v", h, hOld)
	}
	cur := d.View()
	if cur.Generation() != 2 || cur.N() != 19 {
		t.Fatalf("new view: gen %d rows %d, want 2, 19", cur.Generation(), cur.N())
	}
	if h, _ := cur.GroupEntropy("A", "B", "C"); h == hOld {
		t.Fatal("new view answered with the old generation's entropy")
	}
}
