package service

import (
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// appendRecords builds b brand-new rows (disjoint from blockCSV's values) so
// a batch of size b is guaranteed to add exactly b rows.
func appendRecords(start, b int) [][]string {
	recs := make([][]string, b)
	for i := 0; i < b; i++ {
		v := start + i
		recs[i] = []string{fmt.Sprintf("n%d", v), fmt.Sprintf("m%d", v), fmt.Sprintf("k%d", v)}
	}
	return recs
}

func TestServiceAppend(t *testing.T) {
	s := newTestService(t, 16)
	d, _ := s.Registry().GetIn("default", "block")
	if g := d.Generation(); g != 1 {
		t.Fatalf("fresh dataset generation = %d, want 1", g)
	}

	before, err := s.EntropyIn("default", "block", []string{"A"}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if before.Generation != 1 || before.Rows != 12 {
		t.Fatalf("pre-append entropy view: %+v", before)
	}

	// A batch with one duplicate of an existing row and two new rows.
	v, err := s.AppendIn("default", "block", [][]string{{"11", "101", "1"}, {"77", "88", "9"}, {"78", "88", "9"}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if v.Appended != 2 || v.Duplicates != 1 || v.Rows != 14 || v.Generation != 2 {
		t.Fatalf("append view: %+v", v)
	}

	// The post-append answer must equal a cold service over the concatenated
	// data — the memoized engine absorbed the rows, it did not go stale.
	after, err := s.EntropyIn("default", "block", []string{"A"}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if after.Generation != 2 || after.Rows != 14 {
		t.Fatalf("post-append entropy view: %+v", after)
	}
	cold := New(16)
	if _, err := cold.Registry().RegisterIn("default", "block", strings.NewReader(blockCSV(3, 2, 2)+"77,88,9\n78,88,9\n"), true); err != nil {
		t.Fatal(err)
	}
	want, err := cold.EntropyIn("default", "block", []string{"A"}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if after.Nats != want.Nats {
		t.Fatalf("post-append H(A) = %v, cold rebuild %v", after.Nats, want.Nats)
	}

	// Re-sending the same batch is idempotent: nothing added, generation
	// stays, so cached generation-2 results remain valid (and are kept).
	v2, err := s.AppendIn("default", "block", [][]string{{"77", "88", "9"}, {"78", "88", "9"}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Appended != 0 || v2.Duplicates != 2 || v2.Generation != 2 {
		t.Fatalf("idempotent re-append: %+v", v2)
	}

	// header=1: a matching header row is skipped, a mismatched one rejects
	// the batch, as does a ragged record — all without partial application.
	if v, err := s.AppendIn("default", "block", [][]string{{"A", "B", "C"}, {"90", "90", "90"}}, true); err != nil || v.Appended != 1 {
		t.Fatalf("append with header: %+v, %v", v, err)
	}
	if _, err := s.AppendIn("default", "block", [][]string{{"X", "Y", "Z"}, {"91", "91", "91"}}, true); err == nil {
		t.Fatal("mismatched header accepted")
	}
	if _, err := s.AppendIn("default", "block", [][]string{{"92", "92", "92"}, {"93", "93"}}, false); err == nil {
		t.Fatal("ragged append row accepted")
	}
	d, _ = s.Registry().GetIn("default", "block")
	if got := d.Rel.N(); got != 15 {
		t.Fatalf("rows after rejected batches = %d, want 15", got)
	}
	if _, err := s.AppendIn("default", "nope", [][]string{{"1", "2", "3"}}, false); err == nil {
		t.Fatal("append to unknown dataset accepted")
	}

	// Every append attempt — accepted or failed — is visible in Stats, and
	// failures land in the errors counter too, so errors can never
	// outnumber the traffic that produced them.
	st := s.Stats()
	if st.Appends != 6 {
		t.Fatalf("appends counter = %d, want 6 attempts: %+v", st.Appends, st)
	}
	if st.Errors != 3 {
		t.Fatalf("errors = %d, want 3 failed appends: %+v", st.Errors, st)
	}
}

// TestStatsAcrossAppends is the regression for the immutable-dataset cache
// keys: before generations, a cached pre-append result would be served (a
// bogus "hit") after the dataset changed. Now an append must turn the next
// identical request into a miss + recompute, and hits must only ever pair
// requests within one generation.
func TestStatsAcrossAppends(t *testing.T) {
	s := newTestService(t, 16)
	query := func() *EntropyView {
		t.Helper()
		v, err := s.EntropyIn("default", "block", []string{"A", "B"}, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	query() // cold: computed
	st1 := s.Stats()
	v := query() // warm: hit
	st2 := s.Stats()
	if st2.CacheHits != st1.CacheHits+1 || st2.Computed != st1.Computed {
		t.Fatalf("repeat within a generation not a hit: %+v -> %+v", st1, st2)
	}
	if v.Generation != 1 {
		t.Fatalf("generation = %d, want 1", v.Generation)
	}

	if _, err := s.AppendIn("default", "block", appendRecords(0, 3), false); err != nil {
		t.Fatal(err)
	}
	st3 := s.Stats()
	if st3.Appends != 1 {
		t.Fatalf("appends counter: %+v", st3)
	}
	if s.cache.Len() != 0 {
		t.Fatalf("stale generation-1 results still cached: %d entries", s.cache.Len())
	}

	v = query() // same query, new generation: must recompute, not hit
	st4 := s.Stats()
	if st4.CacheHits != st3.CacheHits || st4.Computed != st3.Computed+1 {
		t.Fatalf("post-append request served stale cache: %+v -> %+v", st3, st4)
	}
	if v.Generation != 2 || v.Rows != 15 {
		t.Fatalf("post-append view: %+v", v)
	}

	v = query() // warm again within generation 2
	st5 := s.Stats()
	if st5.CacheHits != st4.CacheHits+1 || st5.Computed != st4.Computed {
		t.Fatalf("generation-2 repeat not a hit: %+v -> %+v", st4, st5)
	}
	// Global accounting still balances: every request is a hit, a coalesce,
	// or a computation (no leak introduced by the append path).
	if st5.Requests != st5.CacheHits+st5.Coalesced+st5.Computed {
		t.Fatalf("accounting leak: %+v", st5)
	}
}

// TestAppendGenerationRace is the -race acceptance scenario for streaming
// appends: sustained concurrent /analyze and /entropy load while append
// batches land must never produce a response pairing one generation's label
// with another generation's data. Batch sizes are brand-new rows, so the
// rows-at-generation function is known exactly: rows(g) = 12 + 4·(g−1).
func TestAppendGenerationRace(t *testing.T) {
	srv := httpFixture(t)
	if code, body := doReq(t, "POST", srv.URL+"/datasets?name=block", blockCSV(3, 2, 2)); code != http.StatusCreated {
		t.Fatalf("register: %d %v", code, body)
	}
	const batches = 12
	const batchSize = 4
	rowsAt := func(gen int64) int { return 12 + batchSize*(int(gen)-1) }

	var wg sync.WaitGroup
	stop := make(chan struct{})
	check := func(rows, gen float64, kind string, body map[string]any) {
		if int(rows) != rowsAt(int64(gen)) {
			t.Errorf("%s mixed generations: generation %v with %v rows (want %d): %v",
				kind, gen, rows, rowsAt(int64(gen)), body)
		}
	}
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if (g+i)%2 == 0 {
					code, body := doReq(t, "GET", srv.URL+"/entropy?dataset=block&attrs=A,B", "")
					if code != 200 {
						t.Errorf("entropy: %d %v", code, body)
						return
					}
					check(body["rows"].(float64), body["generation"].(float64), "entropy", body)
				} else {
					code, body := doReq(t, "GET", srv.URL+"/analyze?dataset=block&schema=A,C|B,C", "")
					if code != 200 {
						t.Errorf("analyze: %d %v", code, body)
						return
					}
					check(body["n"].(float64), body["generation"].(float64), "analyze", body)
				}
			}
		}(g)
	}
	// Serial appender: each batch is guaranteed-new rows, so the generation
	// and row count advance in lockstep.
	for b := 0; b < batches; b++ {
		var rows strings.Builder
		for i := 0; i < batchSize; i++ {
			fmt.Fprintf(&rows, "x%d,y%d,z%d\n", b*batchSize+i, b*batchSize+i, b)
		}
		code, body := doReq(t, "POST", srv.URL+"/datasets/block/append", rows.String())
		if code != 200 {
			t.Fatalf("append batch %d: %d %v", b, code, body)
		}
		if got, want := body["rows"].(float64), float64(rowsAt(int64(body["generation"].(float64)))); got != want {
			t.Fatalf("append view inconsistent: %v", body)
		}
	}
	close(stop)
	wg.Wait()

	code, body := doReq(t, "GET", srv.URL+"/entropy?dataset=block&attrs=A,B", "")
	if code != 200 || body["generation"].(float64) != float64(batches+1) || body["rows"].(float64) != float64(rowsAt(batches+1)) {
		t.Fatalf("final state: %d %v", code, body)
	}
}

// TestAppendRegisterRace: malformed appends racing the first registration of
// their namespace. An append may find no namespace and then, a moment later,
// the freshly registered dataset; its failure must still be counted, against
// the dataset's namespace, without a nil dereference. Every attempt counts
// exactly once, as an append and as an error.
func TestAppendRegisterRace(t *testing.T) {
	s := New(0)
	const namespaces = 200
	var attempts atomic.Int64
	for i := 0; i < namespaces; i++ {
		ns := fmt.Sprintf("t%d", i)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, err := s.Registry().RegisterIn(ns, "d", strings.NewReader(blockCSV(1, 1, 1)), true); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			// Wrong-arity batches until one reaches the registered dataset.
			for {
				attempts.Add(1)
				_, err := s.AppendIn(ns, "d", [][]string{{"1"}}, false)
				if err == nil {
					t.Error("wrong-arity append accepted")
					return
				}
				if !errors.Is(err, ErrUnknownDataset) {
					return
				}
			}
		}()
		wg.Wait()
	}
	st := s.Stats()
	if st.Appends != attempts.Load() || st.Errors != st.Appends {
		t.Fatalf("appends %d, errors %d, want both %d", st.Appends, st.Errors, attempts.Load())
	}
	for _, ns := range s.Registry().Namespaces() {
		if nst, _ := s.Registry().NamespaceStats(ns); nst.Appends < 1 || nst.Errors != nst.Appends {
			t.Fatalf("namespace %s: appends %d, errors %d", ns, nst.Appends, nst.Errors)
		}
	}
}
