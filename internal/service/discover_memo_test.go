package service

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// randCSVRows renders n pseudo-random A,B,C records for appends.
func randCSVRows(rng *rand.Rand, n int) [][]string {
	out := make([][]string, n)
	for i := range out {
		out[i] = []string{
			fmt.Sprint(rng.Intn(8)), fmt.Sprint(rng.Intn(6)), fmt.Sprint(rng.Intn(4)),
		}
	}
	return out
}

// TestDiscoverMemoCountersViaStats drives discovery over HTTP and checks the
// memo counters surface in both the per-namespace stats (per dataset) and
// the aggregate /stats block, with the expected hit/cold/recompute shape.
func TestDiscoverMemoCountersViaStats(t *testing.T) {
	srv := httpFixture(t)
	if code, body := doReq(t, "POST", srv.URL+"/v1/memo/datasets?name=block", blockCSV(3, 2, 2)); code != http.StatusCreated {
		t.Fatalf("register: %d %v", code, body)
	}

	counters := func() map[string]any {
		code, body := doReq(t, "GET", srv.URL+"/v1/memo/stats", "")
		if code != 200 {
			t.Fatalf("stats: %d %v", code, body)
		}
		disc, _ := body["discovery"].(map[string]any)
		if disc == nil {
			return nil
		}
		c, _ := disc["block"].(map[string]any)
		return c
	}

	if c := counters(); c != nil {
		t.Fatalf("discovery counters before any discover request: %v", c)
	}
	// First discover: Chow-Liu and the MVD mining both materialize cold.
	if code, body := doReq(t, "GET", srv.URL+"/v1/memo/discover?dataset=block&target=0.01", ""); code != 200 {
		t.Fatalf("discover: %d %v", code, body)
	}
	c := counters()
	if c == nil || c["discover_cold_runs"] != float64(2) || c["discover_hits"] != float64(0) {
		t.Fatalf("after cold discover: %v", c)
	}
	// A different target misses the LRU (different request key) but hits the
	// memoized Chow-Liu candidate; only the threshold-dependent MVD pass
	// materializes anew.
	if code, body := doReq(t, "GET", srv.URL+"/v1/memo/discover?dataset=block&target=0.02", ""); code != 200 {
		t.Fatalf("discover (new target): %d %v", code, body)
	}
	c = counters()
	if c["discover_hits"] != float64(1) || c["discover_cold_runs"] != float64(3) {
		t.Fatalf("after second target: %v", c)
	}
	// An append bumps the generation; the next discover refreshes the memo
	// scope-wise — recomputed nodes, no new cold runs.
	if code, body := doReq(t, "POST", srv.URL+"/v1/memo/datasets/block/append", "41,141,9\n42,142,9\n"); code != 200 {
		t.Fatalf("append: %d %v", code, body)
	}
	if code, body := doReq(t, "GET", srv.URL+"/v1/memo/discover?dataset=block&target=0.01", ""); code != 200 {
		t.Fatalf("discover (post-append): %d %v", code, body)
	}
	c = counters()
	if c["discover_cold_runs"] != float64(3) {
		t.Fatalf("post-append refresh must not run cold: %v", c)
	}
	if c["discover_recomputed_nodes"].(float64) <= 0 {
		t.Fatalf("post-append refresh must count recomputed nodes: %v", c)
	}
	// Batch FD queries route through the same memo.
	batch := `{"dataset":"block","queries":[{"kind":"fd","x":["A"],"y":["C"]}]}`
	if code, body := doReq(t, "POST", srv.URL+"/v1/memo/batch", batch); code != 200 {
		t.Fatalf("batch: %d %v", code, body)
	}
	after := counters()
	if after["discover_recomputed_nodes"].(float64) != c["discover_recomputed_nodes"].(float64)+1 {
		t.Fatalf("batch fd query must advance one node: %v -> %v", c, after)
	}
	// The aggregate legacy /stats carries the same totals.
	code, body := doReq(t, "GET", srv.URL+"/stats", "")
	if code != 200 {
		t.Fatalf("legacy stats: %d %v", code, body)
	}
	agg, _ := body["discovery"].(map[string]any)
	if agg == nil || agg["discover_cold_runs"] != after["discover_cold_runs"] ||
		agg["discover_hits"] != after["discover_hits"] {
		t.Fatalf("aggregate discovery stats: %v vs per-dataset %v", agg, after)
	}
}

// TestDiscoverMemoParityAfterAppends checks that memo-served discovery over
// an appended dataset returns exactly the view a cold service computes over
// the same final rows (modulo the echoed generation).
func TestDiscoverMemoParityAfterAppends(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	warm := New(32)
	if _, err := warm.Registry().RegisterIn("default", "d", strings.NewReader(blockCSV(3, 2, 2)), true); err != nil {
		t.Fatal(err)
	}
	var appended [][]string
	for step := 0; step < 5; step++ {
		// Touch the memo at every generation so later refreshes are warm.
		if _, err := warm.DiscoverIn("default", "d", 0.01, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := warm.BatchIn("default", "d", []BatchQuery{{Kind: "fd", X: []string{"A"}, Y: []string{"C"}}}); err != nil {
			t.Fatal(err)
		}
		rows := randCSVRows(rng, 3)
		if _, err := warm.AppendIn("default", "d", rows, false); err != nil {
			t.Fatal(err)
		}
		appended = append(appended, rows...)
	}
	got, err := warm.DiscoverIn("default", "d", 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}

	cold := New(32)
	if _, err := cold.Registry().RegisterIn("default", "d", strings.NewReader(blockCSV(3, 2, 2)), true); err != nil {
		t.Fatal(err)
	}
	if _, err := cold.AppendIn("default", "d", appended, false); err != nil {
		t.Fatal(err)
	}
	want, err := cold.DiscoverIn("default", "d", 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}

	// The two services reached the same rows in different numbers of appends;
	// everything but the echoed generation must match exactly. Compare copies
	// — the originals are shared with the services' result caches.
	g, w := *got, *want
	g.Generation, w.Generation = 0, 0
	gotJSON, _ := json.Marshal(g)
	wantJSON, _ := json.Marshal(w)
	if !reflect.DeepEqual(gotJSON, wantJSON) {
		t.Fatalf("memo-served discover diverged from cold service:\n got: %s\nwant: %s", gotJSON, wantJSON)
	}

	gb, err := warm.BatchIn("default", "d", []BatchQuery{{Kind: "fd", X: []string{"A"}, Y: []string{"C"}}})
	if err != nil {
		t.Fatal(err)
	}
	wb, err := cold.BatchIn("default", "d", []BatchQuery{{Kind: "fd", X: []string{"A"}, Y: []string{"C"}}})
	if err != nil {
		t.Fatal(err)
	}
	if *gb.Results[0].Holds != *wb.Results[0].Holds || *gb.Results[0].G3 != *wb.Results[0].G3 {
		t.Fatalf("memo-served fd diverged: %+v vs %+v", gb.Results[0], wb.Results[0])
	}
}

// TestDiscoverMemoConcurrentAppends hammers discovery and batch FD queries
// while a writer appends, exercising the memo's generation advance under
// contention; meaningful chiefly under -race.
func TestDiscoverMemoConcurrentAppends(t *testing.T) {
	s := New(32)
	if _, err := s.Registry().RegisterIn("default", "d", strings.NewReader(blockCSV(3, 2, 2)), true); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // single writer per dataset append contract
		defer wg.Done()
		rng := rand.New(rand.NewSource(33))
		for i := 0; i < 20; i++ {
			if _, err := s.AppendIn("default", "d", randCSVRows(rng, 2), false); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := s.DiscoverIn("default", "d", 0.01, 1); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.BatchIn("default", "d", []BatchQuery{
					{Kind: "fd", X: []string{"A"}, Y: []string{"C"}},
					{Kind: "fd", X: []string{"B"}, Y: []string{"A"}},
					{Kind: "entropy", Attrs: []string{"A", "B"}},
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
