package service

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ajdloss/internal/core"
	"ajdloss/internal/jointree"
)

// blockCSV builds the planted-MVD instance C ↠ A|B used across the tests:
// for each class c there is a block of a×b tuples, so {A,C},{B,C} is a
// lossless schema and {A},{B},{C} is lossy.
func blockCSV(classes, a, b int) string {
	var sb strings.Builder
	sb.WriteString("A,B,C\n")
	for c := 1; c <= classes; c++ {
		for i := 1; i <= a; i++ {
			for j := 1; j <= b; j++ {
				fmt.Fprintf(&sb, "%d,%d,%d\n", 10*c+i, 100*c+j, c)
			}
		}
	}
	return sb.String()
}

func newTestService(t testing.TB, cacheSize int) *Service {
	t.Helper()
	s := New(cacheSize)
	if _, err := s.Registry().RegisterIn("default", "block", strings.NewReader(blockCSV(3, 2, 2)), true); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRegistry(t *testing.T) {
	s := New(16)
	d, err := s.Registry().RegisterIn("default", "r1", strings.NewReader("A,B\n1,2\n3,4\n"), true)
	if err != nil {
		t.Fatal(err)
	}
	if d.Rel.N() != 2 || d.ID == 0 {
		t.Fatalf("dataset = %+v", d.Info())
	}
	// Duplicate name rejected.
	if _, err := s.Registry().RegisterIn("default", "r1", strings.NewReader("A\n1\n"), true); err == nil {
		t.Fatal("duplicate name accepted")
	}
	// Malformed CSVs error, never panic (the ingestion-path bugfix).
	for _, bad := range []string{"A,A\n1,2\n", "A,,B\n1,2,3\n", "A,B\n1\n", ""} {
		if _, err := s.Registry().RegisterIn("default", "bad", strings.NewReader(bad), true); err == nil {
			t.Errorf("malformed CSV %q accepted", bad)
		}
	}
	// Empty dataset rejected (analysis of an empty relation is undefined).
	if _, err := s.Registry().RegisterIn("default", "empty", strings.NewReader("A,B\n"), true); err == nil {
		t.Fatal("empty dataset accepted")
	}
	infos, _ := s.Registry().ListIn("default")
	if len(infos) != 1 || infos[0].Name != "r1" || infos[0].Rows != 2 {
		t.Fatalf("List = %+v", infos)
	}
	if !s.RemoveIn("default", "r1") || s.RemoveIn("default", "r1") {
		t.Fatal("Remove misbehaved")
	}
}

func TestAnalyzeMatchesCore(t *testing.T) {
	s := newTestService(t, 16)
	got, err := s.AnalyzeIn("default", "block", "A,C;B,C")
	if err != nil {
		t.Fatal(err)
	}
	d, _ := s.Registry().GetIn("default", "block")
	want, err := core.Analyze(d.Rel, jointree.MustSchema([]string{"A", "C"}, []string{"B", "C"}))
	if err != nil {
		t.Fatal(err)
	}
	if got.J != want.J || got.Loss.Spurious != want.Loss.Spurious || got.Lossless != want.Lossless {
		t.Fatalf("view %+v vs report %+v", got, want)
	}
	if !got.Lossless {
		t.Fatal("planted lossless schema reported lossy")
	}
	// Lossy schema carries positive spurious count and J ≤ log(1+ρ).
	lossy, err := s.AnalyzeIn("default", "block", "A;B;C")
	if err != nil {
		t.Fatal(err)
	}
	if lossy.Loss.Spurious <= 0 || lossy.J > lossy.Loss.LogOnePlusRho+1e-9 {
		t.Fatalf("lossy view: %+v", lossy)
	}

	// Error paths: unknown dataset, bad schema, cyclic schema.
	if _, err := s.AnalyzeIn("default", "nope", "A;B"); err == nil || !strings.Contains(err.Error(), "unknown dataset") {
		t.Fatalf("unknown dataset error = %v", err)
	}
	if _, err := s.AnalyzeIn("default", "block", ""); err == nil {
		t.Fatal("empty schema accepted")
	}
	if _, err := s.AnalyzeIn("default", "block", "A,B;B,C;C,A"); err == nil {
		t.Fatal("cyclic schema accepted")
	}
}

func TestDiscoverFindsPlantedMVD(t *testing.T) {
	s := newTestService(t, 16)
	v, err := s.DiscoverIn("default", "block", 1e-9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v.Dataset != "block" || v.Rows != 12 {
		t.Fatalf("view header: %+v", v)
	}
	found := false
	for _, m := range v.MVDs {
		if len(m.X) == 1 && m.X[0] == "C" && m.J < 1e-9 && m.Rho == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("planted MVD C->>A|B not found: %+v", v.MVDs)
	}
	if v.Best.J > 1e-9 {
		t.Fatalf("best candidate not lossless: %+v", v.Best)
	}
}

func TestEntropyKinds(t *testing.T) {
	s := newTestService(t, 16)
	d, _ := s.Registry().GetIn("default", "block")
	n := float64(d.Rel.N())

	h, err := s.EntropyIn("default", "block", []string{"A", "B", "C"}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Full-schema entropy of a set-valued relation is log N.
	if h.Kind != "entropy" || math.Abs(h.Nats-math.Log(n)) > 1e-12 {
		t.Fatalf("H(ABC) = %+v, want log %v", h, n)
	}
	if math.Abs(h.Bits-h.Nats/math.Ln2) > 1e-12 {
		t.Fatalf("bits/nats mismatch: %+v", h)
	}

	// The planted instance satisfies A ⫫ B | C: CMI must be 0, MI positive.
	cmi, err := s.EntropyIn("default", "block", nil, []string{"A"}, []string{"B"}, []string{"C"})
	if err != nil {
		t.Fatal(err)
	}
	if cmi.Kind != "cmi" || cmi.Nats > 1e-9 {
		t.Fatalf("I(A;B|C) = %+v, want 0", cmi)
	}
	mi, err := s.EntropyIn("default", "block", nil, []string{"A"}, []string{"B"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mi.Kind != "mi" || mi.Nats <= 0 {
		t.Fatalf("I(A;B) = %+v, want > 0", mi)
	}
	ce, err := s.EntropyIn("default", "block", []string{"A"}, nil, nil, []string{"C"})
	if err != nil {
		t.Fatal(err)
	}
	if ce.Kind != "conditional_entropy" || ce.Nats <= 0 {
		t.Fatalf("H(A|C) = %+v, want > 0", ce)
	}

	// Bad combinations.
	for _, bad := range [][4][]string{
		{nil, nil, nil, nil},       // nothing
		{{"A"}, {"A"}, {"B"}, nil}, // attrs and a+b
		{nil, {"A"}, nil, nil},     // a without b
		{{"Z"}, nil, nil, nil},     // unknown attribute
	} {
		if _, err := s.EntropyIn("default", "block", bad[0], bad[1], bad[2], bad[3]); err == nil {
			t.Errorf("bad entropy query %v accepted", bad)
		}
	}
}

// TestCoalescing proves the singleflight path: with caching disabled, many
// concurrent identical requests must execute the underlying analysis once
// (the first caller computes while the rest are parked on the in-flight
// call, released together with the same result).
func TestCoalescing(t *testing.T) {
	g := &flightGroup{}
	started := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int64
	go func() {
		_, _, _ = g.Do("k", func() (any, error) {
			close(started)
			<-release
			calls.Add(1)
			return "v", nil
		})
	}()
	<-started
	const waiters = 8
	var wg sync.WaitGroup
	results := make([]any, waiters)
	shared := make([]bool, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, sh := g.Do("k", func() (any, error) {
				calls.Add(1)
				return "v", nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i], shared[i] = v, sh
		}(i)
	}
	// Wait until every waiter is registered on the in-flight call, then
	// release the leader; only then is "fn ran once" a deterministic fact.
	for {
		g.mu.Lock()
		c := g.m["k"]
		dups := 0
		if c != nil {
			dups = c.dups
		}
		g.mu.Unlock()
		if dups == waiters {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	for i := range results {
		if results[i] != "v" || !shared[i] {
			t.Fatalf("waiter %d got (%v, shared=%v)", i, results[i], shared[i])
		}
	}
}

// TestCoalescingPanic: a panicking computation must not wedge its key — the
// panic re-raises in the computing goroutine, waiters get an error, and a
// later call with the same key computes fresh.
func TestCoalescingPanic(t *testing.T) {
	g := &flightGroup{}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate to the computing caller")
			}
		}()
		_, _, _ = g.Do("k", func() (any, error) { panic("boom") })
	}()
	// The key is free again: this must compute, not block or reuse state.
	v, err, _ := g.Do("k", func() (any, error) { return "fresh", nil })
	if err != nil || v != "fresh" {
		t.Fatalf("key wedged after panic: (%v, %v)", v, err)
	}
}

// TestStatsCountRejected: requests failing validation before the compute
// path still show up in Stats (requests and errors both increment), also
// when the namespace they name does not exist. Each request is counted once,
// in its namespace or, without one, in the service's unattributed set, and
// the /stats totals are the sum of every /v1/{ns}/stats plus the
// unattributed requests.
func TestStatsCountRejected(t *testing.T) {
	s := New(16)
	srv := httptest.NewServer(NewHandler(s))
	t.Cleanup(srv.Close)
	getJSON := func(path string, v any) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	// Requests naming a namespace that does not exist: legacy routes before
	// the default namespace is created, and an unknown /v1 namespace.
	var unattributed RequestCounts
	sendUnattributed := func() {
		t.Helper()
		for _, q := range []struct {
			method, path, body       string
			requests, appends, batch int64
		}{
			{"GET", "/analyze?dataset=d&schema=A|B", "", 1, 0, 0},
			{"GET", "/entropy?dataset=d&attrs=A", "", 1, 0, 0},
			{"GET", "/discover?dataset=d", "", 1, 0, 0},
			{"POST", "/batch", `{"dataset":"d","queries":[{"kind":"entropy","attrs":["A"]}]}`, 1, 0, 1},
			{"POST", "/datasets/d/append", "1,2,3\n", 0, 1, 0},
			{"POST", "/datasets/d/checkpoint", "", 1, 0, 0},
			{"GET", "/v1/nope/analyze?dataset=d&schema=A|B", "", 1, 0, 0},
			{"POST", "/v1/nope/batch", `{"dataset":"d","queries":[{"kind":"entropy","attrs":["A"]}]}`, 1, 0, 1},
			{"POST", "/v1/nope/datasets/d/append", "1,2,3\n", 0, 1, 0},
		} {
			if _, ok := s.Registry().NamespaceStats("default"); !ok || strings.HasPrefix(q.path, "/v1/nope/") {
				unattributed.Requests += q.requests
				unattributed.Appends += q.appends
				unattributed.Batches += q.batch
				unattributed.Errors += q.requests + q.appends
			}
			if code, body := doReq(t, q.method, srv.URL+q.path, q.body); code != http.StatusNotFound && code != http.StatusBadRequest {
				t.Fatalf("%s %s: %d %v", q.method, q.path, code, body)
			}
		}
	}
	sendUnattributed()
	var st Stats
	getJSON("/stats", &st)
	if st.RequestCounts != unattributed {
		t.Fatalf("unattributed requests: /stats has %+v, want %+v", st.RequestCounts, unattributed)
	}

	// With datasets in two namespaces: rejected and answered requests in
	// each, and the unknown-namespace requests again.
	for _, ns := range []string{"default", "t"} {
		if _, err := s.Registry().RegisterIn(ns, "block", strings.NewReader(blockCSV(3, 2, 2)), true); err != nil {
			t.Fatal(err)
		}
		before := s.Stats()
		if _, err := s.AnalyzeIn(ns, "no-such-dataset", "A;B"); err == nil {
			t.Fatal("unknown dataset accepted")
		}
		if _, err := s.EntropyIn(ns, "block", nil, []string{"A"}, nil, nil); err == nil {
			t.Fatal("bad entropy combo accepted")
		}
		after := s.Stats()
		if after.Requests != before.Requests+2 || after.Errors != before.Errors+2 {
			t.Fatalf("rejected requests invisible to stats: before %+v after %+v", before, after)
		}
		for i := 0; i < 2; i++ {
			if _, err := s.EntropyIn(ns, "block", []string{"A"}, nil, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.AppendIn(ns, "block", [][]string{{"1"}}, false); err == nil {
			t.Fatal("wrong-arity append accepted")
		}
	}
	sendUnattributed()

	getJSON("/stats", &st)
	// Per namespace: two rejected requests, a computed and a cached entropy,
	// a failed append; the default namespace also has the second round of
	// legacy requests (five rejected requests, one a batch, and an append).
	want := map[string]RequestCounts{
		"default": {Requests: 9, CacheHits: 1, Computed: 1, Errors: 9, Appends: 2, Batches: 1},
		"t":       {Requests: 4, CacheHits: 1, Computed: 1, Errors: 3, Appends: 1},
	}
	sum := unattributed
	for _, ns := range s.Registry().Namespaces() {
		var nst NamespaceStats
		getJSON("/v1/"+ns+"/stats", &nst)
		if nst.RequestCounts != want[ns] {
			t.Fatalf("namespace %s counters %+v, want %+v", ns, nst.RequestCounts, want[ns])
		}
		sum.add(nst.RequestCounts)
	}
	if st.RequestCounts != sum {
		t.Fatalf("/stats totals %+v, want the namespaces' sum plus unattributed %+v", st.RequestCounts, sum)
	}
}

// TestServiceCoalescingUnderLoad drives identical concurrent entropy
// requests through the full service path with caching off and checks the
// accounting: every request is either computed, coalesced onto an in-flight
// computation, or (never, here) a cache hit — and far fewer computations
// than requests happen.
func TestServiceCoalescingUnderLoad(t *testing.T) {
	s := newTestService(t, 0) // cache disabled: only coalescing can dedup
	const goroutines = 16
	const perG = 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := s.EntropyIn("default", "block", []string{"A", "B"}, nil, nil, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Requests != goroutines*perG {
		t.Fatalf("requests = %d, want %d", st.Requests, goroutines*perG)
	}
	if st.CacheHits != 0 {
		t.Fatalf("cache hits with cache disabled: %+v", st)
	}
	if st.Computed+st.Coalesced != st.Requests {
		t.Fatalf("accounting leak: %+v", st)
	}
	if st.Errors != 0 {
		t.Fatalf("errors under load: %+v", st)
	}
}

func TestResultCache(t *testing.T) {
	s := newTestService(t, 16)
	if _, err := s.AnalyzeIn("default", "block", "A,C;B,C"); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	v1, err := s.AnalyzeIn("default", "block", "A,C;B,C")
	if err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.CacheHits != before.CacheHits+1 || after.Computed != before.Computed {
		t.Fatalf("repeat request not served from cache: before %+v after %+v", before, after)
	}
	// Schema bag order must not fragment the cache key (canonical string).
	if _, err := s.AnalyzeIn("default", "block", "B,C;A,C"); err != nil {
		t.Fatal(err)
	}
	_ = v1
	// Removing the dataset drops its cached results and the name.
	if !s.RemoveIn("default", "block") {
		t.Fatal("Remove failed")
	}
	if s.cache.Len() != 0 {
		t.Fatalf("cache still holds %d entries after dataset removal", s.cache.Len())
	}
	if _, err := s.AnalyzeIn("default", "block", "A,C;B,C"); err == nil {
		t.Fatal("removed dataset still served")
	}
}

func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache(2)
	c.Add("a", 1, "", 0)
	c.Add("b", 2, "", 0)
	if _, ok := c.Get("a"); !ok { // promote a; b is now LRU
		t.Fatal("a missing")
	}
	c.Add("c", 3, "", 0) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b not evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted wrongly", k)
		}
	}
	// Refresh in place does not grow the cache.
	c.Add("a", 10, "", 0)
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	if v, _ := c.Get("a"); v != 10 {
		t.Fatalf("refresh lost: %v", v)
	}
	c.RemovePrefix("a")
	if c.Len() != 1 {
		t.Fatalf("RemovePrefix left %d", c.Len())
	}
	// Zero capacity disables caching entirely.
	z := newLRUCache(0)
	z.Add("k", 1, "", 0)
	if _, ok := z.Get("k"); ok || z.Len() != 0 {
		t.Fatal("zero-capacity cache stored an entry")
	}
}

// TestConcurrentMixedWorkload is the -race acceptance scenario: analyze,
// discover, and entropy requests race against the same warm dataset (plus
// registrations of fresh datasets) without data races or inconsistent
// results.
func TestConcurrentMixedWorkload(t *testing.T) {
	s := newTestService(t, 32)
	want, err := s.AnalyzeIn("default", "block", "A,C;B,C")
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 12
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				switch (g + i) % 4 {
				case 0:
					v, err := s.AnalyzeIn("default", "block", "A,C;B,C")
					if err != nil {
						t.Error(err)
					} else if v.J != want.J || v.Loss.Spurious != want.Loss.Spurious {
						t.Errorf("inconsistent analyze result: %+v", v)
					}
				case 1:
					if _, err := s.EntropyIn("default", "block", []string{"A", "B"}, nil, nil, nil); err != nil {
						t.Error(err)
					}
				case 2:
					if _, err := s.DiscoverIn("default", "block", 1e-9, 1); err != nil {
						t.Error(err)
					}
				case 3:
					name := "tmp" + strconv.Itoa(g)
					if _, err := s.Registry().RegisterIn("default", name, strings.NewReader("X,Y\n1,2\n2,1\n"), true); err == nil {
						if _, err := s.EntropyIn("default", name, []string{"X"}, nil, nil, nil); err != nil {
							t.Error(err)
						}
						s.RemoveIn("default", name)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Errors != 0 {
		t.Fatalf("errors during mixed workload: %+v", st)
	}
}
