package service

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// TestCacheNamespacePrefixRemoval pins the partitioning invariant at the
// cache layer: every key carries its namespace prefix, so one tenant's
// eviction sweep can never touch another tenant's entries — even for the
// same dataset name and the same query.
func TestCacheNamespacePrefixRemoval(t *testing.T) {
	c := newLRUCache(8)
	keyA1 := nsPrefix("a") + datasetPrefix(1) + "g1|entropy"
	keyA2 := nsPrefix("a") + datasetPrefix(2) + "g1|entropy"
	keyB := nsPrefix("b") + datasetPrefix(3) + "g1|entropy"
	c.Add(keyA1, 1, "a", 0)
	c.Add(keyA2, 2, "a", 0)
	c.Add(keyB, 3, "b", 0)

	// Dataset-scoped sweep (what an append runs): only that dataset, only
	// that namespace.
	c.RemovePrefix(nsPrefix("a") + datasetPrefix(1))
	if has(c, keyA1) || !has(c, keyA2) || !has(c, keyB) {
		t.Fatalf("dataset sweep crossed boundaries: a1=%v a2=%v b=%v", has(c, keyA1), has(c, keyA2), has(c, keyB))
	}
	// Namespace-scoped sweep: everything of tenant a, nothing of tenant b.
	c.RemovePrefix(nsPrefix("a"))
	if has(c, keyA2) || !has(c, keyB) {
		t.Fatal("namespace sweep crossed the tenant boundary")
	}
	if c.OwnerLen("a") != 0 || c.OwnerLen("b") != 1 {
		t.Fatalf("owner accounting after sweeps: a=%d b=%d", c.OwnerLen("a"), c.OwnerLen("b"))
	}
	// A namespace whose quoted name would collide naively ("a" vs `a"`)
	// cannot: the prefix is quoted.
	c.Add(nsPrefix(`a"`)+datasetPrefix(9)+"g1|x", 4, `a"`, 0)
	c.RemovePrefix(nsPrefix("a"))
	if c.OwnerLen(`a"`) != 1 {
		t.Fatal("quoted namespace prefix collided")
	}
}

// TestCacheOwnerShare: a tenant at its CacheShare recycles its own least
// recently used slot instead of evicting other tenants' entries.
func TestCacheOwnerShare(t *testing.T) {
	c := newLRUCache(16)
	c.Add("nb|1", "warm", "b", 0)
	for i := 0; i < 6; i++ {
		c.Add("na|"+strconv.Itoa(i), i, "a", 3)
	}
	if got := c.OwnerLen("a"); got != 3 {
		t.Fatalf("owner a holds %d entries, share is 3", got)
	}
	// The survivors are a's three most recent; b's entry was never touched.
	for i := 0; i < 3; i++ {
		if has(c, "na|"+strconv.Itoa(i)) {
			t.Fatalf("na|%d should have been recycled", i)
		}
	}
	for i := 3; i < 6; i++ {
		if !has(c, "na|"+strconv.Itoa(i)) {
			t.Fatalf("na|%d missing", i)
		}
	}
	if !has(c, "nb|1") {
		t.Fatal("tenant b's entry evicted by tenant a's churn")
	}
	// Refreshing an existing key does not consume a new slot.
	c.Add("na|5", "updated", "a", 3)
	if c.OwnerLen("a") != 3 || !has(c, "na|3") {
		t.Fatal("refresh consumed a share slot")
	}
}

// TestNamespaceCacheIsolation drives the service layer: the same dataset
// name in two namespaces, identical queries — an append in one namespace
// evicts only that namespace's results, and the other tenant keeps serving
// cache hits.
func TestNamespaceCacheIsolation(t *testing.T) {
	s := New(32)
	for _, ns := range []string{"a", "b"} {
		if _, err := s.Registry().RegisterIn(ns, "d", strings.NewReader(blockCSV(2, 2, 2)), true); err != nil {
			t.Fatal(err)
		}
	}
	attrs := []string{"A", "B"}
	for _, ns := range []string{"a", "b"} {
		if _, err := s.EntropyIn(ns, "d", attrs, nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if s.cache.OwnerLen("a") != 1 || s.cache.OwnerLen("b") != 1 {
		t.Fatalf("cache fill: a=%d b=%d", s.cache.OwnerLen("a"), s.cache.OwnerLen("b"))
	}

	if _, err := s.AppendIn("a", "d", [][]string{{"91", "92", "9"}}, false); err != nil {
		t.Fatal(err)
	}
	if s.cache.OwnerLen("a") != 0 {
		t.Fatal("append did not evict the appending namespace's results")
	}
	if s.cache.OwnerLen("b") != 1 {
		t.Fatal("append evicted the OTHER namespace's results")
	}

	// Tenant b's repeat is a hit; tenant a's is a recompute at generation 2.
	if _, err := s.EntropyIn("b", "d", attrs, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if st, _ := s.Registry().NamespaceStats("b"); st.CacheHits != 1 || st.Computed != 1 {
		t.Fatalf("tenant b counters: %+v", st)
	}
	v, err := s.EntropyIn("a", "d", attrs, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Generation != 2 {
		t.Fatalf("tenant a generation = %d, want 2", v.Generation)
	}
	if st, _ := s.Registry().NamespaceStats("a"); st.CacheHits != 0 || st.Computed != 2 {
		t.Fatalf("tenant a counters: %+v", st)
	}
}

// TestHTTPCrossTenantCacheIsolation is the same invariant observed entirely
// through the public API: per-namespace stats prove whose cache served what.
func TestHTTPCrossTenantCacheIsolation(t *testing.T) {
	srv := httptest.NewServer(NewHandler(New(32)))
	t.Cleanup(srv.Close)

	for _, ns := range []string{"a", "b"} {
		if code, _ := doReq(t, "POST", srv.URL+"/v1/"+ns+"/datasets?name=d", blockCSV(2, 2, 2)); code != http.StatusCreated {
			t.Fatalf("register in %s failed", ns)
		}
	}
	url := func(ns string) string { return srv.URL + "/v1/" + ns + "/entropy?dataset=d&attrs=A,B" }
	for _, ns := range []string{"a", "b"} {
		if code, _ := doReq(t, "GET", url(ns), ""); code != 200 {
			t.Fatalf("entropy in %s failed", ns)
		}
	}
	// Appending in tenant a must not invalidate tenant b's warm result.
	if code, _ := doReq(t, "POST", srv.URL+"/v1/a/datasets/d/append", `[["91","92","9"]]`); code != 200 {
		t.Fatal("append failed")
	}
	if code, _ := doReq(t, "GET", url("b"), ""); code != 200 {
		t.Fatal("entropy in b failed")
	}
	_, st := doReq(t, "GET", srv.URL+"/v1/b/stats", "")
	if st["cache_hits"] != float64(1) || st["computed"] != float64(1) {
		t.Fatalf("tenant b stats: %v", st)
	}
	// Tenant a recomputes at its new generation.
	code, body := doReq(t, "GET", url("a"), "")
	if code != 200 || body["generation"] != float64(2) {
		t.Fatalf("tenant a entropy: %d %v", code, body)
	}
	_, st = doReq(t, "GET", srv.URL+"/v1/a/stats", "")
	if st["cache_hits"] != float64(0) || st["computed"] != float64(2) {
		t.Fatalf("tenant a stats: %v", st)
	}
}

// OwnerLen returns the number of cached entries held by one owner.
func (c *lruCache) OwnerLen(owner string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.perOwner[owner]
}
