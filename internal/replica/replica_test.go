package replica

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"ajdloss/internal/persist"
	"ajdloss/internal/service"
)

// blockCSV builds a deterministic 3-column CSV with a planted block
// structure, the same shape the service tests use.
func blockCSV(classes, a, b int) string {
	var sb strings.Builder
	sb.WriteString("A,B,C\n")
	for c := 0; c < classes; c++ {
		for i := 0; i < a; i++ {
			for j := 0; j < b; j++ {
				fmt.Fprintf(&sb, "a%d_%d,b%d_%d,c%d\n", c, i, c, j, c)
			}
		}
	}
	return sb.String()
}

// newDurablePrimary returns a durable service rooted at dir, serving over an
// httptest server.
func newDurablePrimary(t testing.TB, dir string) (*service.Service, *httptest.Server) {
	t.Helper()
	svc := service.New(64)
	store, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatalf("persist.Open: %v", err)
	}
	if _, err := svc.EnableDurability(store); err != nil {
		t.Fatalf("EnableDurability: %v", err)
	}
	ts := httptest.NewServer(service.NewHandler(svc))
	t.Cleanup(ts.Close)
	return svc, ts
}

// newFollowerNode returns an in-memory service in follower mode pointed at
// primaryURL, its HTTP server, and a Follower wired to it.
func newFollowerNode(t testing.TB, primaryURL string) (*service.Service, *httptest.Server, *Follower) {
	t.Helper()
	svc := service.New(64)
	svc.SetPrimary(primaryURL)
	ts := httptest.NewServer(service.NewHandler(svc))
	t.Cleanup(ts.Close)
	return svc, ts, NewFollower(svc, primaryURL, FollowerOptions{})
}

func mustRegister(t testing.TB, svc *service.Service, ns, name, csv string) {
	t.Helper()
	if _, err := svc.Registry().RegisterIn(ns, name, strings.NewReader(csv), true); err != nil {
		t.Fatalf("RegisterIn(%s/%s): %v", ns, name, err)
	}
}

// post issues a POST and returns status and body.
func post(t testing.TB, url, contentType, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading POST %s response: %v", url, err)
	}
	return resp.StatusCode, string(data)
}

func get(t testing.TB, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading GET %s response: %v", url, err)
	}
	return resp.StatusCode, string(data)
}

const batchBody = `{"dataset":"block","queries":[{"kind":"entropy","attrs":["A","B"]},{"kind":"mi","a":["A"],"b":["B"]},{"kind":"distinct","attrs":["C"]}]}`

func TestRingDeterministicAndComplete(t *testing.T) {
	nodes := []string{"http://n1", "http://n2", "http://n3"}
	reversed := []string{"http://n3", "http://n2", "http://n1"}
	r1 := NewRing(nodes)
	r2 := NewRing(reversed)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("ns%d/dataset%d", i%7, i)
		succ := r1.Successors(key)
		if got := r2.Successors(key); !slices.Equal(got, succ) {
			t.Fatalf("ring order sensitivity: key %q -> %q vs %q", key, got, succ)
		}
		if len(succ) != len(nodes) {
			t.Fatalf("Successors(%q) returned %d nodes, want %d", key, len(succ), len(nodes))
		}
		seen := map[string]bool{}
		for _, n := range succ {
			if seen[n] {
				t.Fatalf("Successors(%q) repeats %q", key, n)
			}
			seen[n] = true
		}
	}
}

// ownerOf returns the node owning key: the head of its failover order.
func ownerOf(r *Ring, key string) string { return r.Successors(key)[0] }

func TestRingDistribution(t *testing.T) {
	nodes := []string{"http://n1", "http://n2", "http://n3"}
	r := NewRing(nodes)
	counts := map[string]int{}
	const keys = 9000
	for i := 0; i < keys; i++ {
		counts[ownerOf(r, fmt.Sprintf("default/dataset-%d", i))]++
	}
	for _, n := range nodes {
		// A perfectly even split is 1/3; with 128 vnodes each share should be
		// well inside [1/5, 1/2].
		if counts[n] < keys/5 || counts[n] > keys/2 {
			t.Fatalf("node %s owns %d of %d keys — distribution too skewed: %v", n, counts[n], keys, counts)
		}
	}
}

func TestRingResizeMovesKeysOnlyToNewNode(t *testing.T) {
	before := NewRing([]string{"http://n1", "http://n2", "http://n3"})
	after := NewRing([]string{"http://n1", "http://n2", "http://n3", "http://n4"})
	moved := 0
	const keys = 4000
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("default/dataset-%d", i)
		was, is := ownerOf(before, key), ownerOf(after, key)
		if was == is {
			continue
		}
		moved++
		if is != "http://n4" {
			t.Fatalf("key %q moved from %s to %s, not to the added node", key, was, is)
		}
	}
	// Expected movement is ~1/4 of keys; anything over half means the hash is
	// reshuffling instead of rebalancing.
	if moved == 0 || moved > keys/2 {
		t.Fatalf("adding a node moved %d of %d keys", moved, keys)
	}
}

func TestFollowerConvergence(t *testing.T) {
	primary, primaryTS := newDurablePrimary(t, t.TempDir())
	mustRegister(t, primary, "default", "block", blockCSV(3, 2, 2))

	follower, followerTS, f := newFollowerNode(t, primaryTS.URL)
	ctx := context.Background()
	if err := f.SyncOnce(ctx); err != nil {
		t.Fatalf("first SyncOnce: %v", err)
	}

	compare := func(stage string) {
		t.Helper()
		ps, pb := post(t, primaryTS.URL+"/v1/default/batch", "application/json", batchBody)
		fs, fb := post(t, followerTS.URL+"/v1/default/batch", "application/json", batchBody)
		if ps != http.StatusOK || fs != http.StatusOK {
			t.Fatalf("%s: batch status primary=%d follower=%d (%s / %s)", stage, ps, fs, pb, fb)
		}
		if pb != fb {
			t.Fatalf("%s: batch responses diverge\nprimary:  %s\nfollower: %s", stage, pb, fb)
		}
	}
	compare("after bootstrap")

	// Tail new appends — including duplicate rows, which must dedup
	// identically on both sides.
	if _, err := primary.AppendIn("default", "block", [][]string{
		{"a9_0", "b9_0", "c9"},
		{"a9_0", "b9_0", "c9"},
		{"a9_1", "b9_1", "c9"},
	}, false); err != nil {
		t.Fatalf("AppendIn: %v", err)
	}
	if err := f.SyncOnce(ctx); err != nil {
		t.Fatalf("SyncOnce after append: %v", err)
	}
	compare("after WAL tail")

	// Compact the primary's WAL; the follower's next cursor is current, so
	// no re-bootstrap should be needed — but a *stale* follower would see
	// 410 and re-bootstrap, which the service tests cover.
	if _, err := primary.CheckpointIn("default", "block"); err != nil {
		t.Fatalf("CheckpointIn: %v", err)
	}
	if _, err := primary.AppendIn("default", "block", [][]string{{"a9_2", "b9_2", "c9"}}, false); err != nil {
		t.Fatalf("AppendIn after checkpoint: %v", err)
	}
	if err := f.SyncOnce(ctx); err != nil {
		t.Fatalf("SyncOnce after checkpoint: %v", err)
	}
	compare("after checkpoint + tail")

	// The follower publishes its replication state into /stats.
	st := follower.Stats()
	if st.Replication == nil {
		t.Fatal("follower stats carry no replication view")
	}
	if st.Replication.Primary != primaryTS.URL {
		t.Fatalf("replication view primary = %q, want %q", st.Replication.Primary, primaryTS.URL)
	}
	if st.Replication.AppliedRows == 0 || st.Replication.Bootstraps == 0 {
		t.Fatalf("replication view not accumulating: %+v", *st.Replication)
	}

	// Removal on the primary mirrors on the next pass.
	if !primary.RemoveIn("default", "block") {
		t.Fatal("RemoveIn on primary failed")
	}
	if err := f.SyncOnce(ctx); err != nil {
		t.Fatalf("SyncOnce after remove: %v", err)
	}
	if status, _ := get(t, followerTS.URL+"/v1/default/datasets/block/schema"); status != http.StatusNotFound {
		t.Fatalf("removed dataset still served by follower: status %d", status)
	}
}

func TestRouterRoutesToOwnerAndMergesListings(t *testing.T) {
	svcA := service.New(64)
	tsA := httptest.NewServer(service.NewHandler(svcA))
	t.Cleanup(tsA.Close)
	svcB := service.New(64)
	tsB := httptest.NewServer(service.NewHandler(svcB))
	t.Cleanup(tsB.Close)

	rt := NewRouter([]string{tsA.URL, tsB.URL}, RouterOptions{})
	ring := NewRing([]string{tsA.URL, tsB.URL}) // the router's placement
	byURL := map[string]*service.Service{tsA.URL: svcA, tsB.URL: svcB}

	// Find two dataset names the ring assigns to different nodes, register
	// each ONLY on its owner: a correct router must hit the right node.
	var names []string
	owners := map[string]bool{}
	for i := 0; len(names) < 2 && i < 100; i++ {
		name := fmt.Sprintf("shard%d", i)
		owner := ownerOf(ring, "default/"+name)
		if owners[owner] {
			continue
		}
		owners[owner] = true
		names = append(names, name)
		mustRegister(t, byURL[owner], "default", name, blockCSV(2, 2, 2))
	}
	if len(names) != 2 {
		t.Fatal("could not find names owned by distinct nodes")
	}

	router := httptest.NewServer(rt.Handler())
	t.Cleanup(router.Close)

	// Single-dataset reads land on the owner (the other node would 404, and
	// 404s do not fail over).
	for _, name := range names {
		if status, body := get(t, router.URL+"/v1/default/datasets/"+name+"/schema"); status != http.StatusOK {
			t.Fatalf("routed schema read for %s: status %d: %s", name, status, body)
		}
	}

	// The merged listing sees datasets from both nodes.
	status, body := get(t, router.URL+"/v1/default/datasets")
	if status != http.StatusOK {
		t.Fatalf("merged listing: status %d: %s", status, body)
	}
	var dl struct {
		Datasets []service.Info `json:"datasets"`
	}
	if err := json.Unmarshal([]byte(body), &dl); err != nil {
		t.Fatalf("merged listing decode: %v", err)
	}
	if len(dl.Datasets) != 2 {
		t.Fatalf("merged listing has %d datasets, want 2: %s", len(dl.Datasets), body)
	}

	// Multi-dataset batch fans out to both owners and merges in order.
	fanBody := fmt.Sprintf(`{"datasets":[%q,%q],"queries":[{"kind":"entropy","attrs":["A"]}]}`, names[0], names[1])
	status, body = post(t, router.URL+"/v1/default/batch", "application/json", fanBody)
	if status != http.StatusOK {
		t.Fatalf("fan-out batch: status %d: %s", status, body)
	}
	var merged struct {
		Namespace string            `json:"namespace"`
		Batches   []json.RawMessage `json:"batches"`
	}
	if err := json.Unmarshal([]byte(body), &merged); err != nil {
		t.Fatalf("fan-out batch decode: %v", err)
	}
	if merged.Namespace != "default" || len(merged.Batches) != 2 {
		t.Fatalf("fan-out batch merged %d views in %q, want 2 in default: %s", len(merged.Batches), merged.Namespace, body)
	}
	for i, raw := range merged.Batches {
		var view struct {
			Generation int64 `json:"generation"`
		}
		if err := json.Unmarshal(raw, &view); err != nil || view.Generation < 1 {
			t.Fatalf("batch part %d is not a batch view (err=%v): %s", i, err, raw)
		}
	}

	// An unknown dataset in the fan-out propagates the node's own 404.
	status, body = post(t, router.URL+"/v1/default/batch", "application/json",
		`{"datasets":["nope"],"queries":[{"kind":"entropy","attrs":["A"]}]}`)
	if status != http.StatusNotFound {
		t.Fatalf("fan-out with unknown dataset: status %d, want 404: %s", status, body)
	}
}

func TestRouterReadFailover(t *testing.T) {
	svcA := service.New(64)
	tsA := httptest.NewServer(service.NewHandler(svcA))
	t.Cleanup(tsA.Close)
	svcB := service.New(64)
	tsB := httptest.NewServer(service.NewHandler(svcB))
	t.Cleanup(tsB.Close)

	// The dataset lives on BOTH nodes (as with a follower mirroring the
	// owner), so a read can succeed anywhere.
	mustRegister(t, svcA, "default", "block", blockCSV(2, 2, 2))
	mustRegister(t, svcB, "default", "block", blockCSV(2, 2, 2))

	rt := NewRouter([]string{tsA.URL, tsB.URL}, RouterOptions{})
	router := httptest.NewServer(rt.Handler())
	t.Cleanup(router.Close)

	// Kill the owner; reads must fail over to the survivor.
	if ownerOf(NewRing([]string{tsA.URL, tsB.URL}), "default/block") == tsA.URL {
		tsA.Close()
	} else {
		tsB.Close()
	}
	if status, body := get(t, router.URL+"/v1/default/datasets/block/schema"); status != http.StatusOK {
		t.Fatalf("schema read after owner death: status %d: %s", status, body)
	}
	if status, body := post(t, router.URL+"/v1/default/batch", "application/json", batchBody); status != http.StatusOK {
		t.Fatalf("batch after owner death: status %d: %s", status, body)
	}

	// A write (append) must NOT fail over — it lands on the dead owner or
	// the live one, but never retries a node that already answered; with the
	// owner dead the router reports the upstream failure.
	status, _ := post(t, router.URL+"/v1/default/datasets/block/append", "text/csv", "x,y,z\n")
	if status == http.StatusOK {
		// Owner may be the live node, in which case the append succeeds.
		return
	}
	if status != http.StatusBadGateway {
		t.Fatalf("append to dead owner: status %d, want 502", status)
	}
}

func TestRouterFollowsPrimaryRedirect(t *testing.T) {
	primary, primaryTS := newDurablePrimary(t, t.TempDir())
	mustRegister(t, primary, "default", "block", blockCSV(2, 2, 2))

	follower, _, f := newFollowerNode(t, primaryTS.URL)
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatalf("SyncOnce: %v", err)
	}
	followerOnly := httptest.NewServer(service.NewHandler(follower))
	t.Cleanup(followerOnly.Close)

	// A router whose ring holds only the follower: writes arrive there, get
	// the 421 + X-Ajdloss-Primary answer, and must be retried against the
	// primary so the client still sees a 200.
	rt := NewRouter([]string{followerOnly.URL}, RouterOptions{})
	router := httptest.NewServer(rt.Handler())
	t.Cleanup(router.Close)

	status, body := post(t, router.URL+"/v1/default/datasets/block/append", "text/csv", "z0,z1,z2\n")
	if status != http.StatusOK {
		t.Fatalf("append through router against follower: status %d: %s", status, body)
	}
	if d, ok := primary.Registry().GetIn("default", "block"); !ok || d.Info().Rows != 2*2*2+1 {
		t.Fatalf("append did not land on the primary")
	}
}

// benchCluster builds two nodes with `shards` datasets spread across them by
// the ring, plus a router over both. Returns the router server and the
// dataset names.
func benchCluster(b *testing.B, shards int) (*httptest.Server, []string, []*httptest.Server) {
	svcA := service.New(256)
	tsA := httptest.NewServer(service.NewHandler(svcA))
	b.Cleanup(tsA.Close)
	svcB := service.New(256)
	tsB := httptest.NewServer(service.NewHandler(svcB))
	b.Cleanup(tsB.Close)
	rt := NewRouter([]string{tsA.URL, tsB.URL}, RouterOptions{})
	ring := NewRing([]string{tsA.URL, tsB.URL}) // the router's placement
	byURL := map[string]*service.Service{tsA.URL: svcA, tsB.URL: svcB}
	names := make([]string, shards)
	for i := range names {
		names[i] = fmt.Sprintf("shard%d", i)
		owner := ownerOf(ring, "default/"+names[i])
		mustRegister(b, byURL[owner], "default", names[i], blockCSV(3, 2, 2))
	}
	router := httptest.NewServer(rt.Handler())
	b.Cleanup(router.Close)
	return router, names, []*httptest.Server{tsA, tsB}
}

func benchPost(b *testing.B, url, body string) {
	b.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("POST %s: %d", url, resp.StatusCode)
	}
}

// BenchmarkRouterDirect is the baseline: the same single-dataset batch sent
// straight to the owning node, no router hop.
func BenchmarkRouterDirect(b *testing.B) {
	router, names, nodes := benchCluster(b, 1)
	_ = router
	body := fmt.Sprintf(`{"dataset":%q,"queries":[{"kind":"entropy","attrs":["A","B"]},{"kind":"distinct","attrs":["C"]}]}`, names[0])
	// Find the owner by asking each node directly.
	var owner string
	for _, ts := range nodes {
		resp, err := http.Get(ts.URL + "/v1/default/datasets/" + names[0] + "/schema")
		if err == nil {
			if resp.StatusCode == http.StatusOK {
				owner = ts.URL
			}
			resp.Body.Close()
		}
	}
	if owner == "" {
		b.Fatal("no owner found")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, owner+"/v1/default/batch", body)
	}
}

// BenchmarkRouterProxy measures the router hop on a single-dataset batch:
// subtracting BenchmarkRouterDirect gives the proxy overhead.
func BenchmarkRouterProxy(b *testing.B) {
	router, names, _ := benchCluster(b, 1)
	body := fmt.Sprintf(`{"dataset":%q,"queries":[{"kind":"entropy","attrs":["A","B"]},{"kind":"distinct","attrs":["C"]}]}`, names[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, router.URL+"/v1/default/batch", body)
	}
}

// BenchmarkRouterFanout measures a 4-dataset batch fanned out across two
// nodes and merged — one client round trip for four datasets.
func BenchmarkRouterFanout(b *testing.B) {
	router, names, _ := benchCluster(b, 4)
	body := fmt.Sprintf(`{"datasets":[%q,%q,%q,%q],"queries":[{"kind":"entropy","attrs":["A","B"]},{"kind":"distinct","attrs":["C"]}]}`,
		names[0], names[1], names[2], names[3])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, router.URL+"/v1/default/batch", body)
	}
}

// BenchmarkReplicaTail measures one append-then-sync round trip: the
// steady-state cost of keeping a follower current.
func BenchmarkReplicaTail(b *testing.B) {
	primary, primaryTS := newDurablePrimary(b, b.TempDir())
	mustRegister(b, primary, "default", "block", blockCSV(3, 2, 2))
	_, _, f := newFollowerNode(b, primaryTS.URL)
	ctx := context.Background()
	if err := f.SyncOnce(ctx); err != nil {
		b.Fatalf("bootstrap SyncOnce: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := fmt.Sprintf("bench%d", i)
		if _, err := primary.AppendIn("default", "block", [][]string{{rec, rec, rec}}, false); err != nil {
			b.Fatalf("AppendIn: %v", err)
		}
		if err := f.SyncOnce(ctx); err != nil {
			b.Fatalf("SyncOnce: %v", err)
		}
	}
	b.StopTimer()
	_ = time.Now()
}

// benchRouterHop measures one proxied read hop (router → node) under
// parallel load with the given client (nil = the router's tuned default).
// The request is LRU-cached on the node, so the measurement isolates the
// HTTP hop itself — connection reuse, not analysis time.
func benchRouterHop(b *testing.B, client *http.Client) {
	svc := service.New(64)
	mustRegister(b, svc, "default", "block", blockCSV(3, 2, 2))
	node := httptest.NewServer(service.NewHandler(svc))
	b.Cleanup(node.Close)
	rt := NewRouter([]string{node.URL}, RouterOptions{Client: client})
	router := httptest.NewServer(rt.Handler())
	b.Cleanup(router.Close)
	url := router.URL + "/v1/default/entropy?dataset=block&attrs=A"
	// The load generator gets a generously pooled transport of its own, so
	// the client → router leg never competes for idle connections and the
	// numbers isolate the router → node leg under comparison.
	outer := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 256}}
	b.Cleanup(outer.CloseIdleConnections)
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := outer.Get(url)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %s", resp.Status)
			}
		}
	})
}

// BenchmarkRouterHop uses the router's default client: the shared transport
// with per-host idle pools sized for a node fleet.
func BenchmarkRouterHop(b *testing.B) { benchRouterHop(b, nil) }

// BenchmarkRouterHopDefaultTransport is the before-number: a plain client on
// http.DefaultTransport (2 idle connections per host), which re-dials the
// node on most parallel hops.
func BenchmarkRouterHopDefaultTransport(b *testing.B) {
	benchRouterHop(b, &http.Client{Timeout: 60 * time.Second})
}
