package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ajdloss/internal/persist"
)

// syncFollower drains the primary's replication surface into the follower for
// one dataset, the way the replica tailer does: bootstrap from the snapshot
// when the cursor is unset or compacted past, then apply the WAL tail.
func syncFollower(t *testing.T, primary, follower *Service, ns, name string) {
	t.Helper()
	from := int64(0)
	if d, ok := follower.Registry().GetIn(ns, name); ok {
		from = d.Generation()
	}
	bootstrap := from == 0
	if !bootstrap {
		if _, _, err := primary.WALExport(ns, name, from); errors.Is(err, persist.ErrCompacted) {
			bootstrap = true
		}
	}
	if bootstrap {
		snap, _, err := primary.SnapshotExport(ns, name)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := follower.ReplicaAdopt(ns, name, snap)
		if err != nil {
			t.Fatal(err)
		}
		from = gen
	}
	raw, _, err := primary.WALExport(ns, name, from)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := follower.ReplicaApply(ns, name, raw); err != nil {
		t.Fatal(err)
	}
}

// mustJSON marshals v the way writeJSON would, so "byte-identical response"
// comparisons compare what a client actually receives.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestReplicationRoundTrip drives the full snapshot-bootstrap + WAL-tail
// cycle between two in-process services and asserts the follower's batch
// answers are byte-identical to the primary's at every step — same rows,
// same generation, same JSON.
func TestReplicationRoundTrip(t *testing.T) {
	primary, _ := newDurableService(t, t.TempDir(), 16)
	if _, err := primary.Registry().RegisterIn("default", "block", strings.NewReader(blockCSV(3, 2, 2)), true); err != nil {
		t.Fatal(err)
	}
	follower := New(16)
	follower.SetPrimary("http://primary.invalid:7777")

	qs := []BatchQuery{
		{Kind: "entropy", Attrs: []string{"A", "B"}},
		{Kind: "mi", A: []string{"A"}, B: []string{"B"}},
		{Kind: "fd", X: []string{"C"}, Y: []string{"A"}},
		{Kind: "distinct", Attrs: []string{"C"}},
	}
	check := func(step string) {
		t.Helper()
		want, err := primary.BatchIn("default", "block", qs)
		if err != nil {
			t.Fatalf("%s: primary batch: %v", step, err)
		}
		got, err := follower.BatchIn("default", "block", qs)
		if err != nil {
			t.Fatalf("%s: follower batch: %v", step, err)
		}
		if w, g := mustJSON(t, want), mustJSON(t, got); w != g {
			t.Fatalf("%s: follower diverged\nprimary:  %s\nfollower: %s", step, w, g)
		}
	}

	syncFollower(t, primary, follower, "default", "block")
	check("after bootstrap")

	// Ordinary appends ship through the WAL tail (one includes duplicates, so
	// applied rows != shipped rows — the idempotent replay must agree).
	if _, err := primary.AppendIn("default", "block", [][]string{{"991", "992", "9"}, {"993", "994", "9"}}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.AppendIn("default", "block", [][]string{{"991", "992", "9"}, {"995", "996", "9"}}, false); err != nil {
		t.Fatal(err)
	}
	syncFollower(t, primary, follower, "default", "block")
	check("after WAL tail")

	// Compaction on the primary invalidates the follower's cursor; the next
	// sync must detect ErrCompacted and re-bootstrap, not skip records.
	if _, err := primary.CheckpointIn("default", "block"); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.AppendIn("default", "block", [][]string{{"997", "998", "9"}}, false); err != nil {
		t.Fatal(err)
	}
	// A stale cursor (pre-checkpoint) must answer ErrCompacted, never a gap.
	if _, _, err := primary.WALExport("default", "block", 1); !errors.Is(err, persist.ErrCompacted) {
		t.Fatalf("stale cursor after compaction: %v, want ErrCompacted", err)
	}
	syncFollower(t, primary, follower, "default", "block")
	check("after compaction re-bootstrap")

	// The primary removes the dataset; the follower mirrors it even though it
	// is in follower mode.
	if !primary.RemoveIn("default", "block") {
		t.Fatal("primary remove failed")
	}
	if !follower.RemoveIn("default", "block") {
		t.Fatal("follower RemoveIn failed")
	}
	if _, ok := follower.Registry().GetIn("default", "block"); ok {
		t.Fatal("dataset still on follower after RemoveIn")
	}
}

// TestFollowerRejectsWrites pins the follower contract: every write path
// fails with the typed redirect (421 + X-Ajdloss-Primary over HTTP) while
// reads keep serving, and clearing the primary restores writes.
func TestFollowerRejectsWrites(t *testing.T) {
	s := newTestService(t, 16)
	const primaryURL = "http://primary.invalid:7777"
	s.SetPrimary(primaryURL)
	var np *NotPrimaryError
	if err := s.FollowerError(); !errors.As(err, &np) || np.Primary != primaryURL {
		t.Fatalf("FollowerError() = %v, want a redirect to %q", err, primaryURL)
	}

	if _, err := s.Registry().RegisterIn("default", "other", strings.NewReader("A\n1\n"), true); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("register on follower: %v, want ErrNotPrimary", err)
	}
	if _, err := s.AppendIn("default", "block", [][]string{{"1", "2", "3"}}, false); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("append on follower: %v, want ErrNotPrimary", err)
	}
	if _, err := s.CheckpointIn("default", "block"); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("checkpoint on follower: %v, want ErrNotPrimary", err)
	}
	if _, err := s.AnalyzeIn("default", "block", "A,C;B,C"); err != nil {
		t.Fatalf("read on follower: %v", err)
	}

	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()
	for _, tc := range []struct{ method, path, body string }{
		{"POST", "/datasets?name=x", "A\n1\n"},
		{"POST", "/datasets/block/append", "52,62,7\n"},
		{"DELETE", "/datasets/block", ""},
		{"POST", "/v1/default/datasets?name=x", "A\n1\n"},
		{"DELETE", "/v1/default/datasets/block", ""},
	} {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var envelope struct {
			Error   string `json:"error"`
			Primary string `json:"primary"`
		}
		err = json.NewDecoder(resp.Body).Decode(&envelope)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMisdirectedRequest {
			t.Errorf("%s %s on follower = %d, want 421", tc.method, tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Ajdloss-Primary"); got != primaryURL {
			t.Errorf("%s %s X-Ajdloss-Primary = %q, want %q", tc.method, tc.path, got, primaryURL)
		}
		// The body is the published redirect_error envelope: error + primary.
		if err != nil || envelope.Error == "" || envelope.Primary != primaryURL {
			t.Errorf("%s %s 421 body = %+v (err %v), want redirect_error envelope naming %q",
				tc.method, tc.path, envelope, err, primaryURL)
		}
	}
	resp, err := http.Get(srv.URL + "/analyze?dataset=block&schema=A,C|B,C")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read on follower over HTTP = %d, want 200", resp.StatusCode)
	}

	s.SetPrimary("")
	if _, err := s.AppendIn("default", "block", [][]string{{"52", "62", "7"}}, false); err != nil {
		t.Fatalf("append after clearing primary: %v", err)
	}
}

// TestRemoveReleasesQuotaRows is the register→remove-loop regression: with a
// tight MaxRows quota, cycling a dataset many times must never exhaust the
// budget, and the namespace row total must return to zero.
func TestRemoveReleasesQuotaRows(t *testing.T) {
	s := New(16)
	s.Registry().SetDefaultQuotas(Quotas{MaxRows: 15})
	for i := 0; i < 50; i++ {
		if _, err := s.Registry().RegisterIn("tenant", "d", strings.NewReader(blockCSV(3, 2, 2)), true); err != nil {
			t.Fatalf("cycle %d: register: %v (row budget leaked by remove)", i, err)
		}
		if !s.RemoveIn("tenant", "d") {
			t.Fatalf("cycle %d: remove failed", i)
		}
	}
	if st, _ := s.Registry().NamespaceStats("tenant"); st.Rows != 0 {
		t.Fatalf("namespace rows after register/remove loop = %d, want 0", st.Rows)
	}
}

// TestRemoveAppendRaceNoQuotaLeak covers the remove-vs-append race: an
// append through a dataset pointer grabbed before the removal must fail on
// the removed latch instead of reserving rows nothing will release, and
// under a concurrent hammering of the two paths the namespace row total must
// balance back to zero.
func TestRemoveAppendRaceNoQuotaLeak(t *testing.T) {
	s := New(16)
	s.Registry().SetDefaultQuotas(Quotas{MaxRows: 1000})

	// Deterministic interleaving first: stale pointer, remove, append.
	d, err := s.Registry().RegisterIn("tenant", "d", strings.NewReader("A,B\n1,2\n"), true)
	if err != nil {
		t.Fatal(err)
	}
	if !s.RemoveIn("tenant", "d") {
		t.Fatal("remove failed")
	}
	if _, _, _, _, err := d.Append([][]string{{"3", "4"}}, false); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("append through removed dataset: %v, want ErrUnknownDataset", err)
	}
	if st, _ := s.Registry().NamespaceStats("tenant"); st.Rows != 0 {
		t.Fatalf("rows after stale append = %d, want 0", st.Rows)
	}

	// Then the same race under concurrency: appenders race removers on the
	// same names; whatever interleaving happens, the final total must be 0.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		name := fmt.Sprintf("race%d", w)
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				d, err := s.Registry().RegisterIn("tenant", name, strings.NewReader("A,B\n1,2\n"), true)
				if err != nil {
					continue // remover won or budget transiently held; try again
				}
				_, _, _, _, _ = d.Append([][]string{{fmt.Sprint(i), "x"}}, false)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				s.RemoveIn("tenant", name)
			}
		}()
	}
	wg.Wait()
	for _, name := range []string{"race0", "race1", "race2", "race3"} {
		s.RemoveIn("tenant", name)
	}
	if st, _ := s.Registry().NamespaceStats("tenant"); st.Rows != 0 {
		t.Fatalf("rows after remove/append hammering = %d, want 0 (quota leaked)", st.Rows)
	}
}

// TestAppendWALFailureReleasesQuota is the fault-injection sweep over
// Dataset.Append's error paths: a WAL write failure (injected by closing the
// store's append handle) must fail the append with ErrStore and leave the
// namespace row budget exactly where it was, so storage errors cannot bleed
// quota.
func TestAppendWALFailureReleasesQuota(t *testing.T) {
	s, _ := newDurableService(t, t.TempDir(), 16)
	s.Registry().SetDefaultQuotas(Quotas{MaxRows: 20})
	d, err := s.Registry().RegisterIn("tenant", "d", strings.NewReader("A,B\n1,2\n"), true)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := s.Registry().NamespaceStats("tenant")

	d.store.Close() // every later WAL write now fails
	for i := 0; i < 10; i++ {
		_, err := s.AppendIn("tenant", "d", [][]string{{fmt.Sprint(100 + i), "y"}, {fmt.Sprint(200 + i), "y"}}, false)
		if !errors.Is(err, ErrStore) {
			t.Fatalf("append %d with failing WAL: %v, want ErrStore", i, err)
		}
	}
	after, _ := s.Registry().NamespaceStats("tenant")
	if after.Rows != before.Rows {
		t.Fatalf("failed appends moved namespace rows %d -> %d (reservation leaked)", before.Rows, after.Rows)
	}
	// The untouched budget must still admit a full-size batch; only the WAL
	// is broken, so the quota check passes and the append fails on storage —
	// proving reservations from the failed attempts were all returned.
	if _, err := s.AppendIn("tenant", "d", [][]string{
		{"300", "y"}, {"301", "y"}, {"302", "y"}, {"303", "y"}, {"304", "y"},
		{"305", "y"}, {"306", "y"}, {"307", "y"}, {"308", "y"}, {"309", "y"},
		{"310", "y"}, {"311", "y"}, {"312", "y"}, {"313", "y"}, {"314", "y"},
		{"315", "y"}, {"316", "y"}, {"317", "y"}, {"318", "y"},
	}, false); errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("full-budget batch rejected on quota after failed appends: %v", err)
	}
}

// TestReservedDatasetNames: names the /v1 router cannot address are rejected
// at registration with a clear 400 instead of becoming unreachable datasets.
func TestReservedDatasetNames(t *testing.T) {
	s := New(16)
	for _, name := range []string{"schemas", "namespaces", "a/b", `a\b`, ".", "..", ""} {
		if _, err := s.Registry().RegisterIn("default", name, strings.NewReader("A\n1\n"), true); err == nil {
			t.Errorf("dataset name %q accepted", name)
		}
	}
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/default/datasets?name=schemas", "text/csv", strings.NewReader("A\n1\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, "reserved") {
		t.Fatalf("registering 'schemas' = %d %q, want 400 naming the reservation", resp.StatusCode, body.Error)
	}
}
