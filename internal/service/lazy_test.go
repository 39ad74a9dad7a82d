package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ajdloss/internal/fd"
)

// rawReq issues a request and returns the exact response body — the parity
// tests below compare bodies byte for byte, not decoded values.
func rawReq(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// lazyParityRequests is the request set every lazy/eager pair must answer
// identically: /analyze, a multi-kind /batch (entropy, conditional entropy,
// MI, CMI, FD, distinct), and the dataset listing.
var lazyParityRequests = []struct {
	name, method, path, body string
}{
	{"analyze", "GET", "/analyze?dataset=block&schema=A,C%3BB,C", ""},
	{"analyze-chain", "GET", "/analyze?dataset=block&schema=A,B%3BB,C", ""},
	{"batch", "POST", "/batch", `{
		"dataset": "block",
		"queries": [
			{"kind": "entropy", "attrs": ["A"]},
			{"kind": "entropy", "attrs": ["A", "B"], "given": ["C"]},
			{"kind": "conditional_entropy", "attrs": ["B"], "given": ["C"]},
			{"kind": "mi", "a": ["A"], "b": ["B"]},
			{"kind": "cmi", "a": ["A"], "b": ["B"], "given": ["C"]},
			{"kind": "fd", "x": ["A", "B", "C"], "y": ["A"]},
			{"kind": "fd", "x": ["C"], "y": ["A"]},
			{"kind": "distinct", "attrs": ["A", "B", "C"]}
		]
	}`},
}

// seedCleanStore registers a dataset, appends two batches, and folds
// everything into a fresh checkpoint, leaving the WAL with nothing past the
// checkpointed generation — the on-disk state a graceful shutdown produces,
// which the next EnableDurability adopts lazily.
func seedCleanStore(t *testing.T, dir string) {
	t.Helper()
	s, _ := newDurableService(t, dir, 16)
	if _, err := s.Registry().RegisterIn("default", "block", strings.NewReader(blockCSV(3, 2, 2)), true); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendIn("default", "block", [][]string{{"991", "992", "9"}, {"993", "994", "9"}}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendIn("default", "block", [][]string{{"995", "996", "8"}}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CheckpointIn("default", "block"); err != nil {
		t.Fatal(err)
	}
}

// TestLazyRecoveryParity is the lazy-checkpoint acceptance test: a dataset
// recovered lazily (header only, columns decoded on first access) must
// answer every /analyze and /batch request — and every fd.Holds verdict —
// byte-identically to an eagerly materialized recovery of the same store,
// including after a post-recovery append.
func TestLazyRecoveryParity(t *testing.T) {
	dir := t.TempDir()
	seedCleanStore(t, dir)

	sLazy, recLazy := newDurableService(t, dir, 16)
	if len(recLazy) != 1 || !recLazy[0].Lazy || recLazy[0].ReplayedRows != 0 {
		t.Fatalf("clean store should recover lazily: %+v", recLazy)
	}
	if recLazy[0].Rows != 15 || recLazy[0].Generation != 3 {
		t.Fatalf("lazy recovery header state: %+v", recLazy[0])
	}
	dLazy, _ := sLazy.Registry().GetIn("default", "block")
	if dLazy.Materialized() {
		t.Fatal("dataset materialized at boot despite lazy recovery")
	}

	sEager, recEager := newDurableService(t, dir, 16)
	if err := sEager.MaterializeAll(); err != nil {
		t.Fatal(err)
	}
	if len(recEager) != 1 || recEager[0].Rows != recLazy[0].Rows || recEager[0].Generation != recLazy[0].Generation {
		t.Fatalf("eager recovery diverges from lazy summary: %+v vs %+v", recEager, recLazy)
	}

	srvLazy := httptest.NewServer(NewHandler(sLazy))
	defer srvLazy.Close()
	srvEager := httptest.NewServer(NewHandler(sEager))
	defer srvEager.Close()

	compare := func(stage string) {
		t.Helper()
		for _, r := range lazyParityRequests {
			lazyCode, lazyBody := rawReq(t, r.method, srvLazy.URL+r.path, r.body)
			eagerCode, eagerBody := rawReq(t, r.method, srvEager.URL+r.path, r.body)
			if lazyCode != http.StatusOK {
				t.Fatalf("%s/%s: lazy status %d: %s", stage, r.name, lazyCode, lazyBody)
			}
			if lazyCode != eagerCode || lazyBody != eagerBody {
				t.Fatalf("%s/%s: lazy and eager answers differ:\n lazy  (%d) %s\n eager (%d) %s",
					stage, r.name, lazyCode, lazyBody, eagerCode, eagerBody)
			}
		}
		dL, _ := sLazy.Registry().GetIn("default", "block")
		dE, _ := sEager.Registry().GetIn("default", "block")
		for _, f := range []fd.FD{
			{X: []string{"C"}, Y: []string{"A"}},
			{X: []string{"A"}, Y: []string{"B", "C"}},
			{X: []string{"A", "B", "C"}, Y: []string{"A"}},
		} {
			got, err := fd.Holds(dL.View(), f)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fd.Holds(dE.View(), f)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s: fd.Holds(%v): lazy %v, eager %v", stage, f, got, want)
			}
		}
	}

	compare("recovered")
	if !dLazy.Materialized() {
		t.Fatal("first query should have materialized the lazy dataset")
	}
	// The materialized state must also match a cold rebuild of its own rows
	// (the deeper invariant behind the byte-level parity above).
	assertMatchesColdRebuild(t, sLazy, "block")

	// Post-recovery appends: both sides extend their recovered state with
	// the same batch and must stay in lockstep.
	batch := [][]string{{"71", "72", "7"}, {"73", "74", "7"}}
	vL, err := sLazy.AppendIn("default", "block", batch, false)
	if err != nil {
		t.Fatal(err)
	}
	vE, err := sEager.AppendIn("default", "block", batch, false)
	if err != nil {
		t.Fatal(err)
	}
	if vL.Generation != vE.Generation || vL.Rows != vE.Rows || vL.Generation != 4 {
		t.Fatalf("post-recovery append diverges: lazy %+v, eager %+v", vL, vE)
	}
	compare("after-append")
}

// TestLazyRecoveryAppendFirst hits the other materialization choke point: an
// append arriving before any query must decode the checkpoint, replay it,
// and then append — ending byte-identical to the eager service.
func TestLazyRecoveryAppendFirst(t *testing.T) {
	dir := t.TempDir()
	seedCleanStore(t, dir)

	sLazy, recLazy := newDurableService(t, dir, 16)
	if len(recLazy) != 1 || !recLazy[0].Lazy {
		t.Fatalf("expected lazy recovery: %+v", recLazy)
	}
	sEager, _ := newDurableService(t, dir, 16)
	if err := sEager.MaterializeAll(); err != nil {
		t.Fatal(err)
	}

	batch := [][]string{{"81", "82", "6"}}
	vL, err := sLazy.AppendIn("default", "block", batch, false)
	if err != nil {
		t.Fatal(err)
	}
	vE, err := sEager.AppendIn("default", "block", batch, false)
	if err != nil {
		t.Fatal(err)
	}
	if vL.Generation != vE.Generation || vL.Rows != vE.Rows {
		t.Fatalf("append-first diverges: lazy %+v, eager %+v", vL, vE)
	}

	srvLazy := httptest.NewServer(NewHandler(sLazy))
	defer srvLazy.Close()
	srvEager := httptest.NewServer(NewHandler(sEager))
	defer srvEager.Close()
	for _, r := range lazyParityRequests {
		lazyCode, lazyBody := rawReq(t, r.method, srvLazy.URL+r.path, r.body)
		eagerCode, eagerBody := rawReq(t, r.method, srvEager.URL+r.path, r.body)
		if lazyCode != eagerCode || lazyBody != eagerBody {
			t.Fatalf("%s: lazy and eager answers differ:\n lazy  (%d) %s\n eager (%d) %s",
				r.name, lazyCode, lazyBody, eagerCode, eagerBody)
		}
	}
	assertMatchesColdRebuild(t, sLazy, "block")
}

// TestLazyCheckpointSkippedUntilTouched: the shutdown checkpoint sweep must
// not materialize untouched lazy datasets (their on-disk state is already
// current), but must checkpoint them once they have been written to.
func TestLazyCheckpointSkippedUntilTouched(t *testing.T) {
	dir := t.TempDir()
	seedCleanStore(t, dir)

	s, rec := newDurableService(t, dir, 16)
	if len(rec) != 1 || !rec[0].Lazy {
		t.Fatalf("expected lazy recovery: %+v", rec)
	}
	if errs := s.CheckpointAll(); len(errs) != 0 {
		t.Fatalf("CheckpointAll on untouched lazy dataset: %v", errs)
	}
	d, _ := s.Registry().GetIn("default", "block")
	if d.Materialized() {
		t.Fatal("CheckpointAll materialized an untouched lazy dataset")
	}
	if _, err := s.AppendIn("default", "block", [][]string{{"61", "62", "5"}}, false); err != nil {
		t.Fatal(err)
	}
	if errs := s.CheckpointAll(); len(errs) != 0 {
		t.Fatalf("CheckpointAll after touch: %v", errs)
	}
	// The fresh checkpoint covers the append, so the next boot is lazy again
	// at the new generation.
	s2, rec2 := newDurableService(t, dir, 16)
	if len(rec2) != 1 || !rec2[0].Lazy || rec2[0].Rows != 16 || rec2[0].Generation != 4 {
		t.Fatalf("re-recovery after checkpointed append: %+v", rec2)
	}
	if err := s2.MaterializeAll(); err != nil {
		t.Fatal(err)
	}
	assertMatchesColdRebuild(t, s2, "block")
}
