package service

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ajdloss/internal/fd"
	"ajdloss/internal/infotheory"
	"ajdloss/internal/persist"
	"ajdloss/internal/relation"
)

// newDurableService opens a store rooted at dir and returns a service with
// durability enabled, plus the datasets it recovered.
func newDurableService(t testing.TB, dir string, cacheSize int) (*Service, []RecoveredDataset) {
	t.Helper()
	store, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(cacheSize)
	recovered, err := s.EnableDurability(store)
	if err != nil {
		t.Fatal(err)
	}
	return s, recovered
}

// TestDurableRoundTrip: register + append durably, recover into a fresh
// service, and check rows, generation, and analysis answers are identical —
// byte-identical for the JSON the HTTP layer would emit.
func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1, recovered := newDurableService(t, dir, 16)
	if len(recovered) != 0 {
		t.Fatalf("fresh store recovered %v", recovered)
	}
	if _, err := s1.Registry().RegisterIn("default", "block", strings.NewReader(blockCSV(3, 2, 2)), true); err != nil {
		t.Fatal(err)
	}
	// Two appends: fresh rows (bump) and a pure-duplicate batch (no bump).
	if _, err := s1.AppendIn("default", "block", [][]string{{"991", "992", "9"}, {"993", "994", "9"}}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.AppendIn("default", "block", [][]string{{"991", "992", "9"}}, false); err != nil {
		t.Fatal(err)
	}
	wantInfo := s1.Registry().All()[0].Info()
	if wantInfo.Generation != 2 || wantInfo.Rows != 14 {
		t.Fatalf("pre-crash state: %+v", wantInfo)
	}
	wantAnalyze, err := s1.AnalyzeIn("default", "block", "A,C;B,C")
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(wantAnalyze)

	s2, recovered := newDurableService(t, dir, 16)
	if len(recovered) != 1 {
		t.Fatalf("recovered %v", recovered)
	}
	r := recovered[0]
	if r.Name != "block" || r.Rows != 14 || r.Generation != 2 || r.CheckpointGeneration != 1 || r.ReplayedRows != 2 {
		t.Fatalf("recovery summary: %+v", r)
	}
	gotAnalyze, err := s2.AnalyzeIn("default", "block", "A,C;B,C")
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(gotAnalyze)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("recovered analyze differs:\n got %s\nwant %s", gotJSON, wantJSON)
	}
	// Appends continue cleanly after recovery (generation chain intact).
	v, err := s2.AppendIn("default", "block", [][]string{{"995", "996", "9"}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if v.Generation != 3 || v.Rows != 15 {
		t.Fatalf("post-recovery append: %+v", v)
	}
}

// TestDurableCheckpointAndCompaction: a manual checkpoint folds the WAL
// away, recovery from checkpoint-only state works, and /stats reports the
// durable state.
func TestDurableCheckpointAndCompaction(t *testing.T) {
	dir := t.TempDir()
	s1, _ := newDurableService(t, dir, 16)
	if _, err := s1.Registry().RegisterIn("default", "block", strings.NewReader(blockCSV(3, 2, 2)), true); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.AppendIn("default", "block", [][]string{{"991", "992", "9"}}, false); err != nil {
		t.Fatal(err)
	}
	st := s1.Stats()
	dur, ok := st.Durability["block"]
	if !ok || dur.WALBytes == 0 || dur.LastCheckpoint != 1 || dur.Checkpoints != 1 {
		t.Fatalf("pre-checkpoint durability: %+v", st.Durability)
	}
	ck, err := s1.CheckpointIn("default", "block")
	if err != nil {
		t.Fatal(err)
	}
	if ck.Generation != 2 || ck.Rows != 13 || ck.WALBytes != 0 {
		t.Fatalf("checkpoint view: %+v", ck)
	}
	st = s1.Stats()
	dur = st.Durability["block"]
	if dur.WALBytes != 0 || dur.LastCheckpoint != 2 || dur.Checkpoints != 2 || st.Checkpoints != 2 {
		t.Fatalf("post-checkpoint durability: %+v (stats %+v)", dur, st)
	}
	s2, recovered := newDurableService(t, dir, 16)
	if len(recovered) != 1 || recovered[0].Generation != 2 || recovered[0].Rows != 13 || recovered[0].ReplayedRows != 0 {
		t.Fatalf("recovery after checkpoint: %+v", recovered)
	}
	if _, err := s2.CheckpointIn("default", "nope"); err == nil {
		t.Fatal("checkpoint of unknown dataset accepted")
	}
	// Non-durable service: checkpoint is a clean client error.
	s3 := newTestService(t, 4)
	if _, err := s3.CheckpointIn("default", "block"); err == nil {
		t.Fatal("checkpoint without a store accepted")
	}
}

// TestDurableRemove: DELETE erases the dataset's durable directory so it
// cannot resurrect at the next boot, and re-registration starts fresh.
func TestDurableRemove(t *testing.T) {
	dir := t.TempDir()
	s1, _ := newDurableService(t, dir, 16)
	if _, err := s1.Registry().RegisterIn("default", "block", strings.NewReader(blockCSV(2, 2, 2)), true); err != nil {
		t.Fatal(err)
	}
	if entries, _ := os.ReadDir(filepath.Join(dir, "default")); len(entries) != 1 {
		t.Fatalf("store dir entries: %v", entries)
	}
	if !s1.RemoveIn("default", "block") {
		t.Fatal("remove failed")
	}
	if entries, _ := os.ReadDir(filepath.Join(dir, "default")); len(entries) != 0 {
		t.Fatalf("durable dir survived removal: %v", entries)
	}
	_, recovered := newDurableService(t, dir, 16)
	if len(recovered) != 0 {
		t.Fatalf("removed dataset resurrected: %+v", recovered)
	}
}

// TestDurableHTTPCheckpoint drives the checkpoint endpoint and the
// durability stats through the HTTP handler.
func TestDurableHTTPCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, _ := newDurableService(t, dir, 16)
	if _, err := s.Registry().RegisterIn("default", "block", strings.NewReader(blockCSV(2, 2, 2)), true); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL+"/datasets/block/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("checkpoint status %d", resp.StatusCode)
	}
	var v CheckpointView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.Dataset != "block" || v.Generation != 1 || v.WALBytes != 0 {
		t.Fatalf("checkpoint response: %+v", v)
	}
	resp2, err := srv.Client().Post(srv.URL+"/datasets/none/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 404 {
		t.Fatalf("checkpoint of unknown dataset: status %d", resp2.StatusCode)
	}
}

// TestDurableSizeTriggeredCompaction: appends past the store's CompactAt
// threshold fold the WAL into a checkpoint in the background.
func TestDurableSizeTriggeredCompaction(t *testing.T) {
	dir := t.TempDir()
	store, err := persist.Open(dir, persist.Options{CompactAt: 256})
	if err != nil {
		t.Fatal(err)
	}
	s := New(16)
	if _, err := s.EnableDurability(store); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().RegisterIn("default", "block", strings.NewReader(blockCSV(2, 2, 2)), true); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// Let an in-flight background compaction finish before TempDir's
		// cleanup removes the directory it writes into.
		if d, ok := s.Registry().GetIn("default", "block"); ok {
			for d.compacting.Load() {
				time.Sleep(time.Millisecond)
			}
		}
	})
	for i := 0; i < 40; i++ {
		if _, err := s.AppendIn("default", "block", [][]string{{fmt.Sprint(1000 + i), fmt.Sprint(2000 + i), "7"}}, false); err != nil {
			t.Fatal(err)
		}
	}
	// The background compaction is async; wait for at least one to land.
	deadline := 200
	for ; deadline > 0; deadline-- {
		if s.Stats().Durability["block"].Checkpoints > 1 {
			break
		}
		if s.Stats().CheckpointErrors > 0 {
			t.Fatalf("background compaction failed: %+v", s.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if deadline == 0 {
		t.Fatalf("size-triggered compaction never ran: %+v", s.Stats())
	}
	// Whatever the interleaving, recovery must see the full state.
	s2, recovered := newDurableService(t, dir, 16)
	if len(recovered) != 1 || recovered[0].Rows != 8+40 {
		t.Fatalf("recovery after compaction: %+v", recovered)
	}
	h1, err := s.EntropyIn("default", "block", []string{"A", "B", "C"}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := s2.EntropyIn("default", "block", []string{"A", "B", "C"}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h1.Nats != h2.Nats || h1.Generation != h2.Generation {
		t.Fatalf("entropy after compaction: live %+v recovered %+v", h1, h2)
	}
}

// TestDurableCompactionRechecksAfterInFlight replays the interleaving in
// which a background compaction captures its view, appends land while it is
// in flight (their triggers find the latch taken and skip), and its
// checkpoint leaves those appends in the WAL above the threshold. Ending the
// compaction must start another one: no later append may ever come to
// trigger it.
func TestDurableCompactionRechecksAfterInFlight(t *testing.T) {
	dir := t.TempDir()
	store, err := persist.Open(dir, persist.Options{CompactAt: 256})
	if err != nil {
		t.Fatal(err)
	}
	s := New(16)
	if _, err := s.EnableDurability(store); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().RegisterIn("default", "block", strings.NewReader(blockCSV(2, 2, 2)), true); err != nil {
		t.Fatal(err)
	}
	d, _ := s.Registry().GetIn("default", "block")
	t.Cleanup(func() {
		for d.compacting.Load() {
			time.Sleep(time.Millisecond)
		}
	})
	// The in-flight compaction: latch taken, view captured.
	d.compacting.Store(true)
	d.appendMu.Lock()
	view, dicts := d.View(), d.Enc.Dictionaries()
	d.appendMu.Unlock()
	for i := 0; d.store.WALBytes() < 256; i++ {
		if _, err := s.AppendIn("default", "block", [][]string{{fmt.Sprint(1000 + i), fmt.Sprint(2000 + i), "7"}}, false); err != nil {
			t.Fatal(err)
		}
	}
	err = d.store.WriteCheckpoint(checkpointOf(d.Name, view, dicts))
	if d.store.WALBytes() < 256 {
		t.Fatalf("stale checkpoint left %d WAL bytes, want the appends after its view", d.store.WALBytes())
	}
	s.endCompaction(d, &CheckpointView{Generation: view.Generation()}, err)
	deadline := time.Now().Add(10 * time.Second)
	for d.store.WALBytes() >= 256 {
		if time.Now().After(deadline) {
			t.Fatalf("WAL holds %d bytes after the compaction ended; no compaction followed (stats %+v)", d.store.WALBytes(), s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDurableCompactionDuplicateBatchSettles appends one batch of duplicate
// rows big enough to put the WAL over the threshold. Its no-op record
// carries a generation the view never reaches, so no checkpoint can drop it;
// the compaction it triggers must end there rather than checkpoint again
// and again while no row lands.
func TestDurableCompactionDuplicateBatchSettles(t *testing.T) {
	dir := t.TempDir()
	store, err := persist.Open(dir, persist.Options{CompactAt: 256})
	if err != nil {
		t.Fatal(err)
	}
	s := New(16)
	if _, err := s.EnableDurability(store); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().RegisterIn("default", "block", strings.NewReader(blockCSV(2, 2, 2)), true); err != nil {
		t.Fatal(err)
	}
	d, _ := s.Registry().GetIn("default", "block")
	t.Cleanup(func() {
		for d.compacting.Load() {
			time.Sleep(time.Millisecond)
		}
	})
	var dups [][]string
	for len(dups) < 64 {
		for _, line := range strings.Split(strings.TrimSpace(blockCSV(2, 2, 2)), "\n")[1:] {
			dups = append(dups, strings.Split(line, ","))
		}
	}
	before := d.checkpoints.Load()
	if v, err := s.AppendIn("default", "block", dups, false); err != nil || v.Appended != 0 {
		t.Fatalf("duplicate batch: %+v, %v", v, err)
	}
	if d.store.WALBytes() < 256 {
		t.Fatalf("duplicate batch left %d WAL bytes, want at least the threshold", d.store.WALBytes())
	}
	deadline := time.Now().Add(10 * time.Second)
	for d.checkpoints.Load() == before || d.compacting.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("compaction never ran or never ended: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	if got := d.checkpoints.Load() - before; got != 1 || d.compacting.Load() {
		t.Fatalf("%d checkpoints after one duplicate batch (compacting %v), want 1 and settled", got, d.compacting.Load())
	}
}

// TestDurableConcurrentAppends: concurrent appenders against a durable
// dataset; afterwards a recovered service matches the live one exactly.
func TestDurableConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	s1, _ := newDurableService(t, dir, 16)
	if _, err := s1.Registry().RegisterIn("default", "block", strings.NewReader(blockCSV(2, 2, 2)), true); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				rec := []string{fmt.Sprint(100*g + i), fmt.Sprint(200*g + i), fmt.Sprint(g)}
				if _, err := s1.AppendIn("default", "block", [][]string{rec}, false); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	live := s1.Registry().All()[0].Info()
	s2, recovered := newDurableService(t, dir, 16)
	if len(recovered) != 1 {
		t.Fatalf("recovered: %+v", recovered)
	}
	got := s2.Registry().All()[0].Info()
	if got.Rows != live.Rows || got.Generation != live.Generation {
		t.Fatalf("recovered %+v != live %+v", got, live)
	}
	// Row ORDER must match too (group IDs and their JSON depend on it):
	// compare the full-schema entropy and a per-pair MI, which are
	// order-sensitive in float summation.
	for _, attrs := range [][]string{{"A"}, {"A", "B"}, {"A", "B", "C"}} {
		e1, err := s1.EntropyIn("default", "block", attrs, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		e2, err := s2.EntropyIn("default", "block", attrs, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if e1.Nats != e2.Nats {
			t.Fatalf("H(%v): live %v recovered %v", attrs, e1.Nats, e2.Nats)
		}
	}
}

// TestCrashRecoveryTruncatedWAL is the crash-injection sweep: a dataset's
// WAL is cut at EVERY byte boundary of its final record (simulating a kill
// mid-write at each possible instant) and recovery must always come back
// consistent — either with or without the final batch, and in both cases
// GroupCounts/Entropy/fd.Holds must equal a cold rebuild over exactly the
// recovered rows.
func TestCrashRecoveryTruncatedWAL(t *testing.T) {
	dir := t.TempDir()
	s1, _ := newDurableService(t, dir, 16)
	if _, err := s1.Registry().RegisterIn("default", "d", strings.NewReader(blockCSV(2, 2, 2)), true); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.AppendIn("default", "d", [][]string{{"51", "52", "5"}, {"53", "54", "5"}}, false); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "default", "d", "wal.log")
	intact, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	preLen := int64(len(intact))
	if _, err := s1.AppendIn("default", "d", [][]string{{"61", "62", "6"}, {"63", "64", "6"}}, false); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	ckptData, err := os.ReadFile(filepath.Join(dir, "default", "d", "checkpoint.ckpt"))
	if err != nil {
		t.Fatal(err)
	}

	for cut := preLen; cut <= int64(len(full)); cut++ {
		sub := t.TempDir()
		if err := os.MkdirAll(filepath.Join(sub, "default", "d"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sub, "default", "d", "checkpoint.ckpt"), ckptData, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sub, "default", "d", "wal.log"), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, recovered := newDurableService(t, sub, 16)
		if len(recovered) != 1 {
			t.Fatalf("cut %d: recovered %+v", cut, recovered)
		}
		r := recovered[0]
		wantRows, wantGen := 10, int64(2) // first append replayed, second torn off
		if cut == int64(len(full)) {
			wantRows, wantGen = 12, 3
		}
		if r.Rows != wantRows || r.Generation != wantGen || r.DroppedRecords != 0 {
			t.Fatalf("cut %d: recovered %+v, want rows=%d gen=%d", cut, r, wantRows, wantGen)
		}
		assertMatchesColdRebuild(t, s2, "d")
	}
}

// assertMatchesColdRebuild checks the recovered dataset's measures against a
// relation rebuilt cold from the recovered rows: identical GroupCounts on
// every attribute subset, identical entropies, identical fd.Holds verdicts.
func assertMatchesColdRebuild(t *testing.T, s *Service, name string) {
	t.Helper()
	d, ok := s.Registry().GetIn("default", name)
	if !ok {
		t.Fatal("recovered dataset missing")
	}
	view := d.View()
	cold := relation.FromRows(view.Attrs(), view.Rows())
	attrs := view.Attrs()
	subsets := [][]string{}
	for i := range attrs {
		subsets = append(subsets, []string{attrs[i]})
		for j := i + 1; j < len(attrs); j++ {
			subsets = append(subsets, []string{attrs[i], attrs[j]})
		}
	}
	subsets = append(subsets, attrs)
	for _, sub := range subsets {
		gotCounts, err := view.GroupCounts(sub...)
		if err != nil {
			t.Fatal(err)
		}
		wantCounts, err := cold.GroupCounts(sub...)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotCounts) != len(wantCounts) {
			t.Fatalf("GroupCounts(%v): %d groups recovered, %d cold", sub, len(gotCounts), len(wantCounts))
		}
		for i := range gotCounts {
			if gotCounts[i] != wantCounts[i] {
				t.Fatalf("GroupCounts(%v)[%d]: %d recovered, %d cold", sub, i, gotCounts[i], wantCounts[i])
			}
		}
		gotH, err := infotheory.Entropy(view, sub...)
		if err != nil {
			t.Fatal(err)
		}
		wantH, err := infotheory.Entropy(cold, sub...)
		if err != nil {
			t.Fatal(err)
		}
		if gotH != wantH {
			t.Fatalf("H(%v): %v recovered, %v cold", sub, gotH, wantH)
		}
	}
	for _, f := range []fd.FD{
		{X: []string{"C"}, Y: []string{"A"}},
		{X: []string{"A"}, Y: []string{"B", "C"}},
		{X: []string{"A", "B"}, Y: []string{"C"}},
	} {
		got, err := fd.Holds(view, f)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fd.Holds(cold, f)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("fd.Holds(%v): %v recovered, %v cold", f, got, want)
		}
	}
}

// TestAppendHeaderLegacyBOM: a dataset checkpointed while the CSV readers
// kept a leading UTF-8 byte order mark names its first attribute "\ufeffA"
// (here the second attribute's name starts with a mark too, as part of it).
// A header row read today has the mark stripped and must still match it, or
// a restarted -watch tailer (which re-reads its file from the top) would
// reject every chunk.
func TestAppendHeaderLegacyBOM(t *testing.T) {
	s := New(16)
	ck := &persist.Checkpoint{
		Name: "legacy", Attrs: []string{"\ufeffA", "\ufeffB"}, Generation: 1,
		Dicts: [][]string{{"1"}, {"2"}}, Columns: [][]int32{{1}, {1}},
	}
	if _, err := s.ReplicaAdopt(s.Registry().DefaultNamespace(), "legacy", persist.EncodeCheckpoint(ck)); err != nil {
		t.Fatal(err)
	}
	records, err := relation.ReadCSVRows(strings.NewReader("\xef\xbb\xbfA,\xef\xbb\xbfB\n3,4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := s.AppendIn("default", "legacy", records, true); err != nil || v.Appended != 1 {
		t.Fatalf("BOM-prefixed append to a legacy dataset: %+v, %v", v, err)
	}
	if v, err := s.AppendIn("default", "legacy", [][]string{{"\ufeffA", "\ufeffB"}, {"5", "6"}}, true); err != nil || v.Appended != 1 {
		t.Fatalf("exact header append to a legacy dataset: %+v, %v", v, err)
	}
	// Only the mark at the start of the header is forgiven; one inside the
	// header is part of an attribute name.
	if _, err := s.AppendIn("default", "legacy", [][]string{{"A", "B"}, {"7", "8"}}, true); err == nil {
		t.Fatal("header without the second attribute's mark accepted")
	}
}
