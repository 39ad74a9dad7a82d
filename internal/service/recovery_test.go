package service

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"ajdloss/internal/persist"
)

// TestReplicaAdoptRejectsCodeOutsideDictionary: a snapshot whose column
// holds a code past its dictionary is refused, and nothing is registered.
// Accepting it would hand the encoder a dictionary that later reuses the
// code for a new value, so a genuinely new appended row would be dropped as
// a duplicate.
func TestReplicaAdoptRejectsCodeOutsideDictionary(t *testing.T) {
	s := New(16)
	snap := persist.EncodeCheckpoint(&persist.Checkpoint{
		Name: "r", Attrs: []string{"A", "B"}, Generation: 3,
		Dicts: [][]string{{"a1"}, {"b1"}}, Columns: [][]int32{{1, 2}, {1, 1}},
	})
	if _, err := s.ReplicaAdopt("default", "r", snap); err == nil || !strings.Contains(err.Error(), `"A"`) {
		t.Fatalf("ReplicaAdopt of an out-of-dictionary code: error %v, want one naming attribute \"A\"", err)
	}
	if _, ok := s.Registry().GetIn("default", "r"); ok {
		t.Fatal("rejected snapshot was registered")
	}
	if st, ok := s.Registry().NamespaceStats("default"); ok && st.Rows != 0 {
		t.Fatalf("rejected snapshot charged %d rows to its namespace", st.Rows)
	}
}

// crashedStore registers dataset "block" durably, then appends a batch that
// only the WAL holds — the store a crash leaves behind — and returns the
// service that wrote it.
func crashedStore(t *testing.T, dir string) *Service {
	t.Helper()
	s, _ := newDurableService(t, dir, 16)
	if _, err := s.Registry().RegisterIn("default", "block", strings.NewReader(blockCSV(3, 2, 2)), true); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendIn("default", "block", [][]string{{"991", "992", "9"}, {"11", "101", "1"}}, false); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPendingRecoveryRowAccounting: a dataset recovered with a WAL tail past
// its checkpoint is registered at its replayed rows, and the namespace's
// row total counts those rows, not the checkpoint header's.
func TestPendingRecoveryRowAccounting(t *testing.T) {
	dir := t.TempDir()
	crashedStore(t, dir)
	s, rec := newDurableService(t, dir, 16)
	if len(rec) != 1 || rec[0].Lazy || rec[0].ReplayedRows != 1 || rec[0].Rows != 13 || rec[0].Generation != 2 {
		t.Fatalf("pending recovery: %+v", rec)
	}
	st, ok := s.Registry().NamespaceStats("default")
	if !ok || st.Rows != 13 {
		t.Fatalf("namespace rows after pending recovery = %d (ok %v), want 13", st.Rows, ok)
	}
	d, _ := s.Registry().GetIn("default", "block")
	if !d.Materialized() || d.View().N() != 13 {
		t.Fatal("pending recovery did not register the replayed relation")
	}
}

// TestPendingRecoveryCorruptColumn: when the WAL holds a tail, recovery
// decodes the checkpoint at boot, so a corrupt column segment fails
// EnableDurability with an error naming the dataset, and nothing is
// registered.
func TestPendingRecoveryCorruptColumn(t *testing.T) {
	dir := t.TempDir()
	crashedStore(t, dir)
	path := filepath.Join(dir, "default", "block", "checkpoint.ckpt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-5] ^= 0x01 // last byte of the last column's body
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(16)
	rec, err := s.EnableDurability(store)
	if err == nil || !strings.Contains(err.Error(), `"block"`) {
		t.Fatalf("corrupt column with a pending WAL: error %v, want one naming the dataset", err)
	}
	if len(rec) != 0 || len(s.Registry().All()) != 0 {
		t.Fatalf("corrupt dataset registered: %+v", rec)
	}
}

// TestRecoveryRefusesV1Checkpoint: a store holding a checkpoint in the
// retired v1 format fails boot with an error naming the format and the
// dataset; the dataset is neither decoded nor silently dropped.
func TestRecoveryRefusesV1Checkpoint(t *testing.T) {
	dir := t.TempDir()
	seedCleanStore(t, dir)
	path := filepath.Join(dir, "default", "block", "checkpoint.ckpt")
	if err := os.WriteFile(path, []byte("AJDCKPT1 written before the v2 layout"), 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(16)
	_, err = s.EnableDurability(store)
	if err == nil || !strings.Contains(err.Error(), "AJDCKPT1") || !strings.Contains(err.Error(), `"block"`) {
		t.Fatalf("v1 checkpoint at boot: error %v, want one naming AJDCKPT1 and the dataset", err)
	}
	if _, statErr := os.Stat(path); statErr != nil {
		t.Fatalf("refused v1 checkpoint was removed: %v", statErr)
	}
}

// openCheckpointFDs counts this process's open descriptors on checkpoint
// files under dir.
func openCheckpointFDs(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
		if err == nil && strings.HasPrefix(target, dir) && strings.HasSuffix(target, "checkpoint.ckpt") {
			n++
		}
	}
	return n
}

// TestLazyRecoveryHoldsNoCheckpointFD: a lazily recovered dataset keeps its
// checkpoint as a mapping (or in memory), not as an open descriptor, so a
// store of many cold datasets costs one descriptor per dataset (its WAL).
func TestLazyRecoveryHoldsNoCheckpointFD(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts descriptors through /proc/self/fd")
	}
	dir, err := filepath.EvalSymlinks(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	seedCleanStore(t, dir)
	s, rec := newDurableService(t, dir, 16)
	if len(rec) != 1 || !rec[0].Lazy {
		t.Fatalf("expected a lazy recovery: %+v", rec)
	}
	if n := openCheckpointFDs(t, dir); n != 0 {
		t.Fatalf("lazily recovered dataset holds %d checkpoint descriptors", n)
	}
	if err := s.MaterializeAll(); err != nil {
		t.Fatal(err)
	}
	if n := openCheckpointFDs(t, dir); n != 0 {
		t.Fatalf("materialized dataset holds %d checkpoint descriptors", n)
	}
}
