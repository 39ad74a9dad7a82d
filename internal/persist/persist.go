// Package persist is the durability layer under the analysis service: a
// per-dataset append-only write-ahead log of row batches plus binary
// columnar checkpoints of frozen snapshots, so a long-running daemon can be
// killed at any instant and recover every dataset to its exact pre-kill
// rows and generation instead of paying a cold full re-ingest.
//
// Layout under the store's root directory (one subdirectory per namespace,
// one per dataset inside it, both name-encoded so arbitrary names cannot
// escape or collide):
//
//	<root>/<namespace>/<dataset>/checkpoint.ckpt   latest checkpoint (atomic tmp+rename)
//	<root>/<namespace>/<dataset>/wal.log           row batches appended since then
//
// Stores written before namespaces existed kept dataset directories at the
// root; Open migrates them (one os.Rename each) into the configured default
// namespace exactly once. A root-level directory is a legacy dataset iff it
// directly holds a checkpoint or WAL file — namespace directories hold only
// subdirectories — so the migration cannot misfire on an already-migrated
// store.
//
// The write path mirrors the engine's copy-on-write read path: a WAL record
// is appended (one write syscall, CRC-checked) *before* the in-memory append
// is applied and its new view published, and a checkpoint is serialized from
// an already-frozen snapshot, so checkpointing never blocks readers.
// Recovery loads the latest checkpoint, replays the WAL tail, and tolerates
// a torn final record by truncating it — the WAL frame format (length
// prefix + CRC32 + payload) makes "torn" detectable at any byte boundary.
//
// By default the WAL is not fsynced: a single buffered write survives
// process death (SIGKILL) because the page cache belongs to the kernel, and
// that is the failure mode a long-running analysis daemon actually sees.
// Options.Sync upgrades every append to an fsync for power-failure
// durability at the usual latency cost. Checkpoints are always synced
// before the rename that publishes them.
package persist

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// DefaultCompactAt is the WAL size at which the service triggers a
// background checkpoint + compaction when Options.CompactAt is zero.
const DefaultCompactAt = 1 << 20

// Options configure a Store.
type Options struct {
	// Sync fsyncs the WAL after every appended record. Off by default: the
	// default posture is process-crash durability (the write syscall has
	// completed before an append is acknowledged), not power-failure
	// durability.
	Sync bool
	// CompactAt is the WAL byte size beyond which the service folds the WAL
	// into a fresh checkpoint in the background. Zero means DefaultCompactAt;
	// negative disables size-triggered compaction.
	CompactAt int64
	// DefaultNamespace is where Open migrates pre-namespace dataset
	// directories found at the store root. Empty means "default". It should
	// match the namespace the daemon aliases its legacy routes to, so old
	// data stays reachable at its old URLs after the upgrade.
	DefaultNamespace string
}

// Store manages the durability directory: one DatasetStore per dataset.
type Store struct {
	dir  string
	sync bool

	compactAt int64
}

// Open creates (if needed) and opens a durability store rooted at dir,
// migrating any pre-namespace dataset directories into the default
// namespace first.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("persist: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: creating store directory: %w", err)
	}
	compactAt := opts.CompactAt
	if compactAt == 0 {
		compactAt = DefaultCompactAt
	}
	defaultNS := opts.DefaultNamespace
	if defaultNS == "" {
		defaultNS = "default"
	}
	if err := migrateLegacyLayout(dir, defaultNS); err != nil {
		return nil, err
	}
	return &Store{dir: dir, sync: opts.Sync, compactAt: compactAt}, nil
}

// migrateLegacyLayout moves pre-namespace dataset directories (direct
// children of the root that hold a checkpoint or WAL file) under the default
// namespace. Each migration is one rename; a crash mid-migration leaves some
// datasets moved and some not, and the next Open finishes the job.
func migrateLegacyLayout(dir, defaultNS string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("persist: listing store: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, ok := decodeName(e.Name()); !ok {
			continue
		}
		sub := filepath.Join(dir, e.Name())
		if !fileExists(filepath.Join(sub, checkpointFile)) && !fileExists(filepath.Join(sub, walFile)) {
			continue // namespace dir (or empty leftover), not a legacy dataset
		}
		nsDir := filepath.Join(dir, encodeName(defaultNS))
		if err := os.MkdirAll(nsDir, 0o755); err != nil {
			return fmt.Errorf("persist: creating namespace directory: %w", err)
		}
		if err := os.Rename(sub, filepath.Join(nsDir, e.Name())); err != nil {
			return fmt.Errorf("persist: migrating legacy dataset %q: %w", e.Name(), err)
		}
	}
	return nil
}

func fileExists(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && !fi.IsDir()
}

// CompactAt returns the WAL size that should trigger background compaction,
// or a non-positive value when size-triggered compaction is disabled.
func (s *Store) CompactAt() int64 { return s.compactAt }

// Namespaces returns the names of every namespace with a directory in the
// store, sorted. Directories whose names do not decode are skipped.
func (s *Store) Namespaces() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("persist: listing store: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if name, ok := decodeName(e.Name()); ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// List returns the names of every dataset with a directory under the given
// namespace, sorted. A namespace with no directory yet lists empty.
func (s *Store) List(ns string) ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, encodeName(ns)))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("persist: listing namespace %q: %w", ns, err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if name, ok := decodeName(e.Name()); ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Dataset opens (creating if needed) the per-dataset store for name inside
// the given namespace.
func (s *Store) Dataset(ns, name string) (*DatasetStore, error) {
	if ns == "" {
		return nil, fmt.Errorf("persist: empty namespace")
	}
	if name == "" {
		return nil, fmt.Errorf("persist: empty dataset name")
	}
	dir := filepath.Join(s.dir, encodeName(ns), encodeName(name))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: creating dataset directory: %w", err)
	}
	wal, err := os.OpenFile(filepath.Join(dir, walFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: opening WAL: %w", err)
	}
	d := &DatasetStore{dir: dir, name: name, sync: s.sync, wal: wal}
	if fi, err := wal.Stat(); err == nil {
		d.walBytes.Store(fi.Size())
	}
	return d, nil
}

// Remove deletes the dataset's directory (checkpoint and WAL). Callers must
// Close the DatasetStore first. The namespace directory itself stays — an
// empty namespace is cheap and a concurrent Dataset may be recreating it.
func (s *Store) Remove(ns, name string) error {
	return os.RemoveAll(filepath.Join(s.dir, encodeName(ns), encodeName(name)))
}

// encodeName maps a dataset name to a filesystem-safe directory name.
// Names that are already safe are used verbatim for debuggability; anything
// else (separators, uppercase — two names differing only in case must not
// share a directory on case-insensitive filesystems — dots-only names, the
// reserved "x-" prefix) is hex-encoded behind "x-" so two distinct names
// can never collide.
func encodeName(name string) string {
	if safeName(name) {
		return name
	}
	return "x-" + hex.EncodeToString([]byte(name))
}

// decodeName inverts encodeName; ok is false for directory names that no
// dataset name encodes to.
func decodeName(dir string) (string, bool) {
	if strings.HasPrefix(dir, "x-") {
		b, err := hex.DecodeString(dir[2:])
		if err != nil || len(b) == 0 {
			return "", false
		}
		return string(b), true
	}
	if safeName(dir) {
		return dir, true
	}
	return "", false
}

// safeName reports whether a dataset name can be its own directory name.
// Uppercase is excluded: hex encoding is lowercase, so on a
// case-insensitive filesystem a verbatim name with capitals could collide
// with another name's directory.
func safeName(s string) bool {
	if s == "" || len(s) > 100 || s == "." || s == ".." || strings.HasPrefix(s, "x-") {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
		case r == '.' || r == '_' || r == '-':
		default:
			return false
		}
	}
	return true
}
