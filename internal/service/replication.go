package service

import (
	"errors"
	"fmt"
	"time"

	"ajdloss/internal/persist"
)

// This file is the service side of WAL-shipping replication: the export
// surface a primary serves (snapshot + WAL tail, both keyed by generation)
// and the apply surface a follower drives (adopt a snapshot, apply a tail,
// drop a dataset the primary removed). A follower rejects ordinary writes
// with a typed redirect-to-primary error; the replica apply path bypasses
// that guard — and the namespace quotas, exactly like crash recovery does —
// because it mirrors state the primary already admitted.

// ErrNotPrimary marks writes rejected because this node is a read-only
// follower. The HTTP layer maps it to 421 (Misdirected Request) and names
// the primary the client should retry against.
var ErrNotPrimary = errors.New("node is a read-only follower")

// NotPrimaryError carries the primary's base URL so clients (and the fan-out
// router) can follow the redirect; it unwraps to ErrNotPrimary.
type NotPrimaryError struct {
	Primary string
}

func (e *NotPrimaryError) Error() string {
	return fmt.Sprintf("service: %s; write to the primary at %s", ErrNotPrimary, e.Primary)
}

func (e *NotPrimaryError) Is(target error) bool { return target == ErrNotPrimary }

// SetPrimary marks the service as a follower of the primary at the given
// base URL: every write (register, append, remove, checkpoint) is rejected
// with a NotPrimaryError until the mark is cleared with SetPrimary("").
// Reads keep serving from the follower's own warm snapshots throughout.
func (s *Service) SetPrimary(url string) {
	if url == "" {
		s.reg.primary.Store(nil)
		return
	}
	s.reg.primary.Store(&url)
}

// FollowerError returns the typed redirect error when this node is a
// follower, nil otherwise. HTTP write routes whose service call cannot carry
// an error (DELETE returns only a bool) guard with it explicitly.
func (s *Service) FollowerError() error { return s.reg.errIfFollower() }

// errIfFollower returns the typed redirect error when the service is in
// follower mode.
func (g *Registry) errIfFollower() error {
	if p := g.primary.Load(); p != nil {
		return &NotPrimaryError{Primary: *p}
	}
	return nil
}

// ReplicationView is the follower's replication state as surfaced in /stats:
// who it follows, when it last completed a full sync pass, and the cumulative
// work the tail has done. LagSeconds is the age of the last successful pass
// at the moment /stats was served.
type ReplicationView struct {
	Primary           string  `json:"primary"`
	LastSync          string  `json:"last_sync,omitempty"` // RFC3339; empty before the first pass
	LagSeconds        float64 `json:"lag_seconds"`
	Datasets          int     `json:"datasets"`
	AppliedBatches    int64   `json:"applied_batches"`
	AppliedRows       int64   `json:"applied_rows"`
	Bootstraps        int64   `json:"bootstraps"`
	BehindGenerations int64   `json:"behind_generations"`
	SyncErrors        int64   `json:"sync_errors"`
}

// SetReplication publishes the follower's current replication state; the
// replica tail loop calls it after every sync pass and Stats snapshots it.
func (s *Service) SetReplication(v ReplicationView) { s.replication.Store(&v) }

// SnapshotExport serializes the dataset's current frozen state — view plus
// the encoder dictionaries that match it, captured together under the append
// lock — in the checkpoint wire format, returning the bytes and the
// generation they represent. This is the follower's bootstrap: unlike the
// on-disk checkpoint it is always exactly current, so a follower that adopts
// it only needs the WAL tail appended *after* the export.
func (s *Service) SnapshotExport(ns, name string) ([]byte, int64, error) {
	d, err := s.dataset(ns, name)
	if err != nil {
		return nil, 0, err
	}
	d.appendMu.Lock()
	view := d.View()
	dicts := d.Enc.Dictionaries()
	d.appendMu.Unlock()
	return persist.EncodeCheckpoint(checkpointOf(name, view, dicts)), view.Generation(), nil
}

// WALExport returns the dataset's raw WAL frames with generation > from and
// the highest generation served. A cursor behind the compaction horizon (or
// behind the current generation of a non-durable dataset, which retains no
// WAL at all) fails with persist.ErrCompacted: the caller must re-bootstrap
// from SnapshotExport. The horizon generation is returned alongside the
// error so the HTTP layer can advertise it.
func (s *Service) WALExport(ns, name string, from int64) ([]byte, int64, error) {
	d, err := s.dataset(ns, name)
	if err != nil {
		return nil, 0, err
	}
	if d.store == nil {
		gen := d.Generation()
		if from < gen {
			return nil, gen, fmt.Errorf("%w: dataset %q is not durable, cursor %d behind generation %d",
				persist.ErrCompacted, name, from, gen)
		}
		return nil, from, nil
	}
	return d.store.ExportWAL(from)
}

// ReplicaAdopt installs a snapshot fetched from the primary as the local
// state of (ns, name), replacing whatever was there: the relation and engine
// are rebuilt and warmed exactly as recovery does, then swapped in under one
// registry lock so readers never observe the dataset missing. Quotas are not
// enforced — the primary already admitted this data — but the namespace row
// accounting is kept exact. Returns the adopted generation.
func (s *Service) ReplicaAdopt(ns, name string, snapshot []byte) (int64, error) {
	ck, err := persist.DecodeCheckpoint(snapshot)
	if err != nil {
		return 0, fmt.Errorf("service: decoding replica snapshot for %q: %w", name, err)
	}
	rel, enc, _, _, err := restoreDataset(ck, nil)
	if err != nil {
		return 0, err
	}
	d := &Dataset{Namespace: ns, Name: name, Rel: rel, Enc: enc, RegisteredAt: time.Now()}
	d.view.Store(rel.View())
	old, err := s.reg.install(d, true)
	if err != nil {
		return 0, err
	}
	if old != nil {
		// Retire the replaced dataset outside the registry lock: any apply
		// still holding its append lock finishes (or fails on the removed
		// latch), its final rows leave the namespace total, and its cached
		// results are evicted.
		old.retire()
		if old.store != nil {
			old.store.Close()
		}
		s.cache.RemovePrefix(old.keyPrefix)
	}
	return d.Generation(), nil
}

// ReplicaApply applies a WAL tail fetched from the primary to the local
// dataset: records at or below the local generation are skipped, the rest
// replay through the same idempotent path recovery uses, and a new view is
// published (with the dataset's stale cache entries evicted) when rows
// landed. Returns rows applied and the resulting generation.
func (s *Service) ReplicaApply(ns, name string, frames []byte) (int, int64, error) {
	recs, err := persist.DecodeWALStream(frames)
	if err != nil {
		return 0, 0, fmt.Errorf("service: replica WAL stream for %q: %w", name, err)
	}
	d, err := s.dataset(ns, name)
	if err != nil {
		return 0, 0, err
	}
	applied, gen, err := d.applyReplicated(recs)
	if err != nil {
		return 0, 0, err
	}
	if applied > 0 {
		s.cache.RemovePrefix(d.keyPrefix)
	}
	return applied, gen, nil
}

// applyReplicated replays a replication tail under the append lock. The
// follower mirrors rows the primary already admitted, so the namespace row
// count is adjusted directly instead of going through quota reservation.
func (d *Dataset) applyReplicated(recs []persist.WALRecord) (int, int64, error) {
	d.appendMu.Lock()
	defer d.appendMu.Unlock()
	cur := d.View()
	if d.removed.Load() {
		return 0, cur.Generation(), fmt.Errorf("service: %w %q", ErrUnknownDataset, d.Name)
	}
	applied, _, err := replayWAL(d.Rel, d.Enc, recs, cur.Generation())
	if err != nil {
		return 0, cur.Generation(), err
	}
	if applied > 0 {
		d.ns.rows.Add(int64(applied))
		cur = d.Rel.View()
		d.view.Store(cur)
	}
	return applied, cur.Generation(), nil
}
