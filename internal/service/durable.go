package service

import (
	"errors"
	"fmt"
	"time"

	"ajdloss/internal/infotheory"
	"ajdloss/internal/persist"
	"ajdloss/internal/relation"
)

// ErrStore marks durable-storage failures (WAL write, checkpoint write):
// the request was fine, the server's disk was not. The HTTP layer maps it
// to 500 via errors.Is so monitoring sees an outage, not client error
// noise.
var ErrStore = errors.New("durable store failure")

// This file wires the durability layer (internal/persist) into the service:
// converting between frozen views and checkpoints, recovering datasets at
// boot (checkpoint + WAL-tail replay), and the checkpoint request path with
// its size-triggered background compaction.

// checkpointOf serializes a frozen view plus the encoder dictionaries that
// match its generation into a persist.Checkpoint. The checkpoint shares the
// view's columns, which later appends never change, so this runs without
// locks; the caller must have captured view and dicts together under the
// dataset's append lock (appends extend both).
func checkpointOf(name string, view *relation.Relation, dicts [][]string) *persist.Checkpoint {
	return &persist.Checkpoint{
		Name:       name,
		Attrs:      view.Attrs(),
		Generation: view.Generation(),
		Dicts:      dicts,
		Columns:    view.Columns(),
	}
}

// datasetFromCheckpoint rebuilds the live relation and encoder from a
// checkpoint: the relation adopts the checkpoint's columns, so rows keep
// their stored order (group IDs — and therefore every derived measure and
// its JSON — depend on row order), and its snapshot chain starts at the
// checkpointed generation. Columns of unequal length or a repeated row
// fail recovery of the dataset.
func datasetFromCheckpoint(ck *persist.Checkpoint) (*relation.Relation, *relation.Encoder, error) {
	if len(ck.Attrs) == 0 {
		return nil, nil, fmt.Errorf("service: checkpoint for %q has no attributes", ck.Name)
	}
	rel, err := relation.FromColumns(ck.Attrs, ck.Columns)
	if err != nil {
		return nil, nil, fmt.Errorf("service: checkpoint for %q: %w", ck.Name, err)
	}
	rel.SetBaseGeneration(ck.Generation)
	// Materialize the engine at the checkpointed generation NOW: WAL replay
	// goes through Append, which only extends (and generation-bumps) an
	// already-built snapshot chain — built lazily later, the replayed batches
	// would collapse into one generation-1 snapshot.
	rel.Snapshot()
	enc, err := relation.NewEncoderFromDictionaries(ck.Attrs, ck.Dicts)
	if err != nil {
		return nil, nil, fmt.Errorf("service: checkpoint for %q: %w", ck.Name, err)
	}
	return rel, enc, nil
}

// restoreDataset is the one path from a decoded checkpoint to a servable
// relation, shared by boot recovery (a pending WAL tail), the first touch
// of a lazily recovered dataset and a replica bootstrap: adopt the
// checkpoint's columns, replay the WAL records past its generation, then
// warm the engine as registration does. It returns the rows replayed and
// the records dropped (see replayWAL).
func restoreDataset(ck *persist.Checkpoint, recs []persist.WALRecord) (rel *relation.Relation, enc *relation.Encoder, replayed, dropped int, err error) {
	rel, enc, err = datasetFromCheckpoint(ck)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	if replayed, dropped, err = replayWAL(rel, enc, recs, ck.Generation); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("service: replaying WAL for %q: %w", ck.Name, err)
	}
	if err := warmEngine(rel); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("service: warming recovered %q: %w", ck.Name, err)
	}
	return rel, enc, replayed, dropped, nil
}

// warmEngine computes every singleton entropy, which builds the column
// mirror and seeds the partition memo, so the first request to a dataset
// does not pay the cold start.
func warmEngine(rel *relation.Relation) error {
	for _, a := range rel.Attrs() {
		if _, err := infotheory.Entropy(rel, a); err != nil {
			return err
		}
	}
	return nil
}

// replayWAL applies the WAL tail to a relation recovered from a checkpoint
// at generation ckptGen. Records the checkpoint already covers are skipped
// by generation; replay of anything else is idempotent (duplicate rows add
// nothing and bump nothing), so over-replay can never corrupt state — the
// final generation is exactly ckptGen plus the number of batches that
// actually added rows, as it was before the crash. Returns the rows applied
// and the records dropped as unusable (wrong arity or unencodable — only
// possible if the log belongs to a different schema era than the
// checkpoint).
func replayWAL(rel *relation.Relation, enc *relation.Encoder, recs []persist.WALRecord, ckptGen int64) (applied int, dropped int, err error) {
	arity := len(rel.Attrs())
	for _, rec := range recs {
		if rec.Generation <= ckptGen {
			continue
		}
		tuples := make([]relation.Tuple, 0, len(rec.Records))
		ok := true
		for _, r := range rec.Records {
			if len(r) != arity {
				ok = false
				break
			}
			t, err := enc.Encode(r)
			if err != nil {
				ok = false
				break
			}
			tuples = append(tuples, t)
		}
		if !ok {
			dropped++
			continue
		}
		added, err := rel.Append(tuples)
		if err != nil {
			return applied, dropped, err
		}
		applied += added
	}
	return applied, dropped, nil
}

// RecoveredDataset describes one dataset restored by EnableDurability.
type RecoveredDataset struct {
	Info
	Namespace            string // namespace the dataset was recovered into
	CheckpointGeneration int64  // generation of the checkpoint it started from
	ReplayedRows         int    // rows re-applied from the WAL tail at boot
	DroppedRecords       int    // WAL records unusable against the checkpoint
	// Lazy marks a dataset adopted without decoding its checkpoint: its WAL
	// held nothing past the checkpointed generation, so the header state is
	// the dataset state and the columns decode on first query access.
	Lazy bool
}

// EnableDurability attaches a durability store to the service and recovers
// every dataset in it. Each dataset is adopted from its checkpoint header
// (O(open + header) per dataset, with the column data mmapped for first
// access), so booting N datasets costs O(N), not O(total bytes). A dataset
// whose WAL holds records past its checkpoint — a crash, not a graceful
// shutdown — is materialized before it is registered: the same decode, WAL
// replay (a torn final record was already truncated by the store) and
// warm-up a first query runs, so it comes back at its exact pre-crash rows
// and generation with a hot engine. EnableDurability must be called before
// the service starts serving (the daemon recovers at boot); after it
// returns, registrations, appends and removals of every dataset are
// durable.
func (s *Service) EnableDurability(store *persist.Store) ([]RecoveredDataset, error) {
	namespaces, err := store.Namespaces()
	if err != nil {
		return nil, err
	}
	var out []RecoveredDataset
	for _, ns := range namespaces {
		names, err := store.List(ns)
		if err != nil {
			return out, err
		}
		for _, name := range names {
			rec, err := s.recoverDataset(store, ns, name)
			if err != nil {
				return out, err
			}
			if rec != nil {
				out = append(out, *rec)
			}
		}
	}
	s.reg.mu.Lock()
	s.reg.store = store
	s.reg.mu.Unlock()
	s.compactAt = store.CompactAt()
	return out, nil
}

// recoverDataset restores one (namespace, dataset) pair from the store; a
// nil, nil return means the directory held nothing recoverable and was
// dropped.
func (s *Service) recoverDataset(store *persist.Store, ns, name string) (*RecoveredDataset, error) {
	ds, err := store.Dataset(ns, name)
	if err != nil {
		return nil, fmt.Errorf("service: opening store for %q: %w", name, err)
	}
	lck, recs, err := ds.LoadLazy()
	if err != nil {
		ds.Close()
		return nil, fmt.Errorf("service: %w", err)
	}
	if lck == nil {
		// A directory without a checkpoint is an interrupted registration:
		// the dataset was never acknowledged, so there is nothing to
		// recover. Drop the remains.
		ds.Close()
		_ = store.Remove(ns, name)
		return nil, nil
	}
	hdr := lck.Header()
	d := &Dataset{Namespace: ns, Name: name, RegisteredAt: time.Now(), store: ds}
	d.lazy = &lazyState{ck: lck, recs: recs, info: Info{
		Name:         name,
		Rows:         hdr.Rows,
		Attrs:        hdr.Attrs,
		Generation:   hdr.Generation,
		RegisteredAt: d.RegisteredAt.UTC().Format(time.RFC3339),
	}}
	fail := func(err error) (*RecoveredDataset, error) {
		d.closeLazy()
		ds.Close()
		return nil, err
	}
	if len(hdr.Attrs) == 0 {
		return fail(fmt.Errorf("service: checkpoint for %q has no attributes", name))
	}
	rec := &RecoveredDataset{Namespace: ns, CheckpointGeneration: hdr.Generation, Lazy: true}
	for _, r := range recs {
		if r.Generation > hdr.Generation {
			// The header is not the dataset state: replay the tail now, so
			// the dataset is registered at its pre-crash rows and generation.
			if err := d.ensure(); err != nil {
				return fail(err)
			}
			rec.Lazy = false
			rec.ReplayedRows, rec.DroppedRecords = d.lazy.replayed, d.lazy.dropped
			break
		}
	}
	if _, err := s.reg.install(d, false); err != nil {
		return fail(err)
	}
	rec.Info = d.Info()
	return rec, nil
}

// MaterializeAll forces every lazily recovered dataset to decode now — the
// eager boot the lazy path replaced. The daemon's -eager-recovery flag (and
// the boot benchmark's baseline) use it to trade boot time for first-query
// latency.
func (s *Service) MaterializeAll() error {
	for _, d := range s.reg.All() {
		if err := d.ensure(); err != nil {
			return err
		}
	}
	return nil
}

// CheckpointIn folds the named dataset's current state into a fresh durable
// checkpoint and compacts its WAL. The view and its matching dictionaries
// are captured under the append lock (a few pointer loads and a dictionary
// copy); serialization and the atomic file swap run outside it, against the
// immutable frozen view — readers are never blocked and writers only for
// the capture.
func (s *Service) CheckpointIn(ns, name string) (*CheckpointView, error) {
	if err := s.reg.errIfFollower(); err != nil {
		return nil, reject(s.countersFor(ns), err)
	}
	d, ok := s.reg.GetIn(ns, name)
	if !ok {
		return nil, reject(s.countersFor(ns), fmt.Errorf("service: %w %q", ErrUnknownDataset, name))
	}
	if d.store == nil {
		return nil, reject(&d.ns.counters, fmt.Errorf("service: dataset %q is not durable (start the daemon with -data)", name))
	}
	v, err := s.checkpointDataset(d)
	if err != nil {
		d.ns.errors.Add(1)
		return nil, err
	}
	return v, nil
}

// checkpointDataset writes one checkpoint for d (shared by the HTTP
// endpoint, size-triggered compaction and shutdown).
func (s *Service) checkpointDataset(d *Dataset) (*CheckpointView, error) {
	// A manual checkpoint of a lazily recovered dataset materializes it
	// first; the periodic/shutdown sweeps skip unmaterialized datasets
	// instead (their on-disk state is already exactly current).
	if err := d.ensure(); err != nil {
		return nil, fmt.Errorf("service: checkpointing %q: %w: %w", d.Name, ErrStore, err)
	}
	d.appendMu.Lock()
	view := d.View()
	dicts := d.Enc.Dictionaries()
	d.appendMu.Unlock()
	if err := d.store.WriteCheckpoint(checkpointOf(d.Name, view, dicts)); err != nil {
		return nil, fmt.Errorf("service: checkpointing %q: %w: %w", d.Name, ErrStore, err)
	}
	d.checkpoints.Add(1)
	return &CheckpointView{
		Dataset:    d.Name,
		Rows:       view.N(),
		Generation: view.Generation(),
		WALBytes:   d.store.WALBytes(),
	}, nil
}

// maybeCompact triggers one background checkpoint when the dataset's WAL
// has outgrown the store's compaction threshold. At most one compaction per
// dataset is in flight; a failure is counted (checkpoint_errors in /stats)
// and retried by whichever later append crosses the threshold again.
func (s *Service) maybeCompact(d *Dataset) {
	if d.store == nil || s.compactAt <= 0 || d.store.WALBytes() < s.compactAt {
		return
	}
	if !d.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		v, err := s.checkpointDataset(d)
		s.endCompaction(d, v, err)
	}()
}

// endCompaction releases d's compaction latch after a background checkpoint
// that returned v or err. When rows landed after v's view it re-checks the
// threshold: their appends found the compaction in flight and skipped their
// own trigger, and the checkpoint keeps them in the WAL, so the WAL may have
// outgrown the threshold with no later append to notice. With no new rows
// it does not: the WAL can then hold only no-op records of all-duplicate
// batches, which no checkpoint can drop until a row lands (they carry a
// generation the view never reached), so re-checking would checkpoint in a
// loop; the next append that adds a row triggers compaction as usual.
func (s *Service) endCompaction(d *Dataset, v *CheckpointView, err error) {
	d.compacting.Store(false)
	if err != nil {
		s.checkpointErrors.Add(1)
		return
	}
	if d.View().Generation() > v.Generation {
		s.maybeCompact(d)
	}
}

// CheckpointAll checkpoints every durable dataset (the daemon calls it on
// graceful shutdown so the next boot replays an empty WAL). Errors are
// collected per dataset, not fatal.
func (s *Service) CheckpointAll() []error {
	var errs []error
	for _, d := range s.reg.All() {
		if d.store == nil {
			continue
		}
		if !d.Materialized() {
			// Never touched since its lazy adoption: the checkpoint on disk
			// is the dataset, and its WAL tail is empty. Decoding it just to
			// re-serialize the identical bytes would undo the lazy boot win.
			continue
		}
		if _, err := s.checkpointDataset(d); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}
