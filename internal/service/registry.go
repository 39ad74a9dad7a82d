package service

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ajdloss/internal/discovery"
	"ajdloss/internal/persist"
	"ajdloss/internal/relation"
)

// ErrAlreadyRegistered is wrapped by RegisterIn when the name is taken; the
// HTTP layer maps it to 409 via errors.Is.
var ErrAlreadyRegistered = errors.New("dataset already registered")

// Dataset is an ingested relation instance held warm by the registry: the
// decoded Relation keeps its snapshot engine (and with it every memoized
// partition and entropy) alive across requests, which is what turns the
// engine's amortized speedup into cross-request serving capacity.
//
// Datasets are mutable through Append only, and reads never take a lock:
// the current state is published as a frozen relation.View pinned to one
// engine.Snapshot, reachable through a single atomic pointer load. An append
// extends the snapshot copy-on-write (bumping its generation; registration
// is generation 1) and publishes a new View, while requests that grabbed the
// old View keep computing against it — a complete, internally consistent
// older generation. Every JSON view echoes the generation of the snapshot it
// was computed against, and the generation is part of every result-cache and
// singleflight key, so answers from different generations can never be
// confused.
type Dataset struct {
	// ID is unique per registration (never reused), so cached results keyed
	// by ID can never be served for a later dataset of the same name.
	ID int64
	// Namespace is the tenant the dataset belongs to; (Namespace, Name) is
	// the registry key, so the same name may exist in many namespaces.
	Namespace string
	Name      string
	// Rel is the live relation; it must only be mutated under appendMu.
	// Request paths read the published View instead.
	Rel          *relation.Relation
	Enc          *relation.Encoder
	RegisteredAt time.Time

	// ns is the owning namespace's live state: Append reserves rows against
	// its quota and the request path charges its counters. Never nil:
	// every dataset is created through the registry.
	ns *namespace
	// keyPrefix is nsPrefix(Namespace)+datasetPrefix(ID), precomputed when
	// the ID is assigned: requestKey runs on every request, and quoting the
	// namespace there costs two allocations per request.
	keyPrefix string

	// appendMu serializes writers (appends). Readers never touch it.
	appendMu sync.Mutex
	view     atomic.Pointer[relation.Relation]

	// memo holds the dataset's materialized discovery results (Chow-Liu
	// candidate, mined MVDs, discovered FDs), created lazily on the first
	// discovery request. Appends do NOT clear it: every entry is stamped with
	// the generation it was computed at, and the memo refreshes itself
	// scope-wise — recomputing only the invalidated lattice/FD nodes against
	// the extended snapshot chain — when a request arrives at a newer
	// generation. Contrast with the service result cache, which an append
	// evicts wholesale by key prefix.
	memo atomic.Pointer[discovery.Memo]

	// store, when non-nil, is the dataset's durability state: Append writes a
	// WAL record before publishing the new view, and checkpoints fold the WAL
	// into a fresh columnar snapshot file. Nil means in-memory only.
	store *persist.DatasetStore
	// lazy, when non-nil, holds the recovery state of a dataset recovered
	// from its checkpoint: Rel, Enc and the view stay unset until the first
	// query or append materializes them (see ensure), or until boot recovery
	// does because the WAL holds a tail past the checkpoint. Info/ListIn are
	// served from the checkpoint header meanwhile.
	lazy *lazyState
	// removed latches (under appendMu) when the dataset leaves the registry:
	// an Append through a stale pointer grabbed before the removal must fail
	// instead of reserving quota rows that no remove will ever return.
	removed atomic.Bool
	// compacting latches the one in-flight background checkpoint triggered by
	// WAL growth, so a burst of appends cannot pile up compactions.
	compacting atomic.Bool
	// checkpoints counts checkpoints written for this dataset (manual,
	// size-triggered, and shutdown), surfaced per dataset in /stats.
	checkpoints atomic.Int64
}

// lazyState is the recovery work a recovered dataset owes until it is
// materialized: the opened (header-only) checkpoint and the WAL tail to
// replay. once latches materialization so concurrent first touches decode
// exactly once.
type lazyState struct {
	once sync.Once
	ck   *persist.LazyCheckpoint
	recs []persist.WALRecord
	info Info
	err  error
	// replayed and dropped are the WAL rows applied and records dropped by
	// materialization, which boot recovery reports for a pending tail.
	replayed, dropped int
}

// Materialized reports whether the dataset's relation is decoded and its
// view published. Only lazily recovered datasets can be unmaterialized.
func (d *Dataset) Materialized() bool { return d.View() != nil }

// ensure materializes a recovered dataset on first touch: decode the
// checkpoint columns (off the mmap when available), rebuild the relation and
// encoder, replay the WAL tail, warm the engine, publish the view. Boot
// recovery runs it before registering a dataset with a pending WAL tail;
// otherwise the first query or append that needs the rows does. Safe for
// concurrent callers; after a failure every later call returns the same
// error (the daemon surfaces it as a store failure).
func (d *Dataset) ensure() error {
	l := d.lazy
	if l == nil {
		return nil
	}
	l.once.Do(func() {
		l.err = d.materialize(l)
	})
	return l.err
}

func (d *Dataset) materialize(l *lazyState) error {
	ck, err := l.ck.Materialize()
	l.ck.Close()
	l.ck = nil
	if err != nil {
		return fmt.Errorf("service: decoding checkpoint for %q: %w", d.Name, err)
	}
	rel, enc, replayed, dropped, err := restoreDataset(ck, l.recs)
	if err != nil {
		return err
	}
	d.Rel, d.Enc = rel, enc
	d.view.Store(rel.View())
	l.recs, l.replayed, l.dropped = nil, replayed, dropped
	return nil
}

// closeLazy releases an unmaterialized dataset's checkpoint handle on
// removal; it claims the materialization latch so a racing first touch
// cannot decode a closed file.
func (d *Dataset) closeLazy() {
	l := d.lazy
	if l == nil {
		return
	}
	l.once.Do(func() {
		l.err = fmt.Errorf("service: dataset %q removed", d.Name)
	})
	if l.ck != nil {
		l.ck.Close()
		l.ck = nil
	}
	l.recs = nil
}

// discoverMemo returns the dataset's discovery memo, creating it on first
// use. Lock-free: concurrent first callers race one CompareAndSwap and all
// end up sharing the single installed memo.
func (d *Dataset) discoverMemo() *discovery.Memo {
	if m := d.memo.Load(); m != nil {
		return m
	}
	m := discovery.NewMemo()
	if d.memo.CompareAndSwap(nil, m) {
		return m
	}
	return d.memo.Load()
}

// DiscoverCounters returns the dataset's discovery-memo counters (zero if no
// discovery request has touched it yet).
func (d *Dataset) DiscoverCounters() discovery.MemoCounters {
	if m := d.memo.Load(); m != nil {
		return m.Counters()
	}
	return discovery.MemoCounters{}
}

// View returns the dataset's current frozen view: one atomic load, no locks.
// The view is pinned to one snapshot generation and is safe for any number
// of concurrent readers, during and across appends.
func (d *Dataset) View() *relation.Relation { return d.view.Load() }

// Info is the serializable summary of a registered dataset.
type Info struct {
	Name         string   `json:"name"`
	Rows         int      `json:"rows"`
	Attrs        []string `json:"attrs"`
	Generation   int64    `json:"generation"`
	RegisteredAt string   `json:"registered_at"`
}

// Info returns the dataset's serializable summary, read off the current
// frozen view (lock-free, one consistent generation). An unmaterialized
// lazy dataset answers from its checkpoint header — by construction it has
// no pending WAL tail, so the header state IS the dataset state.
func (d *Dataset) Info() Info {
	v := d.View()
	if v == nil {
		return d.lazy.info
	}
	return Info{
		Name:         d.Name,
		Rows:         v.N(),
		Attrs:        v.Attrs(),
		Generation:   v.Generation(),
		RegisteredAt: d.RegisteredAt.UTC().Format(time.RFC3339),
	}
}

// Generation returns the generation of the dataset's current view (or of
// its checkpoint header while unmaterialized — the two agree, see Info).
func (d *Dataset) Generation() int64 {
	if v := d.View(); v != nil {
		return v.Generation()
	}
	return d.lazy.info.Generation
}

// Append dictionary-encodes a batch of string records and appends them to
// the relation, extending the snapshot engine's memoized groupings
// copy-on-write into a new snapshot (no rebuild) and publishing a new frozen
// view. With header set, the first record must repeat the dataset's schema
// exactly and is skipped. Duplicate rows are ignored; the generation bumps
// only when at least one row was added (the snapshot chain advances exactly
// then). The whole batch is validated before any mutation, so a malformed
// record cannot leave a half-applied append behind. Readers are never
// blocked: requests in flight keep their old view.
func (d *Dataset) Append(records [][]string, header bool) (added, dups, rows int, gen int64, err error) {
	// A lazily recovered dataset materializes before its first append: the
	// extension needs the live relation and encoder.
	if err := d.ensure(); err != nil {
		return 0, 0, 0, 0, fmt.Errorf("service: %w: %w", ErrStore, err)
	}
	d.appendMu.Lock()
	defer d.appendMu.Unlock()
	// A remove may have won the lock first: the dataset's rows have already
	// been returned to the namespace budget, so appending through this stale
	// pointer would reserve rows nothing will ever release.
	if d.removed.Load() {
		return 0, 0, 0, 0, fmt.Errorf("service: %w %q", ErrUnknownDataset, d.Name)
	}
	cur := d.View()
	attrs := d.Rel.Attrs()
	if header {
		if len(records) == 0 {
			return 0, 0, cur.N(), cur.Generation(), fmt.Errorf("service: append body with header=1 has no header row")
		}
		if len(records[0]) != len(attrs) {
			return 0, 0, cur.N(), cur.Generation(), fmt.Errorf("service: append header has %d fields, schema has %d", len(records[0]), len(attrs))
		}
		for i, a := range records[0] {
			// Datasets registered while the CSV readers kept a leading UTF-8
			// byte order mark name their first attribute "\ufeffA"; the
			// readers strip it now, so a header read today spells it "A".
			if a != attrs[i] && (i > 0 || a != strings.TrimPrefix(attrs[0], "\ufeff")) {
				return 0, 0, cur.N(), cur.Generation(), fmt.Errorf("service: append header %q does not match schema attribute %q", a, attrs[i])
			}
		}
		records = records[1:]
	}
	for i, rec := range records {
		if len(rec) != len(attrs) {
			return 0, 0, cur.N(), cur.Generation(), fmt.Errorf("service: append row %d has %d fields, schema has %d", i+1, len(rec), len(attrs))
		}
	}
	tuples := make([]relation.Tuple, len(records))
	for i, rec := range records {
		t, err := d.Enc.Encode(rec)
		if err != nil {
			return 0, 0, cur.N(), cur.Generation(), fmt.Errorf("service: encoding append row %d: %w", i+1, err)
		}
		tuples[i] = t
	}
	// Quota: reserve the batch against the namespace's row budget before any
	// side effect (WAL write included — an over-quota batch must leave no
	// trace). Duplicate rows are released after the apply, when we know how
	// many; on any failure the whole reservation rolls back.
	if err := d.ns.reserveRows(int64(len(tuples))); err != nil {
		return 0, 0, cur.N(), cur.Generation(), err
	}
	// Write-ahead: the validated batch hits the WAL before any row is applied
	// and before the new view is published, so an acknowledged append can
	// never be missing after a crash. A batch that turns out to be all
	// duplicates leaves a no-op record behind — replay is idempotent, so it
	// costs bytes (reclaimed by compaction), never correctness. On a WAL
	// write failure nothing has been applied: the append fails cleanly.
	if d.store != nil {
		//ajdlint:ignore lockio WAL writes must be ordered under appendMu: replay correctness requires the log order to match the apply order, and the lock is per-dataset so only this dataset's appenders wait.
		if err := d.store.AppendWAL(cur.Generation()+1, records); err != nil {
			d.ns.releaseRows(int64(len(tuples)))
			return 0, 0, cur.N(), cur.Generation(), fmt.Errorf("service: %w: %w", ErrStore, err)
		}
	}
	added, err = d.Rel.Append(tuples)
	if err != nil {
		d.ns.releaseRows(int64(len(tuples)))
		return 0, 0, cur.N(), cur.Generation(), err
	}
	// Only the rows that actually landed stay reserved; duplicates go back
	// to the budget.
	d.ns.releaseRows(int64(len(tuples) - added))
	if added > 0 {
		cur = d.Rel.View()
		d.view.Store(cur)
	}
	return added, len(tuples) - added, cur.N(), cur.Generation(), nil
}

// Registry holds datasets for the analysis service, keyed by (namespace,
// dataset name). CSV ingestion happens exactly once per dataset; every later
// request reads the same warm Relation.
type Registry struct {
	mu         sync.RWMutex
	namespaces map[string]*namespace
	// defaultNS is the namespace the legacy unversioned routes operate on.
	// Atomic (not guarded by mu): every legacy request reads it, and an
	// RLock here measurably dents serving throughput under parallelism.
	defaultNS atomic.Pointer[string]
	// defaultQuota is copied into every namespace at creation.
	defaultQuota Quotas
	nextID       int64
	// store, when non-nil, makes every dataset durable: RegisterIn writes an
	// initial checkpoint, Append write-ahead-logs batches, RemoveIn deletes the
	// dataset's directory. Set once (before serving) via Service durability.
	store *persist.Store
	// primary, when non-nil, marks this registry as a read-only follower of
	// the primary at that base URL: writes fail with a NotPrimaryError (HTTP
	// 421) naming it. The replica apply paths bypass the guard.
	primary atomic.Pointer[string]
}

// NewRegistry returns an empty registry whose legacy methods operate on the
// "default" namespace with no quotas.
func NewRegistry() *Registry {
	g := &Registry{namespaces: make(map[string]*namespace)}
	def := "default"
	g.defaultNS.Store(&def)
	return g
}

// validateDatasetName rejects names the API cannot address. "schemas" and
// "namespaces" are literal /v1 path words (the schema index and the
// namespace list), so a dataset carrying either name could be registered but
// then shadow — or be shadowed by — those routes depending on mux
// precedence; better a clear 400 at registration than a dataset that exists
// but cannot be reached. Slashes never survive path routing, and "." / ".."
// are path navigation, not names. Everything else is allowed: names are
// URL-escaped by clients, and recovery adopts legacy names unvalidated.
func validateDatasetName(name string) error {
	switch name {
	case "":
		return fmt.Errorf("service: dataset name must be non-empty")
	case "schemas", "namespaces":
		return fmt.Errorf("service: dataset name %q is reserved by the API router; choose another name", name)
	case ".", "..":
		return fmt.Errorf("service: invalid dataset name %q", name)
	}
	if strings.ContainsAny(name, "/\\") {
		return fmt.Errorf("service: invalid dataset name %q: slashes cannot appear in a URL path segment", name)
	}
	return nil
}

// RegisterIn ingests a CSV stream under the given name inside a namespace,
// creating the namespace (with the registry's default quotas) on first use.
// Malformed CSV input (duplicate/empty header cells, ragged records) is
// reported as an error — the ingestion path must never panic in a
// long-running service. Registering an existing (namespace, name) pair is an
// error; remove it first. Registration is quota-checked: the namespace must
// have a dataset slot and row budget for the whole ingested relation.
func (g *Registry) RegisterIn(ns, name string, r io.Reader, header bool) (*Dataset, error) {
	if err := g.errIfFollower(); err != nil {
		return nil, err
	}
	if ns == "" {
		return nil, fmt.Errorf("service: namespace must be non-empty")
	}
	if err := validateDatasetName(name); err != nil {
		return nil, err
	}
	// Cheap pre-check before paying for ingestion: a taken name fails here
	// without decoding the body. The authoritative check under the write
	// lock below still guards against two concurrent registrations racing
	// past this point.
	if _, taken := g.GetIn(ns, name); taken {
		return nil, fmt.Errorf("service: %w: %q", ErrAlreadyRegistered, name)
	}
	rel, enc, err := relation.ReadCSV(r, header)
	if err != nil {
		return nil, fmt.Errorf("ingesting dataset %q: %w", name, err)
	}
	if rel.N() == 0 {
		return nil, fmt.Errorf("service: dataset %q has no rows", name)
	}
	if err := warmEngine(rel); err != nil {
		return nil, fmt.Errorf("service: warming dataset %q: %w", name, err)
	}
	// Claim the name before the durable setup so the checkpoint write — a
	// full serialization plus fsyncs — runs OUTSIDE the registry lock:
	// holding g.mu through disk I/O would stall every request to every
	// dataset. The reservation makes the claimed name exclusively ours, so
	// on failure the half-written directory can be removed safely. Quotas
	// are checked while the name is claimed: the dataset slot count includes
	// reservations, and the row budget is reserved before any disk I/O.
	g.mu.Lock()
	n := g.ensureNSLocked(ns)
	if n.byName[name] != nil || n.reserved[name] {
		g.mu.Unlock()
		return nil, fmt.Errorf("service: %w: %q", ErrAlreadyRegistered, name)
	}
	if q := n.maxDatasets.Load(); q > 0 && int64(len(n.byName)+len(n.reserved)) >= q {
		g.mu.Unlock()
		return nil, &QuotaError{Namespace: ns, Resource: "datasets", Limit: q, Requested: q + 1}
	}
	if err := n.reserveRows(int64(rel.N())); err != nil {
		g.mu.Unlock()
		return nil, err
	}
	n.reserved[name] = true
	store := g.store
	g.mu.Unlock()

	d := &Dataset{
		Namespace:    ns,
		Name:         name,
		Rel:          rel,
		Enc:          enc,
		RegisteredAt: time.Now(),
		ns:           n,
	}
	d.view.Store(rel.View()) // generation 1: the freshly warmed snapshot
	if store != nil {
		// Durable registration: the generation-1 checkpoint is on disk before
		// the dataset is reachable, so recovery always finds a schema to
		// replay the WAL against. Failure aborts the registration cleanly.
		fail := func(err error) (*Dataset, error) {
			_ = store.Remove(ns, name)
			g.mu.Lock()
			delete(n.reserved, name)
			g.mu.Unlock()
			n.releaseRows(int64(rel.N()))
			return nil, err
		}
		ds, err := store.Dataset(ns, name)
		if err != nil {
			return fail(fmt.Errorf("service: registering %q durably: %w", name, err))
		}
		if err := ds.WriteCheckpoint(checkpointOf(name, d.View(), enc.Dictionaries())); err != nil {
			ds.Close()
			return fail(fmt.Errorf("service: initial checkpoint for %q: %w", name, err))
		}
		d.store = ds
		d.checkpoints.Add(1)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(n.reserved, name)
	g.nextID++
	d.ID = g.nextID
	d.keyPrefix = nsPrefix(ns) + datasetPrefix(d.ID)
	n.byName[name] = d
	return d, nil
}

// install registers d, a dataset rebuilt from a checkpoint — recovered at
// boot or bootstrapped from a primary — and charges its rows to the
// namespace's total. Quotas are not enforced: existing data always loads
// and a replica mirrors data its primary already admitted; an over-quota
// namespace simply cannot grow. A taken name fails unless replace is set,
// in which case the old dataset is unlinked within the same registry lock,
// so concurrent readers always resolve the name to a complete dataset — a
// follower re-bootstrapping from a fresh snapshot must never open a 404
// window — and returned for the caller to retire outside the lock.
func (g *Registry) install(d *Dataset, replace bool) (old *Dataset, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := g.ensureNSLocked(d.Namespace)
	old = n.byName[d.Name]
	if old != nil && !replace {
		return nil, fmt.Errorf("service: %w: %q", ErrAlreadyRegistered, d.Name)
	}
	g.nextID++
	d.ID = g.nextID
	d.keyPrefix = nsPrefix(d.Namespace) + datasetPrefix(d.ID)
	d.ns = n
	n.rows.Add(int64(d.Info().Rows))
	n.byName[d.Name] = d
	return old, nil
}

// GetIn returns the dataset registered under (namespace, name).
func (g *Registry) GetIn(ns, name string) (*Dataset, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := g.namespaces[ns]
	if n == nil {
		return nil, false
	}
	d, ok := n.byName[name]
	return d, ok
}

// RemoveIn deregisters (namespace, name) and returns the removed dataset, if
// any. A durable dataset's directory (checkpoint + WAL) is deleted too: a
// removed dataset must not resurrect on the next boot. The dataset's rows go
// back to the namespace's quota budget — retire() reads the final row count
// under the append lock, so an append racing the remove either lands first
// (and its rows are counted in what gets released) or loses and fails on the
// removed latch; either way the namespace total balances to zero and a
// register→remove loop can never bleed -quota-rows dry.
func (g *Registry) RemoveIn(ns, name string) (*Dataset, bool) {
	g.mu.Lock()
	n := g.namespaces[ns]
	if n == nil {
		g.mu.Unlock()
		return nil, false
	}
	d, ok := n.byName[name]
	if ok {
		delete(n.byName, name)
	}
	store := g.store
	g.mu.Unlock()
	if !ok {
		return nil, false
	}
	// Quiesce and release outside g.mu: retire blocks on the dataset's append
	// lock (a WAL fsync can take milliseconds), and holding the registry lock
	// through that would stall every request to every dataset.
	d.retire()
	if d.store != nil {
		d.store.Close()
		if store != nil {
			_ = store.Remove(ns, name) // best-effort; a leftover dir only costs disk
		}
	}
	return d, true
}

// retire finalizes a dataset that has been unlinked from the registry: it
// waits out any in-flight append (serializing on the append lock), latches
// removed so later appends through stale pointers fail cleanly, returns the
// dataset's final row count to the namespace budget, and releases the lazy
// checkpoint handle if one is still open.
func (d *Dataset) retire() {
	d.appendMu.Lock()
	d.removed.Store(true)
	rows := int64(d.Info().Rows)
	d.appendMu.Unlock()
	d.ns.rows.Add(-rows)
	d.closeLazy()
}

// All returns every registered dataset across all namespaces, sorted by
// (namespace, name); the stats path uses it to surface per-dataset
// durability state.
func (g *Registry) All() []*Dataset {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []*Dataset
	for _, n := range g.namespaces {
		for _, d := range n.byName {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Namespace != out[j].Namespace {
			return out[i].Namespace < out[j].Namespace
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// ListIn returns summaries of one namespace's datasets, sorted by name; ok
// is false if the namespace does not exist (an existing empty namespace
// lists empty with ok true).
func (g *Registry) ListIn(ns string) ([]Info, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := g.namespaces[ns]
	if n == nil {
		return []Info{}, false
	}
	out := make([]Info, 0, len(n.byName))
	for _, d := range n.byName {
		out = append(out, d.Info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, true
}
