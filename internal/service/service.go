package service

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"ajdloss/internal/core"
	"ajdloss/internal/discovery"
	"ajdloss/internal/engine"
	"ajdloss/internal/infotheory"
	"ajdloss/internal/jointree"
	"ajdloss/internal/relation"
)

// ErrUnknownDataset is wrapped by every request against an unregistered
// dataset name; the HTTP layer maps it to 404 via errors.Is.
var ErrUnknownDataset = errors.New("unknown dataset")

// RequestCounts are the monotonic request counters: service-wide in Stats,
// per namespace in NamespaceStats.
type RequestCounts struct {
	Requests  int64 `json:"requests"`   // analysis requests received (a batch counts once)
	CacheHits int64 `json:"cache_hits"` // answered from the LRU cache
	Coalesced int64 `json:"coalesced"`  // joined an identical in-flight computation
	Computed  int64 `json:"computed"`   // actually executed
	Errors    int64 `json:"errors"`     // requests (including appends) that returned an error
	Appends   int64 `json:"appends"`    // streaming append batches received (accepted or not)
	Batches   int64 `json:"batches"`    // POST /batch requests received
}

func (a *RequestCounts) add(b RequestCounts) {
	a.Requests += b.Requests
	a.CacheHits += b.CacheHits
	a.Coalesced += b.Coalesced
	a.Computed += b.Computed
	a.Errors += b.Errors
	a.Appends += b.Appends
	a.Batches += b.Batches
}

// counters are the live request counters. Each namespace embeds one set,
// and the Service keeps one more for requests naming a namespace that does
// not exist; a request adds to exactly one set. Stats sums the sets when it
// is read, and since namespaces are never deleted the sums stay monotone.
type counters struct {
	requests  atomic.Int64
	cacheHits atomic.Int64
	coalesced atomic.Int64
	computed  atomic.Int64
	errors    atomic.Int64
	appends   atomic.Int64
	batches   atomic.Int64
}

// load snapshots the counters. Errors are read first: each error is counted
// after the request or append it belongs to, so a snapshot taken under load
// never shows an error without its request.
func (c *counters) load() RequestCounts {
	errs := c.errors.Load()
	return RequestCounts{
		Requests:  c.requests.Load(),
		CacheHits: c.cacheHits.Load(),
		Coalesced: c.coalesced.Load(),
		Computed:  c.computed.Load(),
		Errors:    errs,
		Appends:   c.appends.Load(),
		Batches:   c.batches.Load(),
	}
}

// Stats are the service's monotonic counters, readable while the service is
// under load. The request counters are the sum over every namespace plus the
// requests whose namespace does not exist.
type Stats struct {
	RequestCounts
	// Checkpoints counts durable checkpoints written across the currently
	// registered datasets (registration, manual POST, size-triggered
	// compaction, shutdown); CheckpointErrors counts background compactions
	// that failed (manual failures surface to the caller directly).
	Checkpoints      int64 `json:"checkpoints"`
	CheckpointErrors int64 `json:"checkpoint_errors"`
	// SkippedLines counts, per -watch'ed dataset, the file lines the watcher
	// had to drop: rows with the wrong field count, permanently unparseable
	// lines, and rows lost to a deterministically failing chunk. Absent until
	// the first skip.
	SkippedLines map[string]int64 `json:"skipped_lines,omitempty"`
	// Durability is the per-dataset durable state — current WAL size, the
	// generation of the latest checkpoint, and how many checkpoints this
	// dataset has written. Absent when the service runs without a store.
	Durability map[string]DatasetDurability `json:"durability,omitempty"`
	// Replication is the follower's replication state (primary, lag, applied
	// totals); absent on a primary or standalone node, so the legacy /stats
	// shape is unchanged everywhere replication is off.
	Replication *ReplicationView `json:"replication,omitempty"`
	// Discovery aggregates the discovery-memo counters across every dataset:
	// how many discovery answers were served from materialized results, how
	// many lattice/FD nodes warm refreshes recomputed, and how many full cold
	// materializations ran. Absent until the first discovery request touches a
	// memo; per-dataset breakdowns live in the namespace stats.
	Discovery *discovery.MemoCounters `json:"discovery,omitempty"`
}

// DatasetDurability is one dataset's durable state as surfaced in Stats.
type DatasetDurability struct {
	WALBytes       int64 `json:"wal_bytes"`
	LastCheckpoint int64 `json:"last_checkpoint"` // generation; 0 = none yet
	Checkpoints    int64 `json:"checkpoints"`
}

// Service is the concurrent analysis engine behind cmd/ajdlossd: a dataset
// registry plus request coalescing (identical concurrent analyses compute
// once) and a bounded LRU cache of finished results. All methods are safe
// for concurrent use; results are immutable views shared between callers.
type Service struct {
	reg   *Registry
	sf    flightGroup
	cache *lruCache

	// unattributed counts the requests whose namespace does not exist; every
	// other request is counted in its namespace (see counters).
	unattributed     counters
	checkpointErrors atomic.Int64

	// compactAt is the WAL size that triggers background compaction for a
	// dataset; set by EnableDurability from the store's options.
	compactAt int64

	// replication is the follower's published replication state (see
	// SetReplication); nil on a primary or standalone node.
	replication atomic.Pointer[ReplicationView]

	skippedMu sync.Mutex
	skipped   map[string]int64 // per-watched-dataset dropped line counts
}

// New returns a service with the given result-cache capacity (entries, not
// bytes; 0 disables caching but keeps coalescing).
func New(cacheSize int) *Service {
	return &Service{reg: NewRegistry(), cache: newLRUCache(cacheSize)}
}

// Registry exposes the dataset registry (registration, listing, removal).
func (s *Service) Registry() *Registry { return s.reg }

// DefaultNamespace returns the namespace the legacy unversioned API aliases.
func (s *Service) DefaultNamespace() string { return s.reg.DefaultNamespace() }

// SetDefaultNamespace points the legacy unversioned API at a different
// namespace. Must be set before serving.
func (s *Service) SetDefaultNamespace(ns string) { s.reg.SetDefaultNamespace(ns) }

// RemoveIn deregisters (namespace, dataset) and drops its cached results.
// HTTP DELETE handlers additionally guard with FollowerError first — this
// method cannot carry the typed 421, and a follower's replica tail calls it
// unguarded to mirror the primary's removals.
func (s *Service) RemoveIn(ns, name string) bool {
	d, ok := s.reg.RemoveIn(ns, name)
	if ok {
		s.cache.RemovePrefix(d.keyPrefix)
	}
	return ok
}

// Stats returns a snapshot of the service-wide counters.
func (s *Service) Stats() Stats {
	st := Stats{
		RequestCounts:    s.unattributed.load(),
		CheckpointErrors: s.checkpointErrors.Load(),
	}
	for _, n := range s.reg.allNamespaces() {
		st.RequestCounts.add(n.load())
	}
	defaultNS := s.reg.DefaultNamespace()
	for _, d := range s.reg.All() {
		if d.memo.Load() != nil {
			if st.Discovery == nil {
				st.Discovery = &discovery.MemoCounters{}
			}
			c := d.DiscoverCounters()
			st.Discovery.Hits += c.Hits
			st.Discovery.RecomputedNodes += c.RecomputedNodes
			st.Discovery.ColdRuns += c.ColdRuns
		}
		if d.store == nil {
			continue
		}
		if st.Durability == nil {
			st.Durability = make(map[string]DatasetDurability)
		}
		ckpts := d.checkpoints.Load()
		st.Checkpoints += ckpts
		// Default-namespace datasets keep their bare pre-namespace key so
		// existing dashboards (and the legacy /stats shape) are unchanged;
		// other tenants' datasets are qualified.
		key := d.Name
		if d.Namespace != defaultNS {
			key = d.Namespace + "/" + d.Name
		}
		st.Durability[key] = DatasetDurability{
			WALBytes:       d.store.WALBytes(),
			LastCheckpoint: d.store.LastCheckpoint(),
			Checkpoints:    ckpts,
		}
	}
	st.Replication = s.replication.Load()
	s.skippedMu.Lock()
	if len(s.skipped) > 0 {
		st.SkippedLines = make(map[string]int64, len(s.skipped))
		for k, v := range s.skipped {
			st.SkippedLines[k] = v
		}
	}
	s.skippedMu.Unlock()
	return st
}

// AddSkippedLines records that the file watcher for the named dataset
// dropped n lines (unparseable, wrong field count, or lost to a failing
// chunk). Exposed per dataset in Stats so silently skipped input is visible
// in /stats instead of only in the daemon's log.
func (s *Service) AddSkippedLines(dataset string, n int64) {
	if n <= 0 {
		return
	}
	s.skippedMu.Lock()
	if s.skipped == nil {
		s.skipped = make(map[string]int64)
	}
	s.skipped[dataset] += n
	s.skippedMu.Unlock()
}

func datasetPrefix(id int64) string { return "d" + strconv.FormatInt(id, 10) + "|" }

// requestKey is the per-request key prefix: namespace, dataset identity,
// plus the *generation* of the frozen view the request grabbed. The
// generation segment is what guarantees a cached pre-append result can never
// answer a post-append request (and vice versa) — the LRU and singleflight
// maps key the generation explicitly instead of trusting time-of-check
// registry state. Since PR 4 the generation is a property of the captured
// snapshot itself: the computation runs against exactly the view the key was
// built from, so key and result can never disagree about the generation. The
// leading namespace segment partitions both maps per tenant: a namespace's
// entire keyspace shares one prefix, so cross-tenant collisions are
// impossible by construction and whole-tenant eviction is one prefix sweep.
func requestKey(d *Dataset, gen int64) string {
	return d.keyPrefix + "g" + strconv.FormatInt(gen, 10) + "|"
}

// do is the shared request path: LRU lookup, then singleflight-coalesced
// computation, then cache fill. fn computes against a frozen view whose
// generation is keyGen — no locks, no possibility of observing another
// generation. Errors are never cached (a transient formulation error must
// not poison the key), but concurrent identical failures still coalesce.
// The cache is only filled while d is still the registered dataset at the
// same generation: an append or DELETE landing mid-computation has already
// run its eviction, and filling afterwards would park an unreachable
// old-generation entry in the bounded LRU. The check and the Add are not one
// atomic step — the window shrinks to a few instructions, and an entry
// parked by a loss is unservable but harmless and ages out by eviction.
func (s *Service) do(d *Dataset, key string, keyGen int64, fn func() (any, error)) (any, error) {
	n := d.ns
	n.requests.Add(1)
	if v, ok := s.cache.Get(key); ok {
		n.cacheHits.Add(1)
		return v, nil
	}
	v, err, shared := s.sf.Do(key, func() (any, error) {
		n.computed.Add(1)
		v, err := fn()
		if err == nil {
			if cur, ok := s.reg.GetIn(d.Namespace, d.Name); ok && cur.ID == d.ID && cur.Generation() == keyGen {
				s.cache.Add(key, v, n.name, n.cacheShare.Load())
			}
		}
		return v, err
	})
	if shared {
		n.coalesced.Add(1)
	}
	if err != nil {
		n.errors.Add(1)
		return nil, err
	}
	return v, nil
}

// reject accounts a request that failed validation before reaching do(), so
// Stats sees every request, not only the well-formed ones.
func reject(c *counters, err error) error {
	c.requests.Add(1)
	c.errors.Add(1)
	return err
}

// countersFor returns the counters a request against ns is charged to when
// it has no dataset to charge: the namespace's own, or the service's
// unattributed set when the namespace does not exist.
func (s *Service) countersFor(ns string) *counters {
	if n := s.reg.lookupNS(ns); n != nil {
		return &n.counters
	}
	return &s.unattributed
}

func (s *Service) dataset(ns, name string) (*Dataset, error) {
	d, ok := s.reg.GetIn(ns, name)
	if !ok {
		return nil, fmt.Errorf("service: %w %q", ErrUnknownDataset, name)
	}
	// First touch of a lazily recovered dataset decodes its checkpoint here
	// (see Dataset.ensure); a decode failure is the store's fault, not the
	// request's.
	if err := d.ensure(); err != nil {
		return nil, fmt.Errorf("service: %w: %w", ErrStore, err)
	}
	return d, nil
}

// attrsKey renders attribute lists into a canonical request-key fragment.
// Each name is quoted, so names containing separators (a quoted CSV header
// cell like "A,B" is legal) cannot collide with a list of plain names.
func attrsKey(lists ...[]string) string {
	parts := make([]string, len(lists))
	for i, l := range lists {
		sorted := append([]string(nil), l...)
		sort.Strings(sorted)
		quoted := make([]string, len(sorted))
		for j, a := range sorted {
			quoted[j] = strconv.Quote(a)
		}
		parts[i] = strings.Join(quoted, ",")
	}
	return strings.Join(parts, ";")
}

// AnalyzeIn runs the full core.Analyze report of the schema (in the CLI's
// "A,B;B,C" syntax) against the named dataset in the given namespace.
func (s *Service) AnalyzeIn(ns, dataset, schemaStr string) (*ReportView, error) {
	d, err := s.dataset(ns, dataset)
	if err != nil {
		return nil, reject(s.countersFor(ns), err)
	}
	schema, err := jointree.ParseSchema(schemaStr)
	if err != nil {
		return nil, reject(&d.ns.counters, err)
	}
	if !jointree.IsAcyclic(schema) {
		return nil, reject(&d.ns.counters, fmt.Errorf("service: schema %s is cyclic; only acyclic schemas have join trees", schema))
	}
	// Grab the frozen view once (one atomic load): the whole report — and its
	// echoed generation — is computed against this snapshot, lock-free,
	// regardless of concurrent appends.
	rel := d.View()
	keyGen := rel.Generation()
	key := requestKey(d, keyGen) + "analyze|" + schema.String()
	v, err := s.do(d, key, keyGen, func() (any, error) {
		rep, err := core.Analyze(rel, schema)
		if err != nil {
			return nil, err
		}
		view := NewReportView(rep)
		view.Generation = keyGen
		return view, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*ReportView), nil
}

// AppendIn applies a batch of string records to the named dataset in the
// given namespace. Rows are dictionary-encoded with the dataset's encoder,
// duplicates are skipped, and the columnar engine is maintained
// incrementally. The batch is quota-checked against the namespace's row
// budget before any row (or WAL byte) lands. On success the dataset's
// generation is bumped (if any row was added) and every cached result of the
// dataset is dropped — subsequent requests recompute against the new
// generation, so the hit/miss counters never conflate generations.
func (s *Service) AppendIn(ns, dataset string, records [][]string, header bool) (*AppendView, error) {
	// Every attempt counts — a failed append must be visible in Stats, and
	// errors can never outnumber the traffic that produced them. An attempt
	// is charged to its dataset's namespace once the dataset is resolved.
	err := s.reg.errIfFollower()
	var d *Dataset
	if err == nil {
		d, err = s.dataset(ns, dataset)
	}
	if err != nil {
		c := s.countersFor(ns)
		c.appends.Add(1)
		c.errors.Add(1)
		return nil, err
	}
	d.ns.appends.Add(1)
	added, dups, rows, gen, err := d.Append(records, header)
	if err != nil {
		d.ns.errors.Add(1)
		return nil, err
	}
	if added > 0 {
		// Results of previous generations are unreachable (keys embed the
		// generation); evict them eagerly so they do not squat in the LRU.
		// The sweep is namespace-prefixed: the same dataset name warm in
		// another tenant's cache share is untouched.
		s.cache.RemovePrefix(d.keyPrefix)
	}
	// Fold an outgrown WAL into a fresh checkpoint in the background; the
	// append itself never waits on compaction.
	s.maybeCompact(d)
	return &AppendView{
		Dataset:    d.Name,
		Appended:   added,
		Duplicates: dups,
		Rows:       rows,
		Generation: gen,
	}, nil
}

// DiscoverIn runs schema discovery (Chow-Liu, coarsening to the target
// J-measure, and approximate-MVD mining with separators of size ≤ maxSep)
// against the named dataset in the given namespace.
func (s *Service) DiscoverIn(ns, dataset string, target float64, maxSep int) (*DiscoverView, error) {
	d, err := s.dataset(ns, dataset)
	if err != nil {
		return nil, reject(s.countersFor(ns), err)
	}
	rel := d.View()
	keyGen := rel.Generation()
	key := requestKey(d, keyGen) + "discover|" + strconv.FormatFloat(target, 'g', -1, 64) + "|" + strconv.Itoa(maxSep)
	v, err := s.do(d, key, keyGen, func() (any, error) {
		view, err := s.discover(d, rel, target, maxSep)
		if err != nil {
			return nil, err
		}
		view.Generation = keyGen
		return view, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*DiscoverView), nil
}

// discover runs the discovery suite against one frozen view. The Chow-Liu
// candidate and the MVD mining go through the dataset's discovery memo: a
// repeat request at the same generation is served from the materialized
// result, and a request after appends recomputes only the invalidated
// lattice nodes against the extended snapshot chain — bit-identical to the
// cold run either way. Coarsening and the ρ losses are derived from those
// results per request (they depend on the request's target).
func (s *Service) discover(d *Dataset, rel *relation.Relation, target float64, maxSep int) (*DiscoverView, error) {
	name := d.Name
	memo := d.discoverMemo()
	cl, err := memo.ChowLiu(rel)
	if err != nil {
		return nil, err
	}
	clLoss, err := core.ComputeLossTree(rel, cl.Tree)
	if err != nil {
		return nil, err
	}
	path, err := discovery.Coarsen(rel, cl.Tree, target)
	if err != nil {
		return nil, err
	}
	best := path[len(path)-1]
	bestLoss := clLoss
	if len(path) > 1 {
		if bestLoss, err = core.ComputeLossTree(rel, best.Tree); err != nil {
			return nil, err
		}
	}
	mvds, err := memo.FindMVDs(rel, maxSep, target)
	if err != nil {
		return nil, err
	}
	view := &DiscoverView{
		Dataset:      name,
		Rows:         rel.N(),
		Target:       target,
		MaxSep:       maxSep,
		ChowLiu:      candidateView(cl, clLoss),
		Best:         candidateView(best, bestLoss),
		Contractions: len(path) - 1,
	}
	for _, m := range mvds {
		schema, err := jointree.MVDSchema(m.X, m.Groups...)
		if err != nil {
			return nil, err
		}
		loss, err := core.ComputeLoss(rel, schema)
		if err != nil {
			return nil, err
		}
		view.MVDs = append(view.MVDs, MVDCandidateView{X: m.X, Groups: m.Groups, J: m.J, Rho: loss.Rho})
	}
	return view, nil
}

// EntropyIn answers an entropy-family query against the named dataset in
// the given namespace:
//
//   - attrs only:            H(attrs)
//   - attrs + given:         H(attrs | given)
//   - a + b:                 I(a ; b)
//   - a + b + given:         I(a ; b | given)
//
// Exactly one of (attrs) or (a,b) must be provided.
func (s *Service) EntropyIn(ns, dataset string, attrs, a, b, given []string) (*EntropyView, error) {
	d, err := s.dataset(ns, dataset)
	if err != nil {
		return nil, reject(s.countersFor(ns), err)
	}
	pairMode := len(a) > 0 || len(b) > 0
	switch {
	case pairMode && len(attrs) > 0:
		return nil, reject(&d.ns.counters, fmt.Errorf("service: entropy query takes either attrs or a+b, not both"))
	case pairMode && (len(a) == 0 || len(b) == 0):
		return nil, reject(&d.ns.counters, fmt.Errorf("service: mutual information needs both a and b"))
	case !pairMode && len(attrs) == 0:
		return nil, reject(&d.ns.counters, fmt.Errorf("service: entropy query needs attrs (or a and b)"))
	}
	var kind string
	switch {
	case pairMode && len(given) > 0:
		kind = "cmi"
	case pairMode:
		kind = "mi"
	case len(given) > 0:
		kind = "conditional_entropy"
	default:
		kind = "entropy"
	}
	rel := d.View()
	keyGen := rel.Generation()
	key := requestKey(d, keyGen) + "entropy|" + kind + "|" + attrsKey(attrs, a, b, given)
	v, err := s.do(d, key, keyGen, func() (any, error) {
		var nats float64
		var err error
		switch kind {
		case "entropy":
			nats, err = infotheory.Entropy(rel, attrs...)
		case "conditional_entropy":
			nats, err = infotheory.ConditionalEntropy(rel, attrs, given)
		case "mi", "cmi":
			nats, err = infotheory.ConditionalMutualInformation(rel, a, b, given)
		}
		if err != nil {
			return nil, err
		}
		return &EntropyView{
			Dataset:    d.Name,
			Kind:       kind,
			Attrs:      attrs,
			A:          a,
			B:          b,
			Given:      given,
			Rows:       rel.N(),
			Generation: keyGen,
			Nats:       nats,
			Bits:       infotheory.Bits(nats),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	// The key sorts attribute lists, so a cached or coalesced view may have
	// been filled by a request that spelled them in another order. Echo this
	// caller's own lists; the numbers are order-insensitive.
	view := *v.(*EntropyView)
	view.Attrs, view.A, view.B, view.Given = attrs, a, b, given
	return &view, nil
}

// maxBatchQueries bounds one POST /batch body: far beyond any dashboard's
// needs, small enough that a hostile batch cannot monopolize the pool.
const maxBatchQueries = 1024

// batchKey renders the normalized engine queries into a canonical
// request-key fragment. Attribute lists are sorted (the measures are
// order-insensitive), queries are not (the response echoes them in order).
func batchKey(qs []engine.Query) string {
	parts := make([]string, len(qs))
	for i, q := range qs {
		parts[i] = strconv.Quote(q.Kind) + ":" + attrsKey(q.Attrs, q.Given, q.A, q.B, q.X, q.Y)
	}
	return strings.Join(parts, "&")
}

// BatchIn answers a set of entropy/MI/CMI/FD/distinct queries against one
// consistent snapshot of the named dataset in the given namespace, in a
// single round trip. All queries observe the same generation — the view
// grabbed by one atomic load — and their lattice work is shared: the engine
// plan orders every needed attribute set parents-first and computes each
// refinement exactly once on a bounded worker pool, so a batch of
// overlapping queries costs far less than the same queries issued
// separately cold. Identical concurrent batches coalesce, and finished
// batches are LRU-cached like any other request.
func (s *Service) BatchIn(ns, dataset string, qs []BatchQuery) (*BatchView, error) {
	d, err := s.dataset(ns, dataset)
	if err != nil {
		c := s.countersFor(ns)
		c.batches.Add(1)
		return nil, reject(c, err)
	}
	c := &d.ns.counters
	c.batches.Add(1)
	if len(qs) == 0 {
		return nil, reject(c, fmt.Errorf("service: batch needs at least one query"))
	}
	if len(qs) > maxBatchQueries {
		return nil, reject(c, fmt.Errorf("service: batch of %d queries exceeds the limit of %d", len(qs), maxBatchQueries))
	}
	// Normalize kinds before the key is built, so spelling variants of the
	// same batch ("MI" vs "mi", conditional_entropy vs entropy+given)
	// coalesce and share cache entries; the response still echoes the
	// caller's original queries.
	eqs := make([]engine.Query, len(qs))
	for i, q := range qs {
		kind := strings.ToLower(strings.TrimSpace(q.Kind))
		if kind == "conditional_entropy" {
			kind = "entropy" // H(attrs|given) is entropy with given set
		}
		eqs[i] = engine.Query{
			Kind: kind, Attrs: q.Attrs, Given: q.Given,
			A: q.A, B: q.B, X: q.X, Y: q.Y,
		}
	}
	rel := d.View()
	keyGen := rel.Generation()
	key := requestKey(d, keyGen) + "batch|" + batchKey(eqs)
	v, err := s.do(d, key, keyGen, func() (any, error) {
		// One parents-first plan covers every query's lattice nodes (shared
		// refinements computed once on the pool); fd queries are answered
		// through the dataset's discovery memo: its per-FD integer g₃ state
		// advances over only the rows appended since the FD was last asked,
		// instead of rescanning all n rows per request. Answers are
		// bit-identical to fd.G3Error.
		snap := rel.Snapshot()
		p := snap.Plan()
		for i := range eqs {
			if err := eqs[i].AddToPlan(p); err != nil {
				return nil, fmt.Errorf("service: batch: query %d: %w", i+1, err)
			}
		}
		p.Run(0)
		memo := d.discoverMemo()
		view := &BatchView{
			Dataset:    d.Name,
			Rows:       rel.N(),
			Generation: keyGen,
			Results:    make([]BatchResultView, len(qs)),
		}
		for i := range eqs {
			rv := BatchResultView{Query: qs[i]}
			switch eqs[i].Kind {
			case "fd":
				holds, g3, err := memo.FD(rel, eqs[i].X, eqs[i].Y)
				if err != nil {
					return nil, fmt.Errorf("service: batch: query %d: %w", i+1, err)
				}
				rv.Holds, rv.G3 = &holds, &g3
			default:
				res, err := eqs[i].Eval(snap)
				if err != nil {
					return nil, fmt.Errorf("service: batch: query %d: %w", i+1, err)
				}
				if eqs[i].Kind == "distinct" {
					distinct := res.Distinct
					rv.Distinct = &distinct
				} else {
					nats, bits := res.Nats, infotheory.Bits(res.Nats)
					rv.Nats, rv.Bits = &nats, &bits
				}
			}
			view.Results[i] = rv
		}
		return view, nil
	})
	if err != nil {
		return nil, err
	}
	// The key normalizes kinds and sorts attribute lists, so a cached or
	// coalesced view may echo another request's spelling. Re-stamp every
	// result with this caller's own query.
	view := *v.(*BatchView)
	view.Results = append([]BatchResultView(nil), view.Results...)
	for i := range view.Results {
		view.Results[i].Query = qs[i]
	}
	return &view, nil
}
