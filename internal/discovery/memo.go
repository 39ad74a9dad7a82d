// Memo: materialized discovery results maintained across generations.
//
// Discovery answers (the Chow-Liu candidate, mined MVDs, discovered FDs) are
// deterministic functions of one snapshot. A Memo materializes them per
// result kind and parameter set, stamped with the generation they were
// computed at, and on the next call either serves them verbatim (same
// generation — a hit) or refreshes them by recomputing only what the
// intervening appends invalidated.
//
// The memo follows one snapshot chain, recognized by engine.Snapshot.Chain:
// a view of another chain (a different relation, or one rebuilt after an
// Insert) resets it at any generation. Its invalidation scoping rests on two
// engine facts:
//
//   - every appended row joins some group of every partition, so every
//     entropy-derived value (MI, CMI, H) changes on any append — those
//     lattice nodes are recomputed, but in O(groups) from the incrementally
//     extended partitions, never by re-refining rows;
//   - rows and group IDs are stable along a chain, so integer per-FD g₃
//     state (fd.G3State) advances by scanning only the appended row range,
//     however many appends that range spans.
//
// Results are bit-identical to a cold recompute at every generation: warm
// refreshes run exactly the cold code paths against the warm chain (floats
// recomputed from identical counts), and the FD search re-derives its
// enumeration from g₃ values that are integer-exactly equal (parity-tested
// in discover_quick_test.go and under -race in memo_test.go).
package discovery

import (
	"strconv"
	"sync"
	"sync/atomic"

	"ajdloss/internal/fd"
	"ajdloss/internal/relation"
)

// MemoCounters is a snapshot of a Memo's monotonic counters, distinguishing
// the three ways a call can be served.
type MemoCounters struct {
	// Hits counts calls answered entirely from a materialized result (the
	// view's generation matched the stamp).
	Hits int64 `json:"discover_hits"`
	// RecomputedNodes counts lattice/FD nodes recomputed or incrementally
	// advanced during warm refreshes: pair-MI entries for Chow-Liu,
	// separators for MVD mining, candidate FDs for FD discovery and batch FD
	// queries. Together with ColdRuns it shows how much of a refresh was
	// scoped work rather than a rebuild.
	RecomputedNodes int64 `json:"discover_recomputed_nodes"`
	// ColdRuns counts full cold materializations: the first run of a result
	// kind/parameter set, runs against a stale view (older than the memo's
	// generation), and runs after a reset by a view of another chain.
	ColdRuns int64 `json:"discover_cold_runs"`
}

// Memo materializes the discovery results of one dataset across generations.
// It follows a single snapshot chain at a time: a view of another chain
// drops every materialized result and restarts from that view. Safe for
// concurrent use; one internal mutex serializes refreshes while counters
// stay atomically readable. Returned slices and candidates are shared
// materialized values — callers must not modify them.
type Memo struct {
	mu sync.Mutex

	// chain/gen are the cursor: the snapshot chain the memoized state was
	// computed on and the newest generation it has been advanced to.
	// fd.G3States hold per-row state of that chain only; a view of another
	// chain resets them.
	chain uint64
	gen   int64

	chowLiu  *chowLiuEntry
	mvds     map[string]*mvdEntry
	fds      map[string]*fdEntry
	fdStates map[string]*fd.G3State // per-FD integer g₃ state, shared across configs

	hits       atomic.Int64
	recomputed atomic.Int64
	coldRuns   atomic.Int64
}

type chowLiuEntry struct {
	gen  int64
	cand Candidate
}

type mvdEntry struct {
	gen int64
	out []MVDCandidate
}

type fdEntry struct {
	gen int64
	out []fd.Discovered
}

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	return &Memo{
		mvds:     make(map[string]*mvdEntry),
		fds:      make(map[string]*fdEntry),
		fdStates: make(map[string]*fd.G3State),
	}
}

// Counters returns the memo's current counter values.
func (m *Memo) Counters() MemoCounters {
	return MemoCounters{
		Hits:            m.hits.Load(),
		RecomputedNodes: m.recomputed.Load(),
		ColdRuns:        m.coldRuns.Load(),
	}
}

// memoMode classifies how a call's view relates to the memoized chain.
type memoMode int

const (
	modeCurrent memoMode = iota // view is at the cursor; entries may hit
	modeStale                   // view is older than the cursor; serve off-memo
)

// advance moves the cursor to the view's generation. Called under mu. A view
// of another chain (a different relation, or one rebuilt after an Insert)
// drops every generation-dependent state and restarts the memo from this
// view, whatever its generation; on the memo's own chain an older view is
// stale and a newer one advances the cursor.
func (m *Memo) advance(r *relation.Relation) memoMode {
	snap := r.Snapshot()
	switch chain, gen := snap.Chain(), snap.Generation(); {
	case chain != m.chain:
		m.reset(chain, gen)
	case gen < m.gen:
		return modeStale
	default:
		m.gen = gen
	}
	return modeCurrent
}

// reset drops every generation-dependent materialization and restarts the
// cursor; the next call of each kind runs cold.
func (m *Memo) reset(chain uint64, gen int64) {
	m.chain, m.gen = chain, gen
	m.chowLiu = nil
	clear(m.mvds)
	clear(m.fds)
	clear(m.fdStates)
}

// ChowLiu returns the Chow-Liu candidate for the view, serving the
// materialized result when the generation matches and otherwise refreshing
// it: the pairwise-MI lattice nodes are recomputed in O(groups) against the
// chain's extended partitions (counted in RecomputedNodes) and the tree is
// rebuilt from them. Bit-identical to discovery.ChowLiu at every generation.
func (m *Memo) ChowLiu(r *relation.Relation) (Candidate, error) {
	attrs := r.Attrs()
	if len(attrs) < 2 {
		return ChowLiu(r) // same validation error as the plain path
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.advance(r) == modeStale {
		m.coldRuns.Add(1)
		return ChowLiu(r)
	}
	if e := m.chowLiu; e != nil && e.gen == m.gen {
		m.hits.Add(1)
		return e.cand, nil
	}
	warm := m.chowLiu != nil
	mis, err := pairMIs(r.Snapshot(), attrs)
	if err != nil {
		return Candidate{}, err
	}
	cand, err := chowLiuFromMIs(r, attrs, mis)
	if err != nil {
		return Candidate{}, err
	}
	if warm {
		m.recomputed.Add(int64(len(mis)))
	} else {
		m.coldRuns.Add(1)
	}
	m.chowLiu = &chowLiuEntry{gen: m.gen, cand: cand}
	return cand, nil
}

// FindMVDs returns the approximate-MVD candidates for the view and
// parameters, materialized per (maxSep, threshold). A warm refresh
// re-evaluates every separator (each CMI depends on counts every append
// changes) against the chain's extended partitions — the separators are the
// recomputed nodes. Bit-identical to discovery.FindMVDs.
func (m *Memo) FindMVDs(r *relation.Relation, maxSep int, threshold float64) ([]MVDCandidate, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.advance(r) == modeStale {
		m.coldRuns.Add(1)
		return FindMVDs(r, maxSep, threshold)
	}
	key := strconv.Itoa(maxSep) + "|" + strconv.FormatFloat(threshold, 'g', -1, 64)
	if e := m.mvds[key]; e != nil && e.gen == m.gen {
		m.hits.Add(1)
		return e.out, nil
	}
	warm := m.mvds[key] != nil
	out, err := FindMVDs(r, maxSep, threshold)
	if err != nil {
		return nil, err
	}
	if warm {
		m.recomputed.Add(int64(len(subsetsUpTo(r.Attrs(), maxSep))))
	} else {
		m.coldRuns.Add(1)
	}
	m.mvds[key] = &mvdEntry{gen: m.gen, out: out}
	return out, nil
}

// DiscoverFDs returns the minimal approximate FDs of the view, materialized
// per config. Warm refreshes advance each candidate's integer g₃ state over
// only the appended rows (fd.G3State; candidates first considered on this
// refresh fold their full prefix once and stay incremental after) — the
// considered candidates are the recomputed nodes. Bit-identical to
// fd.Discover at every generation.
func (m *Memo) DiscoverFDs(r *relation.Relation, cfg fd.DiscoverConfig) ([]fd.Discovered, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.advance(r) == modeStale {
		m.coldRuns.Add(1)
		return fd.Discover(r, cfg)
	}
	key := strconv.Itoa(cfg.MaxLHS) + "|" + strconv.FormatFloat(cfg.MaxG3, 'g', -1, 64)
	if e := m.fds[key]; e != nil && e.gen == m.gen {
		m.hits.Add(1)
		return e.out, nil
	}
	warm := m.fds[key] != nil
	nodes := int64(0)
	out, err := fd.DiscoverWith(r, cfg, func(f fd.FD) (float64, error) {
		nodes++
		return m.fdG3(r, f)
	})
	if err != nil {
		return nil, err
	}
	if warm {
		m.recomputed.Add(nodes)
	} else {
		m.coldRuns.Add(1)
	}
	m.fds[key] = &fdEntry{gen: m.gen, out: out}
	return out, nil
}

// fdG3 answers g₃ of one FD through the shared per-FD state. Called under mu
// with the view already advanced to the cursor.
func (m *Memo) fdG3(r *relation.Relation, f fd.FD) (float64, error) {
	k := f.String()
	st := m.fdStates[k]
	if st == nil {
		st = &fd.G3State{}
		m.fdStates[k] = st
	}
	g3, ok, err := st.Advance(r, f)
	if err != nil {
		return 0, err
	}
	if !ok {
		// The state ran ahead of this view (another caller advanced it
		// between our advance() and now — impossible under mu, but cheap to
		// stay correct): answer statelessly.
		return fd.G3Error(r, f)
	}
	return g3, nil
}

// FD answers one FD query (does X → Y hold, and its g₃ error) through the
// memo's incremental per-FD state — the batch-query path. Bit-identical to
// fd.Holds and fd.G3Error. A repeated query at an unchanged generation
// counts as a hit; otherwise the advanced candidate (or a stale view's
// off-memo answer) counts as a recomputed node.
func (m *Memo) FD(r *relation.Relation, x, y []string) (holds bool, g3 float64, err error) {
	f := fd.FD{X: x, Y: y}
	m.mu.Lock()
	defer m.mu.Unlock()
	stale := m.advance(r) == modeStale
	if stale {
		m.recomputed.Add(1)
	}
	if holds, err = fd.Holds(r, f); err != nil {
		return false, 0, err
	}
	if len(y) == 0 || r.N() == 0 {
		return holds, 0, nil
	}
	if stale {
		g3, err = fd.G3Error(r, f)
		return holds, g3, err
	}
	if st := m.fdStates[f.String()]; st != nil && st.Rows() == r.N() {
		m.hits.Add(1)
	} else {
		m.recomputed.Add(1)
	}
	g3, err = m.fdG3(r, f)
	return holds, g3, err
}
