package service

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync/atomic"

	"ajdloss/internal/discovery"
)

// ErrQuotaExceeded marks requests rejected because a namespace is at one of
// its quota limits. The HTTP layer maps it to 429 via errors.Is — the request
// was well-formed, the tenant is simply over its allowance.
var ErrQuotaExceeded = errors.New("namespace quota exceeded")

// Quotas are the per-namespace resource limits. A zero value means
// "unlimited" for that resource, so the zero Quotas imposes nothing.
type Quotas struct {
	// MaxDatasets bounds how many datasets the namespace may hold at once
	// (registrations in flight count — two concurrent registrations cannot
	// both squeeze under the limit).
	MaxDatasets int64
	// MaxRows bounds the total rows across all the namespace's datasets.
	// Appends reserve rows optimistically and roll back on rejection, so the
	// limit holds under concurrent appends without a lock on the write path.
	MaxRows int64
	// CacheShare bounds how many result-cache entries the namespace may
	// occupy, so one noisy tenant cannot evict every other tenant's warm
	// results out of the shared LRU.
	CacheShare int64
}

// QuotaError reports which namespace hit which limit; it unwraps to
// ErrQuotaExceeded for errors.Is.
type QuotaError struct {
	Namespace string
	Resource  string // "datasets" or "rows"
	Limit     int64
	Requested int64 // total that the rejected request would have reached
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("service: %s: namespace %q would hold %d %s, limit is %d",
		ErrQuotaExceeded, e.Namespace, e.Requested, e.Resource, e.Limit)
}

func (e *QuotaError) Is(target error) bool { return target == ErrQuotaExceeded }

// namespace is one tenant's slice of the registry: its datasets, its quota
// limits, its share of the row budget, and its own request counters. Every
// dataset belongs to exactly one namespace; the default namespace (where the
// legacy unversioned routes live) is a namespace like any other.
type namespace struct {
	name     string
	byName   map[string]*Dataset
	reserved map[string]bool // names mid-registration (see Registry.RegisterIn)

	// rows is the namespace's current total row count, maintained by
	// optimistic reservation: writers Add before applying and roll back the
	// part that did not land (over-quota, failure, duplicates), so the
	// MaxRows check is one atomic Add with no lock on the append path.
	rows atomic.Int64

	// Quota limits, atomically readable from the lock-free append path.
	maxDatasets atomic.Int64
	maxRows     atomic.Int64
	cacheShare  atomic.Int64

	// The namespace's request counters: surfaced by GET /v1/{ns}/stats and
	// summed into the service-wide Stats.
	counters
}

func (n *namespace) setQuotas(q Quotas) {
	n.maxDatasets.Store(q.MaxDatasets)
	n.maxRows.Store(q.MaxRows)
	n.cacheShare.Store(q.CacheShare)
}

// reserveRows claims k rows of the namespace's MaxRows budget, failing with
// a QuotaError (and claiming nothing) when the budget would be exceeded.
// Callers must release whatever part of the claim did not become real rows.
func (n *namespace) reserveRows(k int64) error {
	total := n.rows.Add(k)
	if q := n.maxRows.Load(); q > 0 && total > q {
		n.rows.Add(-k)
		return &QuotaError{Namespace: n.name, Resource: "rows", Limit: q, Requested: total}
	}
	return nil
}

// releaseRows returns k reserved rows to the namespace's budget.
func (n *namespace) releaseRows(k int64) {
	if k > 0 {
		n.rows.Add(-k)
	}
}

// nsPrefix is the namespace segment every cache and singleflight key starts
// with. The name is quoted so a namespace containing the separator cannot
// collide with another namespace's keyspace, and so whole-tenant eviction is
// one RemovePrefix call.
func nsPrefix(ns string) string { return "n" + strconv.Quote(ns) + "|" }

// NamespaceStats is one namespace's public stats snapshot: current holdings,
// configured quotas (0 = unlimited), and its slice of the request counters.
type NamespaceStats struct {
	Namespace string `json:"namespace"`
	Datasets  int    `json:"datasets"`
	Rows      int64  `json:"rows"`

	QuotaDatasets   int64 `json:"quota_datasets"`
	QuotaRows       int64 `json:"quota_rows"`
	QuotaCacheShare int64 `json:"quota_cache_share"`

	RequestCounts

	// Discovery holds the per-dataset discovery-memo counters, keyed by
	// dataset name; a dataset appears once a discovery request (or batch FD
	// query) has touched its memo. Absent while no dataset in the namespace
	// has one.
	Discovery map[string]discovery.MemoCounters `json:"discovery,omitempty"`
}

// lookupNS returns the namespace if it exists; nil otherwise.
func (g *Registry) lookupNS(ns string) *namespace {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.namespaces[ns]
}

// ensureNSLocked returns the namespace, creating it with the registry's
// default quotas on first use. Callers hold g.mu for writing.
func (g *Registry) ensureNSLocked(ns string) *namespace {
	n := g.namespaces[ns]
	if n == nil {
		n = &namespace{name: ns, byName: make(map[string]*Dataset), reserved: make(map[string]bool)}
		n.setQuotas(g.defaultQuota)
		g.namespaces[ns] = n
	}
	return n
}

// Namespaces returns the names of every namespace that currently exists,
// sorted. A namespace exists from its first registration (or recovery) until
// the registry is discarded — an emptied namespace keeps its quotas and
// counters.
func (g *Registry) Namespaces() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]string, 0, len(g.namespaces))
	for ns := range g.namespaces {
		out = append(out, ns)
	}
	sort.Strings(out)
	return out
}

// allNamespaces returns every namespace that currently exists, in no
// particular order.
func (g *Registry) allNamespaces() []*namespace {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]*namespace, 0, len(g.namespaces))
	for _, n := range g.namespaces {
		out = append(out, n)
	}
	return out
}

// DefaultNamespace returns the namespace the unversioned legacy API aliases.
func (g *Registry) DefaultNamespace() string {
	return *g.defaultNS.Load()
}

// SetDefaultNamespace points the legacy unversioned API at a different
// namespace. Must be set before serving; existing datasets do not move.
func (g *Registry) SetDefaultNamespace(ns string) {
	if ns == "" {
		ns = "default"
	}
	g.defaultNS.Store(&ns)
}

// SetDefaultQuotas sets the quotas applied to namespaces created from now
// on; namespaces that already exist keep theirs.
func (g *Registry) SetDefaultQuotas(q Quotas) {
	g.mu.Lock()
	g.defaultQuota = q
	g.mu.Unlock()
}

// NamespaceStats snapshots one namespace's stats; ok is false if the
// namespace does not exist.
func (g *Registry) NamespaceStats(ns string) (NamespaceStats, bool) {
	n := g.lookupNS(ns)
	if n == nil {
		return NamespaceStats{}, false
	}
	g.mu.RLock()
	datasets := len(n.byName)
	var disc map[string]discovery.MemoCounters
	for name, d := range n.byName {
		if d.memo.Load() == nil {
			continue
		}
		if disc == nil {
			disc = make(map[string]discovery.MemoCounters)
		}
		disc[name] = d.DiscoverCounters()
	}
	g.mu.RUnlock()
	return NamespaceStats{
		Namespace:       ns,
		Datasets:        datasets,
		Rows:            n.rows.Load(),
		QuotaDatasets:   n.maxDatasets.Load(),
		QuotaRows:       n.maxRows.Load(),
		QuotaCacheShare: n.cacheShare.Load(),
		RequestCounts:   n.load(),
		Discovery:       disc,
	}, true
}
