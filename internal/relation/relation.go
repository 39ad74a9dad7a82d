// Package relation implements the in-memory relational substrate used
// throughout the library: relation instances over named attributes with
// dictionary-encoded integer values, projection, selection, natural join,
// semijoin, and multiset statistics needed by the information-theoretic
// layer.
//
// A Relation is a *set* of tuples (duplicates are eliminated on insert), in
// line with the paper's definition of a relation instance R ∈ Rel(Ω). The
// empirical distribution associated with R is uniform over its tuples;
// multiset projections (with multiplicities) are exposed via ProjectCounts.
package relation

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"ajdloss/internal/engine"
)

// Value is a single attribute value. Real-world values (strings, etc.) are
// dictionary-encoded into Values by Encoder; synthetic workloads use domain
// elements 1..d directly.
type Value = int32

// Tuple is a row of a relation, one Value per attribute in schema order.
type Tuple = []Value

// Relation is a finite set of tuples over a fixed list of attributes.
// The zero value is not usable; construct with New or FromRows.
type Relation struct {
	attrs []string
	pos   map[string]int
	rows  []Tuple
	index rowTable // dedupes rows (empty on frozen Views until built)

	// snap is the head of the relation's engine.Snapshot chain (lazily built;
	// see groupindex.go). Reads are safe from multiple goroutines; mutation is
	// not: Insert invalidates the head, Append extends it into a new snapshot
	// while readers of older snapshots (frozen Views) continue undisturbed.
	engMu sync.Mutex
	snap  *engine.Snapshot
	// baseGen, when > 1, is the generation the (re)built snapshot head starts
	// at — set by SetBaseGeneration when a relation is recovered from a
	// durable checkpoint taken at that generation.
	baseGen int64

	// frozen marks an immutable View pinned to one snapshot: mutation is
	// disallowed and Snapshot() returns snap with no locking.
	frozen    bool
	indexOnce sync.Once // frozen Views build their row index lazily
}

// New returns an empty relation over the given attributes.
// Attribute names must be unique and non-empty.
func New(attrs ...string) *Relation {
	pos := make(map[string]int, len(attrs))
	for i, a := range attrs {
		if a == "" {
			panic("relation: empty attribute name")
		}
		if _, dup := pos[a]; dup {
			panic(fmt.Sprintf("relation: duplicate attribute %q", a))
		}
		pos[a] = i
	}
	return &Relation{
		attrs: append([]string(nil), attrs...),
		pos:   pos,
	}
}

// FromRows returns a relation over attrs containing the given rows
// (duplicates removed, first occurrence kept). Rows are copied.
func FromRows(attrs []string, rows []Tuple) *Relation {
	r := New(attrs...)
	r.checkArity(rows)
	r.appendCopies(rows)
	return r
}

// Adopt is FromRows without the copy: the relation takes ownership of rows
// (the caller must not modify them afterwards) and keeps the first
// occurrence of each distinct row, in order.
func Adopt(attrs []string, rows []Tuple) *Relation {
	r := New(attrs...)
	r.checkArity(rows)
	r.rows = make([]Tuple, 0, len(rows))
	r.index.rebuild(nil, tableSize(len(rows)))
	for _, t := range rows {
		if _, added := r.index.insert(r.rows, t); added {
			r.rows = append(r.rows, t)
		}
	}
	return r
}

// checkArity panics if any row's length differs from the schema arity.
func (r *Relation) checkArity(rows []Tuple) {
	for _, t := range rows {
		if len(t) != len(r.attrs) {
			panic(fmt.Sprintf("relation: tuple arity %d != schema arity %d", len(t), len(r.attrs)))
		}
	}
}

// Attrs returns the attribute names in schema order. The caller must not
// modify the returned slice.
func (r *Relation) Attrs() []string { return r.attrs }

// Arity returns the number of attributes.
func (r *Relation) Arity() int { return len(r.attrs) }

// N returns the number of tuples.
func (r *Relation) N() int { return len(r.rows) }

// Pos returns the position of attribute a in the schema and whether it
// exists.
func (r *Relation) Pos(a string) (int, bool) {
	p, ok := r.pos[a]
	return p, ok
}

// HasAttr reports whether the relation has attribute a.
func (r *Relation) HasAttr(a string) bool {
	_, ok := r.pos[a]
	return ok
}

// Row returns the i-th tuple. The caller must not modify it.
func (r *Relation) Row(i int) Tuple { return r.rows[i] }

// Rows returns all tuples. The caller must not modify them.
func (r *Relation) Rows() []Tuple { return r.rows }

// RowKey encodes a tuple as a map key; exposed for packages that hash rows.
// Keys are only comparable between tuples of the same length.
func RowKey(vals []Value) string {
	b := make([]byte, 0, 4*len(vals))
	for _, v := range vals {
		u := uint32(v)
		b = append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
	}
	return string(b)
}

// Insert adds tuple t (copied) and reports whether it was newly added.
// It panics if len(t) does not match the arity, or if r is a frozen View.
func (r *Relation) Insert(t Tuple) bool {
	if r.frozen {
		panic("relation: Insert into a frozen View")
	}
	if len(t) != len(r.attrs) {
		panic(fmt.Sprintf("relation: tuple arity %d != schema arity %d", len(t), len(r.attrs)))
	}
	if _, added := r.index.insert(r.rows, t); !added {
		return false
	}
	r.rows = append(r.rows, append(make(Tuple, 0, len(t)), t...))
	r.snap = nil // invalidate the snapshot head; the next query rebuilds
	return true
}

// Append inserts a batch of tuples (copied), skipping duplicates against the
// existing rows and within the batch, and reports how many were newly added.
// Unlike Insert, Append maintains the columnar group engine *incrementally*:
// each memoized grouping absorbs the new rows with O(batch) probes of the
// refinement probe handed down from the previous snapshot, plus an O(groups)
// copy of its counts, instead of being discarded and rebuilt (O(n × queried
// sets)), which is what makes streaming ingestion over a warm engine cheap.
// Incremental maintenance assigns exactly the group ids a from-scratch
// rebuild over the concatenated rows would.
//
// A tuple of the wrong arity fails the whole batch with an error before any
// mutation (no partial append), so the streaming service path never panics.
// Append must not run concurrently with other mutations, but it may run
// concurrently with readers that hold a snapshot or a frozen View: the old
// snapshot is never touched — Append extends it copy-on-write into a new
// head snapshot with a bumped generation, and Grouping/GroupCounts values
// obtained earlier stay frozen at the rows they were computed over.
func (r *Relation) Append(rows []Tuple) (int, error) {
	if r.frozen {
		return 0, fmt.Errorf("relation: Append to a frozen View")
	}
	for _, t := range rows {
		if len(t) != len(r.attrs) {
			return 0, fmt.Errorf("relation: tuple arity %d != schema arity %d", len(t), len(r.attrs))
		}
	}
	fresh := r.appendCopies(rows)
	r.engMu.Lock()
	if r.snap != nil && len(fresh) > 0 {
		r.snap = r.snap.Extend(fresh)
	}
	r.engMu.Unlock()
	return len(fresh), nil
}

// appendCopies appends a copy of each row of rows that r does not hold yet
// (the first of any repeats within rows), in order, and returns the copies.
// One backing array holds them all, carved with full slice expressions so
// the tuples stay independent.
func (r *Relation) appendCopies(rows []Tuple) []Tuple {
	arity := len(r.attrs)
	backing := make([]Value, 0, len(rows)*arity)
	start := len(r.rows)
	for _, t := range rows {
		if _, added := r.index.insert(r.rows, t); added {
			backing = append(backing, t...)
			r.rows = append(r.rows, backing[len(backing)-arity:len(backing):len(backing)])
		}
	}
	return r.rows[start:len(r.rows):len(r.rows)]
}

// View returns a frozen, immutable view of r pinned to its current snapshot:
// the view shares the snapshot's rows and memoized partitions, answers every
// read (including Grouping/GroupEntropy and the measures built on them) with
// no lock acquisitions, and never observes later appends. Insert panics and
// Append errors on a View; Clone returns an independent mutable copy.
//
// Views are how the analysis service serves reads during streaming appends:
// each request grabs the current View through one atomic pointer load and
// computes against exactly one generation.
func (r *Relation) View() *Relation {
	s := r.Snapshot()
	return &Relation{
		attrs:  r.attrs,
		pos:    r.pos,
		rows:   s.Rows(),
		snap:   s,
		frozen: true,
	}
}

// Contains reports whether tuple t is in the relation. Frozen Views build
// their row index lazily on the first membership test (views are created per
// append on the streaming path, and most never see a Contains).
func (r *Relation) Contains(t Tuple) bool {
	if len(t) != len(r.attrs) {
		return false
	}
	if r.frozen {
		r.indexOnce.Do(func() { r.index = newRowTable(r.rows) })
	}
	return r.index.find(r.rows, t) >= 0
}

// Clone returns an independent deep copy of r. Existing rows are already
// distinct, so the copy skips duplicate detection: one backing array holds
// all tuples and the index is built with its final size.
func (r *Relation) Clone() *Relation {
	out := New(r.attrs...)
	if len(r.rows) == 0 {
		return out
	}
	arity := len(r.attrs)
	backing := make([]Value, 0, len(r.rows)*arity)
	out.rows = make([]Tuple, len(r.rows))
	for i, t := range r.rows {
		backing = append(backing, t...)
		out.rows[i] = backing[len(backing)-arity : len(backing) : len(backing)]
	}
	out.index = newRowTable(out.rows)
	return out
}

// columns resolves attribute names to positions, failing on unknown names.
func (r *Relation) columns(attrs []string) ([]int, error) {
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		p, ok := r.pos[a]
		if !ok {
			return nil, fmt.Errorf("relation: unknown attribute %q (have %s)", a, strings.Join(r.attrs, ","))
		}
		cols[i] = p
	}
	return cols, nil
}

// MustColumns is columns but panics on error; used by hot paths whose
// attribute lists were validated at construction time.
func (r *Relation) MustColumns(attrs []string) []int {
	cols, err := r.columns(attrs)
	if err != nil {
		panic(err)
	}
	return cols
}

// Project returns the projection Π_attrs(R) as a new relation (a set:
// duplicates eliminated, first-occurrence row order).
//
// When the snapshot engine is already warm, the distinct projected rows are
// read off the memoized grouping — one representative per group id — instead
// of re-hashing every row: the join layer projects each schema bag this way,
// so bag projections share the partition work the entropy measures already
// paid for. Cold relations keep the plain row scan (building the columnar
// mirror for a one-shot projection would cost more than it saves).
func (r *Relation) Project(attrs ...string) (*Relation, error) {
	cols, err := r.columns(attrs)
	if err != nil {
		return nil, err
	}
	if s, ok := r.SnapshotIfWarm(); ok {
		g, err := s.Grouping(attrs...)
		if err != nil {
			return nil, err
		}
		// Read rows off the snapshot, not r.rows: a concurrent Append may be
		// growing the live slice, while the snapshot's rows are frozen at
		// exactly the generation g was computed over.
		rows := s.Rows()
		out := New(attrs...)
		seen := make([]bool, g.Groups())
		out.rows = make([]Tuple, 0, g.Groups())
		for i, id := range g.IDs {
			if seen[id] {
				continue
			}
			seen[id] = true
			row := make(Tuple, len(cols))
			for j, c := range cols {
				row[j] = rows[i][c]
			}
			out.rows = append(out.rows, row)
		}
		out.index = newRowTable(out.rows)
		return out, nil
	}
	out := New(attrs...)
	buf := make(Tuple, len(cols))
	for _, t := range r.rows {
		for i, c := range cols {
			buf[i] = t[c]
		}
		out.Insert(buf)
	}
	return out, nil
}

// MustProject is Project but panics on error.
func (r *Relation) MustProject(attrs ...string) *Relation {
	out, err := r.Project(attrs...)
	if err != nil {
		panic(err)
	}
	return out
}

// ProjectCounts returns the multiset projection of R onto attrs: a map from
// encoded projected-row key to its multiplicity. This is the LEGACY
// string-keyed path: it allocates a 4·arity-byte key per row per call. Hot
// paths use GroupCounts (groupindex.go) instead; ProjectCounts remains for
// diagnostics that need value-addressable keys (infotheory.EmpiricalDist,
// Factorization.Prob on arbitrary tuples) and as the baseline the bench
// harness and parity tests compare the columnar engine against.
func (r *Relation) ProjectCounts(attrs ...string) (map[string]int, error) {
	cols, err := r.columns(attrs)
	if err != nil {
		return nil, err
	}
	counts := make(map[string]int)
	buf := make(Tuple, len(cols))
	for _, t := range r.rows {
		for i, c := range cols {
			buf[i] = t[c]
		}
		counts[RowKey(buf)]++
	}
	return counts, nil
}

// Select returns σ_{attr=val}(R).
func (r *Relation) Select(attr string, val Value) (*Relation, error) {
	c, ok := r.pos[attr]
	if !ok {
		return nil, fmt.Errorf("relation: unknown attribute %q", attr)
	}
	out := New(r.attrs...)
	for _, t := range r.rows {
		if t[c] == val {
			out.Insert(t)
		}
	}
	return out, nil
}

// SelectWhere returns the sub-relation of tuples for which pred is true.
func (r *Relation) SelectWhere(pred func(Tuple) bool) *Relation {
	out := New(r.attrs...)
	for _, t := range r.rows {
		if pred(t) {
			out.Insert(t)
		}
	}
	return out
}

// Equal reports whether r and s are the same set of tuples over the same
// schema (attribute order must match).
func (r *Relation) Equal(s *Relation) bool {
	if r.N() != s.N() || len(r.attrs) != len(s.attrs) {
		return false
	}
	for i := range r.attrs {
		if r.attrs[i] != s.attrs[i] {
			return false
		}
	}
	for _, t := range r.rows {
		if !s.Contains(t) {
			return false
		}
	}
	return true
}

// EqualUpToOrder reports whether r and s contain the same tuples when s's
// columns are permuted to match r's attribute names.
func (r *Relation) EqualUpToOrder(s *Relation) bool {
	if r.N() != s.N() || len(r.attrs) != len(s.attrs) {
		return false
	}
	cols := make([]int, len(r.attrs))
	for i, a := range r.attrs {
		p, ok := s.pos[a]
		if !ok {
			return false
		}
		cols[i] = p
	}
	buf := make(Tuple, len(cols))
	for _, t := range s.rows {
		for i, c := range cols {
			buf[i] = t[c]
		}
		if !r.Contains(buf) {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every tuple of r (up to column reordering) is in s.
func (r *Relation) SubsetOf(s *Relation) bool {
	if len(r.attrs) != len(s.attrs) {
		return false
	}
	cols := make([]int, len(s.attrs))
	for i, a := range s.attrs {
		p, ok := r.pos[a]
		if !ok {
			return false
		}
		cols[i] = p
	}
	buf := make(Tuple, len(cols))
	for _, t := range r.rows {
		for i, c := range cols {
			buf[i] = t[c]
		}
		if !s.Contains(buf) {
			return false
		}
	}
	return true
}

// SortedRows returns the tuples sorted lexicographically; useful for
// deterministic golden output in tests and tools.
func (r *Relation) SortedRows() []Tuple {
	out := make([]Tuple, len(r.rows))
	copy(out, r.rows)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// String renders a small relation as a table; intended for debugging and
// examples, not for large instances.
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%d tuples)\n", strings.Join(r.attrs, " | "), r.N())
	for i, t := range r.SortedRows() {
		if i >= 20 {
			fmt.Fprintf(&b, "... (%d more)\n", r.N()-20)
			break
		}
		for j, v := range t {
			if j > 0 {
				b.WriteString(" | ")
			}
			fmt.Fprintf(&b, "%d", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// DomainSize returns the number of distinct values of attribute a.
func (r *Relation) DomainSize(a string) (int, error) {
	p, err := r.Project(a)
	if err != nil {
		return 0, err
	}
	return p.N(), nil
}

// ActiveDomain returns the sorted distinct values of attribute a.
func (r *Relation) ActiveDomain(a string) ([]Value, error) {
	c, ok := r.pos[a]
	if !ok {
		return nil, fmt.Errorf("relation: unknown attribute %q", a)
	}
	seen := make(map[Value]struct{})
	for _, t := range r.rows {
		seen[t[c]] = struct{}{}
	}
	out := make([]Value, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}
