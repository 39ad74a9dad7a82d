// Package relation implements the in-memory relational substrate used
// throughout the library: relation instances over named attributes with
// dictionary-encoded integer values, projection, selection, natural join,
// semijoin, and multiset statistics needed by the information-theoretic
// layer.
//
// A Relation is a *set* of tuples (duplicates are eliminated on insert), in
// line with the paper's definition of a relation instance R ∈ Rel(Ω). The
// empirical distribution associated with R is uniform over its tuples;
// multiset projections (with multiplicities) are exposed as group counts
// (Grouping, GroupCounts) by the snapshot engine the relation delegates to.
// Tuples are stored once, as columns, which the engine's snapshots share.
package relation

import (
	"fmt"
	"slices"
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
//
// The tuples are stored once, as columns: cols[c][i] is attribute c of row
// i, for i < n, rows distinct and in insertion order. Snapshots adopt the
// column slices without copying them, so a relation only ever writes
// indexes ≥ the row count of every snapshot it has published.
type Relation struct {
	attrs []string
	pos   map[string]int
	cols  [][]Value
	n     int
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
		cols:  make([][]Value, len(attrs)),
	}
}

// FromRows returns a relation over attrs containing the given rows
// (duplicates removed, first occurrence kept). Rows are copied.
func FromRows(attrs []string, rows []Tuple) *Relation {
	r := New(attrs...)
	for c := range r.cols {
		r.cols[c] = make([]Value, 0, len(rows))
	}
	if _, err := r.Append(rows); err != nil {
		panic(err)
	}
	return r
}

// FromColumns returns a relation over attrs whose rows are those of cols:
// cols[c][i] is attribute c of row i. The relation takes ownership of the
// columns (the caller must not modify them afterwards). It returns an error,
// and no relation, if the column count does not match attrs, if the columns
// differ in length, or if any row repeats an earlier one.
func FromColumns(attrs []string, cols [][]Value) (*Relation, error) {
	r := New(attrs...)
	if len(cols) != len(attrs) {
		return nil, fmt.Errorf("relation: %d columns for %d attributes", len(cols), len(attrs))
	}
	n := 0
	if len(cols) > 0 {
		n = len(cols[0])
	}
	for c, col := range cols {
		if len(col) != n {
			return nil, fmt.Errorf("relation: column %d has %d rows, want %d", c, len(col), n)
		}
	}
	// The table is sized for all n rows up front, so no insert rebuilds it
	// and a duplicate (which records no slot) is only counted.
	r.index.rebuild(cols, 0, tableSize(n))
	row := make(Tuple, len(cols))
	dups := 0
	for i := 0; i < n; i++ {
		if _, added := r.index.insert(cols, i, rowAt(cols, i, row)); !added {
			dups++
		}
	}
	if dups > 0 {
		return nil, fmt.Errorf("relation: %d duplicate rows", dups)
	}
	r.cols, r.n = cols, n
	return r, nil
}

// fromDistinct returns a relation over attrs holding a copy of the first n
// rows of cols, which must be distinct.
func fromDistinct(attrs []string, cols [][]Value, n int) *Relation {
	out := New(attrs...)
	for c, col := range cols {
		out.cols[c] = slices.Clone(col[:n])
	}
	out.n = n
	out.index = newRowTable(out.cols, n)
	return out
}

// Attrs returns the attribute names in schema order. The caller must not
// modify the returned slice.
func (r *Relation) Attrs() []string { return r.attrs }

// Arity returns the number of attributes.
func (r *Relation) Arity() int { return len(r.attrs) }

// N returns the number of tuples.
func (r *Relation) N() int { return r.n }

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

// Columns returns the relation's columns: Columns()[c][i] is attribute c of
// row i, each of length N. The caller must not modify them. Later mutations
// of r never change the returned slices: r only writes past their ends.
func (r *Relation) Columns() [][]Value {
	cols := make([][]Value, len(r.cols))
	for c, col := range r.cols {
		cols[c] = col[:r.n:r.n]
	}
	return cols
}

// Row returns the i-th tuple, built from the columns.
func (r *Relation) Row(i int) Tuple { return rowAt(r.cols, i, make(Tuple, len(r.cols))) }

// Rows returns all tuples in order, built from the columns into one
// backing array.
func (r *Relation) Rows() []Tuple { return rowsOf(r.cols, r.n) }

// rowsOf builds the first n rows of cols.
func rowsOf(cols [][]Value, n int) []Tuple {
	arity := len(cols)
	backing := make([]Value, n*arity)
	rows := make([]Tuple, n)
	for i := range rows {
		rows[i] = rowAt(cols, i, backing[i*arity:(i+1)*arity:(i+1)*arity])
	}
	return rows
}

// gather copies row i of cols, restricted to the columns idx in that order,
// into dst and returns it.
func gather(cols [][]Value, idx []int, i int, dst Tuple) Tuple {
	for k, c := range idx {
		dst[k] = cols[c][i]
	}
	return dst
}

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
	if !r.insert(t) {
		return false
	}
	r.snap = nil // invalidate the snapshot head; the next query rebuilds
	return true
}

// insert appends t to the columns unless r holds it already, and reports
// whether it did.
func (r *Relation) insert(t Tuple) bool {
	if _, added := r.index.insert(r.cols, r.n, t); !added {
		return false
	}
	for c, v := range t {
		r.cols[c] = append(r.cols[c], v)
	}
	r.n++
	return true
}

// Append inserts a batch of tuples (copied), skipping duplicates against the
// existing rows and within the batch, and reports how many were newly added.
// Unlike Insert, Append maintains the columnar group engine *incrementally*:
// each memoized grouping absorbs the new rows with O(batch) probes of the
// refinement probe handed down from the previous snapshot, plus a copy of
// its chunk table and of the fixed-size count chunks the batch's rows land
// in (the rest are shared with the previous snapshot; see engine.Counts),
// instead of being discarded and rebuilt (O(n × queried sets)), which is
// what makes streaming ingestion over a warm engine cheap.
// Incremental maintenance assigns exactly the group ids a from-scratch
// rebuild over the concatenated rows would.
//
// A tuple of the wrong arity fails the whole batch with an error before any
// mutation (no partial append), so the streaming service path never panics.
// Append must not run concurrently with other mutations, but it may run
// concurrently with readers that hold a snapshot or a frozen View: the old
// snapshot is never touched — Append writes the new rows past its end and
// extends it copy-on-write into a new head snapshot with a bumped
// generation, and Grouping/GroupCounts values obtained earlier stay frozen
// at the rows they were computed over.
func (r *Relation) Append(rows []Tuple) (int, error) {
	if r.frozen {
		return 0, fmt.Errorf("relation: Append to a frozen View")
	}
	for _, t := range rows {
		if len(t) != len(r.attrs) {
			return 0, fmt.Errorf("relation: tuple arity %d != schema arity %d", len(t), len(r.attrs))
		}
	}
	from := r.n
	for _, t := range rows {
		r.insert(t)
	}
	r.engMu.Lock()
	if r.snap != nil {
		r.snap = r.snap.Extend(r.cols, r.n)
	}
	r.engMu.Unlock()
	return r.n - from, nil
}

// View returns a frozen, immutable view of r pinned to its current snapshot:
// the view shares the snapshot's columns and memoized partitions, answers
// every read (including Grouping/GroupEntropy and the measures built on
// them) with no lock acquisitions, and never observes later appends. Insert
// panics and Append errors on a View; Clone returns an independent mutable
// copy.
//
// Views are how the analysis service serves reads during streaming appends:
// each request grabs the current View through one atomic pointer load and
// computes against exactly one generation.
func (r *Relation) View() *Relation {
	s := r.Snapshot()
	return &Relation{
		attrs:  r.attrs,
		pos:    r.pos,
		cols:   s.Columns(),
		n:      s.NumRows(),
		snap:   s,
		frozen: true,
	}
}

// Contains reports whether tuple t is in the relation.
func (r *Relation) Contains(t Tuple) bool { return r.IndexOf(t) >= 0 }

// IndexOf returns the index of the row equal to t, or -1 if r does not
// hold t. Frozen Views build their row index lazily on the first lookup
// (views are created per append on the streaming path, and most never see
// one).
func (r *Relation) IndexOf(t Tuple) int {
	if len(t) != len(r.attrs) {
		return -1
	}
	if r.frozen {
		r.indexOnce.Do(func() { r.index = newRowTable(r.cols, r.n) })
	}
	return r.index.find(r.cols, t)
}

// Clone returns an independent deep copy of r. Existing rows are already
// distinct, so the copy skips duplicate detection: each column is copied
// whole and the index is built with its final size.
func (r *Relation) Clone() *Relation { return fromDistinct(r.attrs, r.cols, r.n) }

// subset returns the relation of the rows i of r for which keep(i) holds,
// in order. They are distinct already, so none is probed for a duplicate.
func (r *Relation) subset(keep func(i int) bool) *Relation {
	out := New(r.attrs...)
	for i := 0; i < r.n; i++ {
		if keep(i) {
			for c, col := range r.cols {
				out.cols[c] = append(out.cols[c], col[i])
			}
			out.n++
		}
	}
	out.index = newRowTable(out.cols, out.n)
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
// paid for. Either way row j of the result is group j of the grouping onto
// attrs, since group ids number the distinct projections in order of first
// occurrence.
func (r *Relation) Project(attrs ...string) (*Relation, error) {
	cols, err := r.columns(attrs)
	if err != nil {
		return nil, err
	}
	out := New(attrs...)
	if s, ok := r.SnapshotIfWarm(); ok {
		g, err := s.Grouping(attrs...)
		if err != nil {
			return nil, err
		}
		// Read the snapshot's columns, not r.cols: a concurrent Append may be
		// growing the live columns, while the snapshot's are frozen at
		// exactly the generation g was computed over. The first row of group
		// id k comes after the first rows of groups 0..k-1.
		src := s.Columns()
		for j := range out.cols {
			out.cols[j] = make([]Value, 0, g.Groups())
		}
		for i, id := range g.IDs {
			if int(id) == out.n {
				for j, c := range cols {
					out.cols[j] = append(out.cols[j], src[c][i])
				}
				out.n++
			}
		}
		out.index = newRowTable(out.cols, out.n)
		return out, nil
	}
	buf := make(Tuple, len(cols))
	for i := 0; i < r.n; i++ {
		out.insert(gather(r.cols, cols, i, buf))
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

// Select returns σ_{attr=val}(R).
func (r *Relation) Select(attr string, val Value) (*Relation, error) {
	c, ok := r.pos[attr]
	if !ok {
		return nil, fmt.Errorf("relation: unknown attribute %q", attr)
	}
	return r.subset(func(i int) bool { return r.cols[c][i] == val }), nil
}

// SelectWhere returns the sub-relation of tuples for which pred is true.
// pred receives a scratch copy of each row, valid only during the call.
func (r *Relation) SelectWhere(pred func(Tuple) bool) *Relation {
	buf := make(Tuple, len(r.attrs))
	return r.subset(func(i int) bool { return pred(rowAt(r.cols, i, buf)) })
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
	buf := make(Tuple, len(r.attrs))
	for i := 0; i < r.n; i++ {
		if !s.Contains(rowAt(r.cols, i, buf)) {
			return false
		}
	}
	return true
}

// EqualUpToOrder reports whether r and s contain the same tuples when s's
// columns are permuted to match r's attribute names.
func (r *Relation) EqualUpToOrder(s *Relation) bool {
	return r.N() == s.N() && s.SubsetOf(r)
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
	for i := 0; i < r.n; i++ {
		if !s.Contains(gather(r.cols, cols, i, buf)) {
			return false
		}
	}
	return true
}

// SortedRows returns the tuples sorted lexicographically; useful for
// deterministic golden output in tests and tools.
func (r *Relation) SortedRows() []Tuple {
	out := r.Rows()
	sort.Slice(out, func(i, j int) bool { return slices.Compare(out[i], out[j]) < 0 })
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
	for _, v := range r.cols[c][:r.n] {
		seen[v] = struct{}{}
	}
	out := make([]Value, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	slices.Sort(out)
	return out, nil
}
