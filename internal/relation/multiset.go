package relation

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"ajdloss/internal/engine"
)

// Multiset is a multiset of tuples over named attributes. The paper's
// Section 2.2 defines the empirical distribution for multisets: a tuple with
// multiplicity K gets probability K/N where N counts tuples *with*
// multiplicity. Multisets arise when a universal relation is assembled from
// overlapping sources or aggregates, and all information-theoretic measures
// of this library (entropy, CMI, J-measure) accept them through the
// infotheory.Source interface.
type Multiset struct {
	attrs []string
	pos   map[string]int
	rows  []Tuple
	mult  []int64
	index rowTable
	total int64

	// snap is the lazily built weighted engine.Snapshot (groupindex.go).
	engMu sync.Mutex
	snap  *engine.Snapshot
}

// NewMultiset returns an empty multiset over the given attributes.
func NewMultiset(attrs ...string) *Multiset {
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
	return &Multiset{
		attrs: append([]string(nil), attrs...),
		pos:   pos,
	}
}

// MultisetOf builds a multiset from a relation, giving every tuple
// multiplicity 1 (the uniform empirical distribution).
func MultisetOf(r *Relation) *Multiset {
	m := NewMultiset(r.Attrs()...)
	for _, t := range r.Rows() {
		m.Add(t, 1)
	}
	return m
}

// Attrs returns the attribute names in schema order.
func (m *Multiset) Attrs() []string { return m.attrs }

// Arity returns the number of attributes.
func (m *Multiset) Arity() int { return len(m.attrs) }

// Add inserts k copies of tuple t (copied). k must be positive.
func (m *Multiset) Add(t Tuple, k int64) {
	if len(t) != len(m.attrs) {
		panic(fmt.Sprintf("relation: tuple arity %d != schema arity %d", len(t), len(m.attrs)))
	}
	if k <= 0 {
		panic(fmt.Sprintf("relation: non-positive multiplicity %d", k))
	}
	if i, added := m.index.insert(m.rows, t); !added {
		m.mult[i] += k
	} else {
		m.rows = append(m.rows, append(make(Tuple, 0, len(t)), t...))
		m.mult = append(m.mult, k)
	}
	m.total += k
	m.snap = nil // invalidate the snapshot; the next query rebuilds
}

// N returns the total number of tuples counted with multiplicity. It
// saturates at the int range on pathological inputs.
func (m *Multiset) N() int {
	return int(m.total)
}

// Distinct returns the number of distinct tuples.
func (m *Multiset) Distinct() int { return len(m.rows) }

// Multiplicity returns the multiplicity of tuple t (0 if absent).
func (m *Multiset) Multiplicity(t Tuple) int64 {
	if len(t) != len(m.attrs) {
		return 0
	}
	if i := m.index.find(m.rows, t); i >= 0 {
		return m.mult[i]
	}
	return 0
}

// ProjectCounts returns the multiset projection onto attrs: multiplicities
// aggregate across tuples that agree on attrs. This is the LEGACY
// string-keyed path kept for diagnostics and benchmark baselines; hot paths
// use GroupCounts (groupindex.go).
func (m *Multiset) ProjectCounts(attrs ...string) (map[string]int, error) {
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		p, ok := m.pos[a]
		if !ok {
			return nil, fmt.Errorf("relation: unknown attribute %q (have %s)", a, strings.Join(m.attrs, ","))
		}
		cols[i] = p
	}
	counts := make(map[string]int)
	buf := make(Tuple, len(cols))
	for i, t := range m.rows {
		for j, c := range cols {
			buf[j] = t[c]
		}
		counts[RowKey(buf)] += int(m.mult[i])
	}
	return counts, nil
}

// Support returns the set of distinct tuples as a relation (multiplicities
// dropped).
func (m *Multiset) Support() *Relation {
	r := New(m.attrs...)
	for _, t := range m.rows {
		r.Insert(t)
	}
	return r
}

// Scale returns a copy with every multiplicity multiplied by k ≥ 1; the
// empirical distribution is unchanged (entropies are scale-invariant, which
// tests exploit).
func (m *Multiset) Scale(k int64) *Multiset {
	if k <= 0 {
		panic(fmt.Sprintf("relation: non-positive scale %d", k))
	}
	out := NewMultiset(m.attrs...)
	for i, t := range m.rows {
		out.Add(t, m.mult[i]*k)
	}
	return out
}

// String renders a small multiset for debugging.
func (m *Multiset) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%d tuples, %d distinct)\n", strings.Join(m.attrs, " | "), m.total, len(m.rows))
	order := make([]int, len(m.rows))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		a, c := m.rows[order[x]], m.rows[order[y]]
		for k := range a {
			if a[k] != c[k] {
				return a[k] < c[k]
			}
		}
		return false
	})
	for n, i := range order {
		if n >= 20 {
			fmt.Fprintf(&b, "... (%d more)\n", len(m.rows)-20)
			break
		}
		for j, v := range m.rows[i] {
			if j > 0 {
				b.WriteString(" | ")
			}
			fmt.Fprintf(&b, "%d", v)
		}
		fmt.Fprintf(&b, "  x%d\n", m.mult[i])
	}
	return b.String()
}
