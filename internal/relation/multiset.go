package relation

import (
	"fmt"
	"slices"
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
	cols  [][]Value // cols[c][i] is attribute c of distinct row i
	mult  []int64   // mult[i] is the multiplicity of row i
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
		cols:  make([][]Value, len(attrs)),
	}
}

// MultisetOf builds a multiset from a relation, giving every tuple
// multiplicity 1 (the uniform empirical distribution).
func MultisetOf(r *Relation) *Multiset {
	m := NewMultiset(r.Attrs()...)
	buf := make(Tuple, r.Arity())
	for i := 0; i < r.n; i++ {
		m.Add(rowAt(r.cols, i, buf), 1)
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
	if i, added := m.index.insert(m.cols, len(m.mult), t); !added {
		m.mult[i] += k
	} else {
		for c, v := range t {
			m.cols[c] = append(m.cols[c], v)
		}
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
func (m *Multiset) Distinct() int { return len(m.mult) }

// Multiplicity returns the multiplicity of tuple t (0 if absent).
func (m *Multiset) Multiplicity(t Tuple) int64 {
	if len(t) != len(m.attrs) {
		return 0
	}
	if i := m.index.find(m.cols, t); i >= 0 {
		return m.mult[i]
	}
	return 0
}

// Support returns the set of distinct tuples as a relation (multiplicities
// dropped).
func (m *Multiset) Support() *Relation { return fromDistinct(m.attrs, m.cols, len(m.mult)) }

// Scale returns a copy with every multiplicity multiplied by k ≥ 1; the
// empirical distribution is unchanged (entropies are scale-invariant, which
// tests exploit).
func (m *Multiset) Scale(k int64) *Multiset {
	if k <= 0 {
		panic(fmt.Sprintf("relation: non-positive scale %d", k))
	}
	out := NewMultiset(m.attrs...)
	for i, t := range rowsOf(m.cols, len(m.mult)) {
		out.Add(t, m.mult[i]*k)
	}
	return out
}

// String renders a small multiset for debugging.
func (m *Multiset) String() string {
	var b strings.Builder
	rows := rowsOf(m.cols, len(m.mult))
	fmt.Fprintf(&b, "%s (%d tuples, %d distinct)\n", strings.Join(m.attrs, " | "), m.total, len(rows))
	order := make([]int, len(rows))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool { return slices.Compare(rows[order[x]], rows[order[y]]) < 0 })
	for n, i := range order {
		if n >= 20 {
			fmt.Fprintf(&b, "... (%d more)\n", len(rows)-20)
			break
		}
		for j, v := range rows[i] {
			if j > 0 {
				b.WriteString(" | ")
			}
			fmt.Fprintf(&b, "%d", v)
		}
		fmt.Fprintf(&b, "  x%d\n", m.mult[i])
	}
	return b.String()
}
