package relation

import (
	"fmt"
	"strings"
	"testing"
)

func TestMultisetBasics(t *testing.T) {
	m := NewMultiset("A", "B")
	m.Add(Tuple{1, 1}, 3)
	m.Add(Tuple{1, 2}, 1)
	m.Add(Tuple{1, 1}, 2) // merges
	if m.N() != 6 {
		t.Fatalf("N = %d", m.N())
	}
	if m.Distinct() != 2 {
		t.Fatalf("Distinct = %d", m.Distinct())
	}
	if m.Multiplicity(Tuple{1, 1}) != 5 {
		t.Fatalf("mult = %d", m.Multiplicity(Tuple{1, 1}))
	}
	if m.Multiplicity(Tuple{9, 9}) != 0 || m.Multiplicity(Tuple{1}) != 0 {
		t.Fatal("absent multiplicity nonzero")
	}
	if m.Arity() != 2 {
		t.Fatalf("arity = %d", m.Arity())
	}
}

func TestMultisetPanics(t *testing.T) {
	m := NewMultiset("A")
	for name, f := range map[string]func(){
		"arity":      func() { m.Add(Tuple{1, 2}, 1) },
		"zero mult":  func() { m.Add(Tuple{1}, 0) },
		"scale zero": func() { m.Scale(0) },
		"dup attr":   func() { NewMultiset("A", "A") },
		"empty attr": func() { NewMultiset("") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestMultisetProjectCounts(t *testing.T) {
	m := NewMultiset("A", "B")
	m.Add(Tuple{1, 1}, 3)
	m.Add(Tuple{1, 2}, 1)
	m.Add(Tuple{2, 2}, 2)
	counts, err := m.ProjectCounts("A")
	if err != nil {
		t.Fatal(err)
	}
	if counts[RowKey(Tuple{1})] != 4 || counts[RowKey(Tuple{2})] != 2 {
		t.Fatalf("counts = %v", counts)
	}
	if _, err := m.ProjectCounts("Z"); err == nil {
		t.Fatal("unknown attribute accepted")
	}
}

func TestMultisetSupportAndScale(t *testing.T) {
	m := NewMultiset("A")
	m.Add(Tuple{1}, 5)
	m.Add(Tuple{2}, 1)
	sup := m.Support()
	if sup.N() != 2 {
		t.Fatalf("support = %d", sup.N())
	}
	scaled := m.Scale(3)
	if scaled.N() != 18 || scaled.Multiplicity(Tuple{1}) != 15 {
		t.Fatalf("scaled = %v", scaled)
	}
	// Original untouched.
	if m.N() != 6 {
		t.Fatal("Scale mutated receiver")
	}
}

func TestMultisetOf(t *testing.T) {
	r := FromRows([]string{"A"}, []Tuple{{1}, {2}})
	m := MultisetOf(r)
	if m.N() != 2 || m.Distinct() != 2 {
		t.Fatalf("MultisetOf = %v", m)
	}
}

// ProjectCounts returns the multiset projection onto attrs: multiplicities
// aggregate across tuples that agree on attrs. It is the string-keyed oracle
// the weighted group-count tests compare against.
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
	for i, k := range m.mult {
		counts[RowKey(gather(m.cols, cols, i, buf))] += int(k)
	}
	return counts, nil
}
