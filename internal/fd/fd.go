// Package fd implements functional dependencies — the simplest data
// dependencies the paper's hierarchy builds on (FDs ⊂ MVDs ⊂ JDs, Section
// 1), together with Lee's information-theoretic characterization (An
// Information-Theoretic Analysis of Relational Databases, Part I):
// R ⊨ X → Y iff H(Y|X) = 0 under R's empirical distribution.
//
// The package provides exact and approximate satisfaction checks (the g₃
// error measure), candidate-key search and levelwise FD discovery. The
// tests check Armstrong closure (Closure, Implies) and the classical FD→MVD
// weakening that links this layer to the paper's AJD machinery (ToMVD).
package fd

import (
	"fmt"
	"sort"
	"strings"

	"ajdloss/internal/engine"
	"ajdloss/internal/infotheory"
)

// Source is what the FD measures need from a data source: the total tuple
// count and schema (via infotheory.Source and Attrs) plus memoized group-ID
// partitions. relation.Relation satisfies it. The g₃ machinery assumes N()
// equals the number of stored rows (unweighted sources); weighted multisets
// are outside its contract.
type Source interface {
	infotheory.Source
	Attrs() []string
	Grouping(attrs ...string) (*engine.Grouping, error)
}

// FD is a functional dependency X → Y.
type FD struct {
	X []string // determinant (may be empty: ∅ → Y means Y is constant)
	Y []string // dependent
}

// String renders the FD as "X -> Y".
func (f FD) String() string {
	j := func(a []string) string {
		s := append([]string(nil), a...)
		sort.Strings(s)
		if len(s) == 0 {
			return "∅"
		}
		return strings.Join(s, ",")
	}
	return fmt.Sprintf("%s -> %s", j(f.X), j(f.Y))
}

// Holds reports whether R ⊨ X → Y: every X-value determines a single
// Y-value. Equivalently the projections onto X and X∪Y have the same number
// of distinct rows.
func Holds(r Source, f FD) (bool, error) {
	if len(f.Y) == 0 {
		return true, nil // trivial
	}
	gx, err := r.Grouping(f.X...)
	if err != nil {
		return false, err
	}
	gxy, err := r.Grouping(infotheory.Union(f.X, f.Y)...)
	if err != nil {
		return false, err
	}
	nx := gx.Groups()
	if len(f.X) == 0 {
		nx = 1
	}
	return gxy.Groups() == nx, nil
}

// ConditionalEntropy returns H(Y|X) in nats — Lee's characterization:
// R ⊨ X → Y iff the value is 0.
func ConditionalEntropy(r Source, f FD) (float64, error) {
	return infotheory.ConditionalEntropy(r, f.Y, f.X)
}

// G3Error returns the g₃ measure of the FD: the minimum fraction of tuples
// that must be removed from R for X → Y to hold. 0 iff the FD holds. It runs
// over the memoized group-ID partitions of X and X∪Y — no per-row hashing —
// as the first Advance of a fresh G3State.
func G3Error(r Source, f FD) (float64, error) {
	g3, _, err := new(G3State).Advance(r, f)
	return g3, err
}

// IsSuperkey reports whether X determines every attribute of r.
func IsSuperkey(r Source, x []string) (bool, error) {
	if len(x) == 0 {
		return r.N() <= 1, nil
	}
	g, err := r.Grouping(x...)
	if err != nil {
		return false, err
	}
	return g.Groups() == r.N(), nil
}

// CandidateKeys returns the minimal keys of r (attribute sets that determine
// all attributes, no proper subset of which does), via a levelwise search
// with superset pruning. maxSize caps the key size searched (≤ 0 means no
// cap, i.e. up to the arity).
func CandidateKeys(r Source, maxSize int) ([][]string, error) {
	attrs := append([]string(nil), r.Attrs()...)
	sort.Strings(attrs)
	n := len(attrs)
	if maxSize <= 0 || maxSize > n {
		maxSize = n
	}
	var keys [][]string
	isMinimal := func(set []string) bool {
		for _, k := range keys {
			if subsetOf(k, set) {
				return false
			}
		}
		return true
	}
	// Levelwise over subset sizes.
	var level [][]string
	for _, a := range attrs {
		level = append(level, []string{a})
	}
	for size := 1; size <= maxSize && len(level) > 0; size++ {
		var next [][]string
		for _, set := range level {
			if !isMinimal(set) {
				continue
			}
			ok, err := IsSuperkey(r, set)
			if err != nil {
				return nil, err
			}
			if ok {
				keys = append(keys, set)
				continue
			}
			// Extend with attributes after the set's last element.
			last := set[len(set)-1]
			for _, a := range attrs {
				if a > last {
					ext := append(append([]string(nil), set...), a)
					next = append(next, ext)
				}
			}
		}
		level = next
	}
	sort.Slice(keys, func(i, j int) bool {
		if len(keys[i]) != len(keys[j]) {
			return len(keys[i]) < len(keys[j])
		}
		return strings.Join(keys[i], ",") < strings.Join(keys[j], ",")
	})
	return keys, nil
}

func subsetOf(a, b []string) bool {
	in := make(map[string]bool, len(b))
	for _, x := range b {
		in[x] = true
	}
	for _, x := range a {
		if !in[x] {
			return false
		}
	}
	return true
}
