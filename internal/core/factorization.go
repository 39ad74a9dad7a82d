package core

import (
	"fmt"
	"math"

	"ajdloss/internal/jointree"
	"ajdloss/internal/relation"
)

// Factorization evaluates the join-tree factorization P^T (Eq. 10) of the
// empirical distribution of a relation:
//
//	P^T(x) = Π_i P[Ωᵢ](x[Ωᵢ]) / Π_i P[Δᵢ](x[Δᵢ]).
//
// The marginal counts of every bag and separator come from the columnar
// group-count engine: evaluating P^T on a tuple *of r* (the KL computation,
// Theorem 3.2) is pure integer indexing with no hashing.
type Factorization struct {
	r *relation.Relation
	n float64
	// bagGroups/sepGroups hold per-row group ids and per-group counts for
	// each bag and separator, shared with the relation's memoized engine.
	bagGroups []*relation.Grouping
	sepGroups []*relation.Grouping
}

// NewFactorization builds the P^T evaluator for the empirical distribution
// of r and the rooted join tree.
func NewFactorization(r *relation.Relation, rooted *jointree.Rooted) (*Factorization, error) {
	if r.N() == 0 {
		return nil, fmt.Errorf("core: factorization of an empty relation")
	}
	f := &Factorization{r: r, n: float64(r.N())}
	m := len(rooted.Order)
	for i := 0; i < m; i++ {
		g, err := r.Grouping(rooted.Bag(i)...)
		if err != nil {
			return nil, err
		}
		f.bagGroups = append(f.bagGroups, g)
	}
	for i := 1; i < m; i++ {
		g, err := r.Grouping(rooted.Sep[i]...)
		if err != nil {
			return nil, err
		}
		f.sepGroups = append(f.sepGroups, g)
	}
	return f, nil
}

// KLFromEmpirical returns D_KL(P ‖ P^T) where P is the empirical
// distribution of r. By Theorem 3.2 this equals J(T); the equality is
// verified in tests and exposed as an internal consistency check.
//
// ln P^T of a row of r needs no lookup: every bag and separator projection
// of a row occurs in r, so its count is Counts.At(IDs[i]) of the matching
// grouping. The log of each group's relative frequency is tabulated once,
// and each row sums table loads, bags then separators, in tree order.
func (f *Factorization) KLFromEmpirical() (float64, error) {
	bagLogs := f.groupLogs(f.bagGroups)
	sepLogs := f.groupLogs(f.sepGroups)
	var d float64
	invN := 1.0 / f.n
	logInvN := math.Log(invN)
	for i := 0; i < f.r.N(); i++ {
		var lp float64
		for k, g := range f.bagGroups {
			lp += bagLogs[k][g.IDs[i]]
		}
		for k, g := range f.sepGroups {
			lp -= sepLogs[k][g.IDs[i]]
		}
		d += invN * (logInvN - lp)
	}
	if d < 0 && d > -1e-9 {
		d = 0
	}
	return d, nil
}

// groupLogs returns, for each grouping, ln(count/n) of each of its groups.
func (f *Factorization) groupLogs(groups []*relation.Grouping) [][]float64 {
	logs := make([][]float64, len(groups))
	for k, g := range groups {
		l := make([]float64, 0, g.Groups())
		g.Counts.Each(func(part []int) {
			for _, c := range part {
				l = append(l, math.Log(float64(c)/f.n))
			}
		})
		logs[k] = l
	}
	return logs
}
