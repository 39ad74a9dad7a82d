package core

import (
	"fmt"
	"math"
	"sync"

	"ajdloss/internal/infotheory"
	"ajdloss/internal/join"
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
// Theorem 3.2) is pure integer indexing with no hashing. Evaluating P^T on
// arbitrary tuples (spurious join tuples, Dist) first finds each projected
// tuple's group: on first use it projects r onto every bag and separator,
// whose row j is group j, and then looks tuples up in those projections.
type Factorization struct {
	r      *relation.Relation
	rooted *jointree.Rooted
	n      float64
	// bagGroups/sepGroups hold per-row group ids and per-group counts for
	// each bag and separator, shared with the relation's memoized engine.
	bagGroups []*relation.Grouping
	sepGroups []*relation.Grouping
	// bagCols/sepCols are column positions in r, used by the lazy lookup.
	bagCols [][]int
	sepCols [][]int

	projOnce sync.Once
	bagProj  []*relation.Relation
	sepProj  []*relation.Relation
	projErr  error
}

// NewFactorization builds the P^T evaluator for the empirical distribution
// of r and the rooted join tree.
func NewFactorization(r *relation.Relation, rooted *jointree.Rooted) (*Factorization, error) {
	if r.N() == 0 {
		return nil, fmt.Errorf("core: factorization of an empty relation")
	}
	f := &Factorization{r: r, rooted: rooted, n: float64(r.N())}
	m := len(rooted.Order)
	for i := 0; i < m; i++ {
		bag := rooted.Bag(i)
		g, err := r.Grouping(bag...)
		if err != nil {
			return nil, err
		}
		f.bagGroups = append(f.bagGroups, g)
		f.bagCols = append(f.bagCols, r.MustColumns(bag))
	}
	for i := 1; i < m; i++ {
		sep := rooted.Sep[i]
		g, err := r.Grouping(sep...)
		if err != nil {
			return nil, err
		}
		f.sepGroups = append(f.sepGroups, g)
		f.sepCols = append(f.sepCols, r.MustColumns(sep))
	}
	return f, nil
}

// projections returns r's projections onto every bag and separator, built
// once, only when a tuple outside r is evaluated. Row j of a projection
// holds the values of group j of the matching grouping, since both number
// the distinct projected rows in order of first occurrence.
func (f *Factorization) projections() ([]*relation.Relation, []*relation.Relation, error) {
	f.projOnce.Do(func() {
		m := len(f.rooted.Order)
		for i := 0; i < m; i++ {
			p, err := f.r.Project(f.rooted.Bag(i)...)
			if err != nil {
				f.projErr = err
				return
			}
			f.bagProj = append(f.bagProj, p)
		}
		for i := 1; i < m; i++ {
			p, err := f.r.Project(f.rooted.Sep[i]...)
			if err != nil {
				f.projErr = err
				return
			}
			f.sepProj = append(f.sepProj, p)
		}
	})
	return f.bagProj, f.sepProj, f.projErr
}

// count returns the count of t's projection onto cols under grouping g,
// looking the projected tuple up in proj, or 0 if it does not occur in r.
func count(t relation.Tuple, cols []int, proj *relation.Relation, g *relation.Grouping) int {
	buf := make(relation.Tuple, len(cols))
	for i, c := range cols {
		buf[i] = t[c]
	}
	j := proj.IndexOf(buf)
	if j < 0 {
		return 0
	}
	return g.Counts.At(j)
}

// Prob returns P^T(t) for a tuple t over r's full schema. Tuples whose bag
// projections never occur in r get probability 0.
func (f *Factorization) Prob(t relation.Tuple) float64 {
	logp, ok := f.LogProb(t)
	if !ok {
		return 0
	}
	return math.Exp(logp)
}

// LogProb returns ln P^T(t) and whether the probability is positive. t is an
// arbitrary tuple (not necessarily in r), so this is the lookup-based
// diagnostics path; KLFromEmpirical indexes group counts instead.
func (f *Factorization) LogProb(t relation.Tuple) (float64, bool) {
	bagProj, sepProj, err := f.projections()
	if err != nil {
		// Columns were validated at construction time; an error here would be
		// a schema mutation mid-flight, which the API forbids.
		panic(err)
	}
	var lp float64
	for i, cols := range f.bagCols {
		c := count(t, cols, bagProj[i], f.bagGroups[i])
		if c == 0 {
			return 0, false
		}
		lp += math.Log(float64(c) / f.n)
	}
	for i, cols := range f.sepCols {
		c := count(t, cols, sepProj[i], f.sepGroups[i])
		if c == 0 {
			// Unreachable if all bag counts were positive (separator ⊆ bag),
			// kept as a guard for malformed trees.
			return 0, false
		}
		lp -= math.Log(float64(c) / f.n)
	}
	return lp, true
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

// Dist materializes the full P^T distribution over the support of the
// acyclic join ⋈ᵢ R[Ωᵢ] (the support of P^T), keyed by encoded rows in the
// attribute order of the join result, which is also returned. Intended for
// tests and small instances: the join can be much larger than R.
func (f *Factorization) Dist() (infotheory.Dist, *relation.Relation, error) {
	rels := make([]*relation.Relation, f.rooted.Tree.Len())
	var err error
	for i, bag := range f.rooted.Tree.Bags {
		rels[i], err = f.r.Project(bag...)
		if err != nil {
			return nil, nil, err
		}
	}
	joined, err := join.MaterializeTree(f.rooted.Tree, rels)
	if err != nil {
		return nil, nil, err
	}
	cols := joined.MustColumns(f.r.Attrs())
	d := make(infotheory.Dist, joined.N())
	var total float64
	for _, t := range joined.Rows() {
		// Reorder the join tuple into r's attribute order for evaluation.
		buf := make(relation.Tuple, len(cols))
		for i, c := range cols {
			buf[i] = t[c]
		}
		p := f.Prob(buf)
		d[relation.RowKey(buf)] = p
		total += p
	}
	if math.Abs(total-1) > 1e-6 {
		return nil, nil, fmt.Errorf("core: P^T sums to %.9f over the join support, want 1", total)
	}
	return d, joined, nil
}
