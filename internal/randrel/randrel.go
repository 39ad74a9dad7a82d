// Package randrel implements the paper's random relation model
// (Definition 5.2): a relation of exactly N tuples drawn uniformly at random
// without replacement from the product domain [d₁] × ⋯ × [d_n].
//
// Sampling is exact (not approximate): for sparse targets it uses rejection
// sampling against the relation's own duplicate index; for dense targets
// (N > |domain|/2, where rejection would thrash) it selects N cells via a
// partial Fisher–Yates shuffle of the enumerated domain. All randomness
// flows through a caller-supplied PCG source so every experiment is
// reproducible from its seed.
package randrel

import (
	"fmt"
	"math"
	"math/rand/v2"

	"ajdloss/internal/relation"
)

// NewRand returns a deterministic PCG-backed generator for the seed.
func NewRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// Model describes a random relation distribution: named attributes with
// 1-based integer domains [1..Domains[i]] and a target size N.
type Model struct {
	Attrs   []string
	Domains []int
	N       int
}

// Validate checks the model parameters: positive domains, attribute/domain
// length agreement, and 0 < N ≤ ∏ dᵢ.
func (m Model) Validate() error {
	if len(m.Attrs) == 0 || len(m.Attrs) != len(m.Domains) {
		return fmt.Errorf("randrel: need matching attrs (%d) and domains (%d)", len(m.Attrs), len(m.Domains))
	}
	for i, d := range m.Domains {
		if d <= 0 {
			return fmt.Errorf("randrel: domain %d of attribute %q must be positive", d, m.Attrs[i])
		}
	}
	if m.N <= 0 {
		return fmt.Errorf("randrel: N must be positive, got %d", m.N)
	}
	p, overflow := m.DomainProduct()
	if !overflow && int64(m.N) > p {
		return fmt.Errorf("randrel: N=%d exceeds domain size %d", m.N, p)
	}
	return nil
}

// DomainProduct returns ∏ dᵢ and whether it overflows int64.
func (m Model) DomainProduct() (int64, bool) {
	p := int64(1)
	for _, d := range m.Domains {
		if p > math.MaxInt64/int64(d) {
			return 0, true
		}
		p *= int64(d)
	}
	return p, false
}

// Sample draws one relation from the model.
func (m Model) Sample(rng *rand.Rand) (*relation.Relation, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	p, overflow := m.DomainProduct()
	r := relation.New(m.Attrs...)
	if !overflow && int64(m.N)*2 > p {
		m.sampleDense(rng, r, p)
		return r, nil
	}
	m.sampleRejection(rng, r)
	return r, nil
}

// sampleRejection draws uniform cells until N distinct ones are collected.
// With density ≤ 1/2 the expected number of draws is ≤ 2N.
func (m Model) sampleRejection(rng *rand.Rand, r *relation.Relation) {
	t := make(relation.Tuple, len(m.Domains))
	for r.N() < m.N {
		for i, d := range m.Domains {
			t[i] = relation.Value(rng.IntN(d) + 1)
		}
		r.Insert(t)
	}
}

// sampleDense selects N of the p domain cells via a partial Fisher–Yates
// shuffle over cell indexes, decoding each selected index in mixed radix.
func (m Model) sampleDense(rng *rand.Rand, r *relation.Relation, p int64) {
	idx := make([]int64, p)
	for i := range idx {
		idx[i] = int64(i)
	}
	t := make(relation.Tuple, len(m.Domains))
	for k := 0; k < m.N; k++ {
		j := int64(k) + rng.Int64N(p-int64(k))
		idx[k], idx[j] = idx[j], idx[k]
		m.decode(idx[k], t)
		r.Insert(t)
	}
}

// decode writes the mixed-radix expansion of cell index c into t (1-based
// values, last attribute fastest).
func (m Model) decode(c int64, t relation.Tuple) {
	for i := len(m.Domains) - 1; i >= 0; i-- {
		d := int64(m.Domains[i])
		t[i] = relation.Value(c%d + 1)
		c /= d
	}
}

// SampleMVD draws a random relation over attributes A, B, C with domains
// [dA], [dB], [dC] and N tuples — the setting of Theorem 5.1. With dC = 1
// this is the degenerate model of Theorem 5.2 (attribute C is constant).
func SampleMVD(rng *rand.Rand, dA, dB, dC, n int) (*relation.Relation, error) {
	m := Model{Attrs: []string{"A", "B", "C"}, Domains: []int{dA, dB, dC}, N: n}
	return m.Sample(rng)
}

// SampleAB draws the two-attribute degenerate model over [dA]×[dB] with η
// tuples (the Figure 1 setting).
func SampleAB(rng *rand.Rand, dA, dB, eta int) (*relation.Relation, error) {
	m := Model{Attrs: []string{"A", "B"}, Domains: []int{dA, dB}, N: eta}
	return m.Sample(rng)
}
