// Package core implements the paper's primary contribution: the J-measure of
// an acyclic schema (Lee 1987, Eq. 7), its characterization as the KL
// divergence to the join-tree factorization P^T (Theorem 3.2), the loss
// ρ(R,S) in spurious tuples (Eq. 1), the deterministic lower bound
// J ≤ log(1+ρ) (Lemma 4.1), the Theorem 2.2 sandwich, the per-MVD loss
// decomposition (Proposition 5.1), and the high-probability upper-bound
// machinery of Section 5 (Theorems 5.1, 5.2, Corollary 5.2.1,
// Proposition 5.3).
//
// All information quantities are in nats.
package core

import (
	"ajdloss/internal/infotheory"
	"ajdloss/internal/jointree"
)

// JMeasure returns J(T) for the join tree under the empirical distribution
// of r (Eq. 7):
//
//	J(T) = Σ_v H(χ(v)) − Σ_(v₁,v₂)∈edges H(χ(v₁)∩χ(v₂)) − H(χ(T)).
//
// J depends only on the schema defined by the tree, not the tree shape
// (verified property-style in tests). It returns an error if the tree uses
// attributes absent from r.
func JMeasure(r infotheory.Source, t *jointree.JoinTree) (float64, error) {
	var sum float64
	for _, bag := range t.Bags {
		h, err := infotheory.Entropy(r, bag...)
		if err != nil {
			return 0, err
		}
		sum += h
	}
	for e := range t.Edges {
		h, err := infotheory.Entropy(r, t.Separator(e)...)
		if err != nil {
			return 0, err
		}
		sum -= h
	}
	hAll, err := infotheory.Entropy(r, t.Attrs()...)
	if err != nil {
		return 0, err
	}
	j := sum - hAll
	// J(T) = D_KL(P‖P^T) ≥ 0; clamp floating-point residue.
	if j < 0 && j > -1e-9 {
		j = 0
	}
	return j, nil
}

// JMeasureSchema returns J(S) for an acyclic schema by building a join tree
// with GYO. It returns an error if the schema is cyclic.
func JMeasureSchema(r infotheory.Source, s *jointree.Schema) (float64, error) {
	t, err := jointree.BuildJoinTree(s)
	if err != nil {
		return 0, err
	}
	return JMeasure(r, t)
}

// Sandwich holds the Theorem 2.2 bounds for a join tree, in the sound form:
//
//	max_e I(χ(T_u); χ(T_v) | χ(u)∩χ(v))  ≤  J(T)  ≤  Σ_i I(Ω_{1:i−1}; Ω_{i:m} | Δᵢ).
//
// The lower bound ranges over the tree's *edge MVDs* (Beeri et al.'s
// support): contracting every edge but e yields the two-bag schema
// {χ(T_u), χ(T_v)} whose J is the edge term, and contraction never increases
// J. The upper bound uses the paper's DFS prefix/suffix terms, which
// dominate the exact telescoping identity
//
//	J(T) = Σ_{i=2}^m I(Ω_{1:i−1}; Ωᵢ | Δᵢ)
//
// (ExactTerms below; the suffix Ω_{i:m} ⊇ Ωᵢ only adds information). Note
// that for non-path DFS orders the literal prefix/suffix *max* of [14] can
// exceed J — the suffix then straddles several subtrees and
// Ω_{1:i−1} ∩ Ω_{i:m} ⊄ Δᵢ — so the max here is taken over edge MVDs, which
// coincides with the literal form whenever the tree is a path enumerated in
// order (the common case in the paper's examples).
type Sandwich struct {
	SuffixTerms []float64 // I(Ω_{1:i−1};Ω_{i:m}|Δᵢ), i = 2..m (index i−2)
	ExactTerms  []float64 // I(Ω_{1:i−1};Ωᵢ|Δᵢ): sums to J exactly
	EdgeTerms   []float64 // I(χ(T_u);χ(T_v)|sep), one per tree edge
	Max         float64   // max of EdgeTerms
	Sum         float64   // sum of SuffixTerms
	J           float64
}

// ComputeSandwich evaluates the Theorem 2.2 terms for the rooted tree.
func ComputeSandwich(r infotheory.Source, rooted *jointree.Rooted) (*Sandwich, error) {
	s := &Sandwich{}
	m := len(rooted.Order)
	for i := 1; i < m; i++ {
		suffix, err := infotheory.ConditionalMutualInformation(r, rooted.Prefix(i-1), rooted.Suffix(i), rooted.Sep[i])
		if err != nil {
			return nil, err
		}
		s.SuffixTerms = append(s.SuffixTerms, suffix)
		s.Sum += suffix
		exact, err := infotheory.ConditionalMutualInformation(r, rooted.Prefix(i-1), rooted.Bag(i), rooted.Sep[i])
		if err != nil {
			return nil, err
		}
		s.ExactTerms = append(s.ExactTerms, exact)
	}
	for _, m := range rooted.Tree.EdgeMVDs() {
		term, err := infotheory.ConditionalMutualInformation(r, m.Y, m.Z, m.X)
		if err != nil {
			return nil, err
		}
		s.EdgeTerms = append(s.EdgeTerms, term)
		if term > s.Max {
			s.Max = term
		}
	}
	j, err := JMeasure(r, rooted.Tree)
	if err != nil {
		return nil, err
	}
	s.J = j
	return s, nil
}
