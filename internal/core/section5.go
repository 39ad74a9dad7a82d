package core

import (
	"fmt"
	"math"

	"ajdloss/internal/infotheory"
	"ajdloss/internal/relation"
	"ajdloss/internal/stats"
)

// This file makes the proof machinery of Section 5 executable: the entropy
// decomposition through the functional entropy of Y_S (Eq. 112), the
// Poissonization bound on hypergeometric probabilities (Lemma B.4). The
// experiments use these to check the paper's internal inequalities on
// sampled data, not just its headline statements; the Jensen gap and the
// per-class size condition of Lemma C.1 are checked in section5_test.go.

// YSamples returns the paper's {Y_S(i)} values for a two-attribute relation
// over [dA]×[dB]: Y_S(i) = (1/dB)·Σ_j U_S(i,j) is the fraction of B-cells
// present in row i of the bipartite occupancy matrix (Section 5.2.1).
// Rows with no tuples contribute Y_S(i) = 0.
func YSamples(r *relation.Relation, aAttr string, dA, dB int) ([]float64, error) {
	col, ok := r.Pos(aAttr)
	if !ok {
		return nil, fmt.Errorf("core: unknown attribute %q", aAttr)
	}
	if dA <= 0 || dB <= 0 {
		return nil, fmt.Errorf("core: non-positive domain sizes %d, %d", dA, dB)
	}
	counts := make([]int, dA)
	for _, code := range r.Columns()[col] {
		v := int(code)
		if v < 1 || v > dA {
			return nil, fmt.Errorf("core: value %d of %q outside [%d]", v, aAttr, dA)
		}
		counts[v-1]++
	}
	ys := make([]float64, dA)
	for i, c := range counts {
		ys[i] = float64(c) / float64(dB)
	}
	return ys, nil
}

// EntropyDecomposition evaluates both sides of Eq. 112:
//
//	H(A_S) = −(dA·dB/η)·avg over i of [Y_S(i)·log Y_S(i)] … + log(η/dB)
//
// which in expectation reads E[H(A_S)] = −(dA·dB/η)·E[Y_S log Y_S] +
// log(η/dB). For a single realization the identity holds exactly with the
// average over i ∈ [dA] (the derivation in Eq. 107 is per-realization). It
// returns (H(A_S), reconstructed value) so tests can assert equality.
func EntropyDecomposition(r *relation.Relation, aAttr string, dA, dB int) (h, reconstructed float64, err error) {
	ys, err := YSamples(r, aAttr, dA, dB)
	if err != nil {
		return 0, 0, err
	}
	eta := float64(r.N())
	if eta == 0 {
		return 0, 0, fmt.Errorf("core: empty relation")
	}
	h, err = infotheory.Entropy(r, aAttr)
	if err != nil {
		return 0, 0, err
	}
	var sum float64
	for _, y := range ys {
		if y > 0 {
			sum += y * math.Log(y)
		}
	}
	mean := sum / float64(dA)
	reconstructed = -(float64(dA)*float64(dB)/eta)*mean + math.Log(eta/float64(dB))
	return h, reconstructed, nil
}

// PoissonizationRatio returns max over the support of
// P[Z = b] / P[W = b] for Z ~ Hypergeometric(dA·dB, dB, η) and
// W ~ Poisson(η/dA). Lemma B.4 asserts the ratio is at most 21·dA² whenever
// dA ≥ dB and η ∈ [dA, dA·dB − dB].
func PoissonizationRatio(dA, dB, eta int64) (maxRatio float64, bound float64, err error) {
	if dA < dB {
		return 0, 0, fmt.Errorf("core: Lemma B.4 requires dA ≥ dB (got %d < %d)", dA, dB)
	}
	if eta < dA || eta > dA*dB-dB {
		return 0, 0, fmt.Errorf("core: Lemma B.4 requires η ∈ [dA, dA·dB − dB], got %d", eta)
	}
	lambda := float64(eta) / float64(dA)
	for b := int64(0); b <= dB; b++ {
		pz := stats.HypergeometricPMF(dA*dB, dB, eta, b)
		if pz == 0 {
			continue
		}
		pw := stats.PoissonPMF(lambda, b)
		if pw == 0 {
			return 0, 0, fmt.Errorf("core: Poisson mass vanished at b=%d", b)
		}
		if ratio := pz / pw; ratio > maxRatio {
			maxRatio = ratio
		}
	}
	return maxRatio, 21 * float64(dA) * float64(dA), nil
}
