package infotheory

// Oracles of the paper's information-theoretic identities that only tests
// call: Kullback–Leibler divergence, total variation, functional entropy
// (Eq. 53) and the log sum inequality (Lemma D.8). They live in the internal
// test package so the external tests can call them as infotheory.X; like
// kernel_test.go, this file must not import relation.

import (
	"fmt"
	"math"
)

// KLDivergence returns D(p‖q) in nats. It returns +Inf if p has mass where q
// has none, and an error if an outcome of p with positive mass is absent
// from q's support map entirely (treated the same as q(x)=0).
func KLDivergence(p, q Dist) float64 {
	var d float64
	for x, px := range p {
		if px <= 0 {
			continue
		}
		qx := q[x]
		if qx <= 0 {
			return math.Inf(1)
		}
		d += px * math.Log(px/qx)
	}
	// D(p‖q) ≥ 0; clamp floating-point residue.
	if d < 0 && d > -1e-9 {
		d = 0
	}
	return d
}

// FunctionalEntropy returns Ent(X) = E[X log X] − E[X]·log E[X] for the
// non-negative sample values xs (Eq. 53 of the paper). Zero-valued samples
// contribute 0 to E[X log X] (t·log t → 0 as t ↓ 0). It returns an error if
// any sample is negative or the mean is zero.
func FunctionalEntropy(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("infotheory: FunctionalEntropy of empty sample")
	}
	var sum, sumXLogX float64
	for _, x := range xs {
		if x < 0 {
			return 0, fmt.Errorf("infotheory: FunctionalEntropy requires non-negative samples, got %g", x)
		}
		sum += x
		if x > 0 {
			sumXLogX += x * math.Log(x)
		}
	}
	n := float64(len(xs))
	mean := sum / n
	if mean == 0 {
		return 0, nil
	}
	return sumXLogX/n - mean*math.Log(mean), nil
}

// LogSumBound returns the two sides of the log sum inequality
// Σ aᵢ·log(Σaᵢ/Σbᵢ) ≤ Σ aᵢ·log(aᵢ/bᵢ) (Lemma D.8), used in tests.
// Entries with aᵢ = 0 contribute 0 to the right side.
func LogSumBound(a, b []float64) (lhs, rhs float64, err error) {
	if len(a) != len(b) {
		return 0, 0, fmt.Errorf("infotheory: LogSumBound length mismatch %d vs %d", len(a), len(b))
	}
	var sa, sb float64
	for i := range a {
		if a[i] < 0 || b[i] < 0 {
			return 0, 0, fmt.Errorf("infotheory: LogSumBound requires non-negative entries")
		}
		sa += a[i]
		sb += b[i]
	}
	if sa > 0 && sb == 0 {
		return math.Inf(1), math.Inf(1), nil
	}
	if sa > 0 {
		lhs = sa * math.Log(sa/sb)
	}
	for i := range a {
		if a[i] == 0 {
			continue
		}
		if b[i] == 0 {
			rhs = math.Inf(1)
			return lhs, rhs, nil
		}
		rhs += a[i] * math.Log(a[i]/b[i])
	}
	return lhs, rhs, nil
}

// TotalVariation returns TV(p, q) = (1/2)·Σ_x |p(x) − q(x)| over the union
// of supports. For the empirical distribution P of a relation R and the
// uniform distribution over the acyclic join R′ ⊇ R, TV = ρ/(1+ρ): the
// spurious mass is exactly the transportation cost of the loss (tested
// against the loss machinery).
func TotalVariation(p, q Dist) float64 {
	var tv float64
	for x, px := range p {
		qx := q[x]
		if px > qx {
			tv += px - qx
		} else {
			tv += qx - px
		}
	}
	for x, qx := range q {
		if _, seen := p[x]; !seen {
			tv += qx
		}
	}
	return tv / 2
}
