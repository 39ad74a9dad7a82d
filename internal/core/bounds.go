package core

import "math"

// RhoLowerBound returns the deterministic lower bound on the relative loss
// implied by Lemma 4.1: from J(T) ≤ log(1+ρ(R,S)) it follows that
// ρ(R,S) ≥ e^J − 1 (nats).
func RhoLowerBound(j float64) float64 {
	return math.Expm1(j)
}

// CFactor is C(d) = 2·log(d)/√d (Eq. 45), the expected-entropy deficit bound
// of Proposition 5.4.
func CFactor(d int) float64 {
	if d <= 1 {
		return 0
	}
	fd := float64(d)
	return 2 * math.Log(fd) / math.Sqrt(fd)
}

// EntropyEpsilon returns the Theorem 5.2 deviation term
// 20·sqrt(d_A·log³(η/δ)/η): with probability ≥ 1−δ,
// H(A_S) ≥ log d_A − EntropyEpsilon(d_A, η, δ).
func EntropyEpsilon(dA, eta int, delta float64) float64 {
	l := math.Log(float64(eta) / delta)
	return 20 * math.Sqrt(float64(dA)*l*l*l/float64(eta))
}

// MIEpsilon returns the Corollary 5.2.1 deviation term
// 40·sqrt(d_A·log³(2η/δ)/η): with probability ≥ 1−δ,
// I(A_S;B_S) ≥ log(1+ρ̄) − MIEpsilon(d_A, η, δ) where ρ̄ = d_A·d_B/η − 1.
func MIEpsilon(dA, eta int, delta float64) float64 {
	l := math.Log(2 * float64(eta) / delta)
	return 40 * math.Sqrt(float64(dA)*l*l*l/float64(eta))
}

// EpsilonStar returns the Theorem 5.1 deviation term (Eq. 38)
//
//	ε*(φ,N,δ) = 60·sqrt(d_A·d·log³(6·N·d_C/δ)/N),  d = max{d_A, d_C},
//
// for the MVD φ = C ↠ A|B with d_A ≥ d_B: with probability ≥ 1−δ over the
// random relation model, log(1+ρ(R_S,φ)) ≤ I(A_S;B_S|C_S) + ε*.
func EpsilonStar(dA, dC, n int, delta float64) float64 {
	d := dA
	if dC > d {
		d = dC
	}
	l := math.Log(6 * float64(n) * float64(dC) / delta)
	return 60 * math.Sqrt(float64(dA)*float64(d)*l*l*l/float64(n))
}

// QualifyingN returns the minimum N required by Theorem 5.1 (Eq. 37):
// N ≥ 256·d_A·d·log(384·d/δ) with d = max{d_A, d_C}.
func QualifyingN(dA, dC int, delta float64) float64 {
	d := dA
	if dC > d {
		d = dC
	}
	return 256 * float64(dA) * float64(d) * math.Log(384*float64(d)/delta)
}

// RhoBar returns ρ̄ = d_A·d_B/η − 1, the maximum possible relative loss of a
// degenerate MVD over domains [d_A]×[d_B] with η tuples.
func RhoBar(dA, dB, eta int) float64 {
	return float64(dA)*float64(dB)/float64(eta) - 1
}
