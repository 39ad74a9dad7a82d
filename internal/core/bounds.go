package core

import (
	"fmt"
	"math"

	"ajdloss/internal/jointree"
	"ajdloss/internal/relation"
)

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

// HFunc is h(t) = t·log(1+t) (Eq. 57), used in the concentration bound of
// Proposition 5.5.
func HFunc(t float64) float64 {
	if t <= 0 {
		return 0
	}
	return t * math.Log1p(t)
}

// EntropyEpsilon returns the Theorem 5.2 deviation term
// 20·sqrt(d_A·log³(η/δ)/η): with probability ≥ 1−δ,
// H(A_S) ≥ log d_A − EntropyEpsilon(d_A, η, δ).
func EntropyEpsilon(dA, eta int, delta float64) float64 {
	l := math.Log(float64(eta) / delta)
	return 20 * math.Sqrt(float64(dA)*l*l*l/float64(eta))
}

// EntropyQualifyingEta returns the minimum η required by Theorem 5.2
// (Eq. 40): η ≥ 128·d_A·log(128·d_A/δ).
func EntropyQualifyingEta(dA int, delta float64) float64 {
	return 128 * float64(dA) * math.Log(128*float64(dA)/delta)
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

// MVDDomains describes the (product) domain sizes of the three components of
// an MVD C ↠ A|B. For composite components the size is the product of the
// member attribute domain sizes.
type MVDDomains struct {
	DA, DB, DC int
}

// Canonical returns the domains with A and B swapped if needed so that
// d_A ≥ d_B, the convention under which the paper's bounds are stated.
func (d MVDDomains) Canonical() MVDDomains {
	if d.DA < d.DB {
		d.DA, d.DB = d.DB, d.DA
	}
	return d
}

// SchemaUpperBound evaluates the Proposition 5.3 schema-level bound for a
// rooted join tree: with probability ≥ 1−δ,
//
//	log(1+ρ(R,S)) ≤ Σᵢ I(Ω_{1:i−1};Ω_{i:m}|Δᵢ) + Σᵢ εᵢ,
//
// with εᵢ = ε*(φᵢ, N, δ/(m−1)). domains maps attribute name to its domain
// size; composite component domains are products (capped at math.MaxInt64 /
// returned as float64 internally — epsilon formulas take float-sized d).
type SchemaBound struct {
	SumCMI     float64
	SumEpsilon float64
	Bound      float64 // SumCMI + SumEpsilon
	Qualified  bool    // every MVD met the Theorem 5.1 qualifying condition
}

// ComputeSchemaBound evaluates the bound for relation size n and confidence
// delta, using per-attribute domain sizes.
func ComputeSchemaBound(r *relation.Relation, rooted *jointree.Rooted, domains map[string]int, delta float64) (*SchemaBound, error) {
	mvds := rooted.SupportMVDs()
	if len(mvds) == 0 {
		return &SchemaBound{Qualified: true}, nil
	}
	perMVDDelta := delta / float64(len(mvds))
	out := &SchemaBound{Qualified: true}
	n := r.N()
	for _, m := range mvds {
		cmi, err := MVDJMeasure(r, m)
		if err != nil {
			return nil, err
		}
		dom, err := mvdDomains(m, domains)
		if err != nil {
			return nil, err
		}
		dom = dom.Canonical()
		out.SumCMI += cmi
		out.SumEpsilon += EpsilonStar(dom.DA, dom.DC, n, perMVDDelta)
		if float64(n) < QualifyingN(dom.DA, dom.DC, perMVDDelta) {
			out.Qualified = false
		}
	}
	out.Bound = out.SumCMI + out.SumEpsilon
	return out, nil
}

func mvdDomains(m jointree.MVD, domains map[string]int) (MVDDomains, error) {
	prod := func(attrs []string, minus []string) (int, error) {
		skip := make(map[string]struct{}, len(minus))
		for _, a := range minus {
			skip[a] = struct{}{}
		}
		p := 1
		for _, a := range attrs {
			if _, ok := skip[a]; ok {
				continue
			}
			d, ok := domains[a]
			if !ok {
				return 0, fmt.Errorf("core: no domain size for attribute %q", a)
			}
			if d <= 0 {
				return 0, fmt.Errorf("core: non-positive domain size %d for attribute %q", d, a)
			}
			if p > math.MaxInt32/d {
				return math.MaxInt32, nil // saturate; epsilon only grows
			}
			p *= d
		}
		return p, nil
	}
	da, err := prod(m.Y, m.X)
	if err != nil {
		return MVDDomains{}, err
	}
	db, err := prod(m.Z, m.X)
	if err != nil {
		return MVDDomains{}, err
	}
	dc, err := prod(m.X, nil)
	if err != nil {
		return MVDDomains{}, err
	}
	return MVDDomains{DA: da, DB: db, DC: dc}, nil
}
