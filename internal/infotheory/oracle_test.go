package infotheory

// Oracles of the paper's information-theoretic identities that only tests
// call: finite distributions, Kullback–Leibler divergence, total variation,
// functional entropy (Eq. 53), the log sum inequality (Lemma D.8) and the
// entropy vector with its polymatroid check. They live in the internal test
// package so the external tests can call them as infotheory.X; like
// kernel_test.go, this file must not import relation.

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Dist is a finite probability distribution keyed by outcome identity.
type Dist map[string]float64

// Validate checks that d sums to 1 within tol and has no negative masses.
func (d Dist) Validate(tol float64) error {
	var sum float64
	for k, p := range d {
		if p < 0 {
			return fmt.Errorf("infotheory: negative probability %g for outcome %q", p, k)
		}
		sum += p
	}
	if math.Abs(sum-1) > tol {
		return fmt.Errorf("infotheory: distribution sums to %g, want 1 ± %g", sum, tol)
	}
	return nil
}

// Entropy returns the Shannon entropy of d in nats.
func (d Dist) Entropy() float64 {
	var h float64
	for _, p := range d {
		if p > 0 {
			h -= p * math.Log(p)
		}
	}
	return h
}

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

// EntropyVector is the entropy function H: 2^Ω → R of a Source, evaluated
// on every subset of a (small) attribute list. Empirical entropies are
// entropic and hence polymatroids: normalized, monotone, and submodular.
// The paper's measures are all linear functionals of this vector — the
// J-measure (Eq. 7), CMI (Eq. 4) — so validating the polymatroid axioms
// validates the measurement substrate end to end.
type EntropyVector struct {
	attrs []string
	// h is indexed by subset bitmask over attrs.
	h []float64
}

// NewEntropyVector evaluates all 2^n subset entropies of the source. n is
// capped at 20 attributes.
func NewEntropyVector(src Source, attrs []string) (*EntropyVector, error) {
	n := len(attrs)
	if n == 0 {
		return nil, fmt.Errorf("infotheory: entropy vector needs at least one attribute")
	}
	if n > 20 {
		return nil, fmt.Errorf("infotheory: %d attributes exceed the 2^20 subset cap", n)
	}
	ev := &EntropyVector{
		attrs: append([]string(nil), attrs...),
		h:     make([]float64, 1<<n),
	}
	subset := make([]string, 0, n)
	for mask := 1; mask < 1<<n; mask++ {
		subset = subset[:0]
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				subset = append(subset, attrs[i])
			}
		}
		h, err := Entropy(src, subset...)
		if err != nil {
			return nil, err
		}
		ev.h[mask] = h
	}
	return ev, nil
}

// H returns H(S) for the subset encoded by mask.
func (ev *EntropyVector) H(mask int) float64 { return ev.h[mask] }

// HOf returns H of the named attribute subset.
func (ev *EntropyVector) HOf(attrs ...string) (float64, error) {
	mask := 0
	for _, a := range attrs {
		i := -1
		for k, b := range ev.attrs {
			if a == b {
				i = k
				break
			}
		}
		if i < 0 {
			return 0, fmt.Errorf("infotheory: attribute %q not in vector ground set", a)
		}
		mask |= 1 << i
	}
	return ev.h[mask], nil
}

// PolymatroidViolation describes a failed Shannon axiom.
type PolymatroidViolation struct {
	Axiom  string
	Detail string
	Amount float64
}

// CheckPolymatroid verifies the Shannon axioms within tol:
//
//	H(∅) = 0;  monotone: H(S) ≤ H(T) for S ⊆ T;
//	submodular: H(S∪{a}) − H(S) ≥ H(T∪{a}) − H(T) for S ⊆ T, a ∉ T.
//
// It returns all violations found (none for empirical entropies, up to
// floating point).
func (ev *EntropyVector) CheckPolymatroid(tol float64) []PolymatroidViolation {
	n := len(ev.attrs)
	var out []PolymatroidViolation
	if ev.h[0] != 0 {
		out = append(out, PolymatroidViolation{Axiom: "normalized", Detail: "H(∅) != 0", Amount: ev.h[0]})
	}
	// Monotonicity: adding one attribute never lowers H.
	for mask := 0; mask < 1<<n; mask++ {
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				continue
			}
			sup := mask | 1<<i
			if ev.h[sup] < ev.h[mask]-tol {
				out = append(out, PolymatroidViolation{
					Axiom:  "monotone",
					Detail: fmt.Sprintf("H(%s) < H(%s)", ev.name(sup), ev.name(mask)),
					Amount: ev.h[mask] - ev.h[sup],
				})
			}
		}
	}
	// Submodularity in the diminishing-returns form, checked on covers:
	// for S ⊂ S∪{b} and a ∉ S∪{b}: H(S+a) − H(S) ≥ H(S+b+a) − H(S+b).
	for mask := 0; mask < 1<<n; mask++ {
		for b := 0; b < n; b++ {
			if mask&(1<<b) != 0 {
				continue
			}
			withB := mask | 1<<b
			for a := 0; a < n; a++ {
				if a == b || mask&(1<<a) != 0 {
					continue
				}
				gainS := ev.h[mask|1<<a] - ev.h[mask]
				gainT := ev.h[withB|1<<a] - ev.h[withB]
				if gainT > gainS+tol {
					out = append(out, PolymatroidViolation{
						Axiom: "submodular",
						Detail: fmt.Sprintf("adding %s to %s gains more than to %s",
							ev.attrs[a], ev.name(withB), ev.name(mask)),
						Amount: gainT - gainS,
					})
				}
			}
		}
	}
	return out
}

func (ev *EntropyVector) name(mask int) string {
	var parts []string
	for i, a := range ev.attrs {
		if mask&(1<<i) != 0 {
			parts = append(parts, a)
		}
	}
	sort.Strings(parts)
	if len(parts) == 0 {
		return "∅"
	}
	return strings.Join(parts, "")
}
