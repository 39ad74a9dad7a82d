// Package stats provides the hypergeometric and Poisson PMFs the paper's
// Section 5 Poissonization check compares (Lemma B.4), and simple summary
// statistics for experiment tables. The samplers and Appendix D bounds
// that check the rest of Section 5 live in its tests.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// logChoose returns log C(n, k) using lgamma; 0 for k outside [0,n].
func logChoose(n, k int64) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}

// HypergeometricPMF returns P[Y = k] for
// Y ~ Hypergeometric(L, M, l): population L, M success states, l draws.
func HypergeometricPMF(L, M, l, k int64) float64 {
	if L < 0 || M < 0 || M > L || l < 0 || l > L {
		return 0
	}
	lo := l + M - L
	if lo < 0 {
		lo = 0
	}
	hi := l
	if M < hi {
		hi = M
	}
	if k < lo || k > hi {
		return 0
	}
	return math.Exp(logChoose(M, k) + logChoose(L-M, l-k) - logChoose(L, l))
}

// PoissonPMF returns P[W = k] for W ~ Poisson(λ).
func PoissonPMF(lambda float64, k int64) float64 {
	if k < 0 || lambda < 0 {
		return 0
	}
	lg, _ := math.Lgamma(float64(k + 1))
	return math.Exp(float64(k)*math.Log(lambda) - lambda - lg)
}

// Summary holds simple descriptive statistics of a sample.
type Summary struct {
	N                int
	Mean, Std        float64
	Min, Max         float64
	Q05, Median, Q95 float64
}

// Summarize computes the summary of xs. It returns an error on empty input.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, fmt.Errorf("stats: empty sample")
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Q05 = quantile(sorted, 0.05)
	s.Median = quantile(sorted, 0.5)
	s.Q95 = quantile(sorted, 0.95)
	return s, nil
}

// quantile returns the linearly interpolated q-quantile of a sorted sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}
