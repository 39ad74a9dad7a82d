package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestHypergeometricPMFSums(t *testing.T) {
	cases := []struct{ L, M, l int64 }{
		{20, 5, 7}, {100, 30, 10}, {10, 10, 4}, {8, 3, 8},
	}
	for _, c := range cases {
		var sum, mean float64
		for k := int64(0); k <= c.l; k++ {
			p := HypergeometricPMF(c.L, c.M, c.l, k)
			sum += p
			mean += float64(k) * p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("PMF(%+v) sums to %v", c, sum)
		}
		if math.Abs(mean-HypergeometricMean(c.L, c.M, c.l)) > 1e-9 {
			t.Errorf("mean(%+v) = %v, want %v", c, mean, HypergeometricMean(c.L, c.M, c.l))
		}
	}
}

func TestHypergeometricPMFEdges(t *testing.T) {
	if HypergeometricPMF(10, 3, 4, -1) != 0 || HypergeometricPMF(10, 3, 4, 5) != 0 {
		t.Fatal("out-of-support PMF nonzero")
	}
	if HypergeometricPMF(10, 12, 4, 2) != 0 {
		t.Fatal("invalid parameters accepted")
	}
	// Support lower bound: l+M−L > 0 forces successes.
	if got := HypergeometricPMF(10, 9, 10, 9); math.Abs(got-1) > 1e-12 {
		t.Fatalf("forced draw PMF = %v, want 1", got)
	}
}

func TestHypergeometricSampleMoments(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	const L, M, l = 200, 60, 50
	const trials = 4000
	var sum, sq float64
	for i := 0; i < trials; i++ {
		x := float64(HypergeometricSample(rng, L, M, l))
		sum += x
		sq += x * x
	}
	mean := sum / trials
	variance := sq/trials - mean*mean
	wantMean := HypergeometricMean(L, M, l)
	wantVar := HypergeometricVar(L, M, l)
	if math.Abs(mean-wantMean) > 5*math.Sqrt(wantVar/trials) {
		t.Fatalf("sample mean %v, want %v", mean, wantMean)
	}
	if math.Abs(variance-wantVar) > 0.2*wantVar {
		t.Fatalf("sample var %v, want %v", variance, wantVar)
	}
}

func TestHypergeometricSampleDegenerate(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	// All draws are successes.
	if got := HypergeometricSample(rng, 5, 5, 3); got != 3 {
		t.Fatalf("degenerate sample = %d", got)
	}
	// No successes available.
	if got := HypergeometricSample(rng, 5, 0, 3); got != 0 {
		t.Fatalf("zero-success sample = %d", got)
	}
}

func TestPoissonPMF(t *testing.T) {
	lambda := 3.5
	var sum, mean float64
	for k := int64(0); k < 100; k++ {
		p := PoissonPMF(lambda, k)
		sum += p
		mean += float64(k) * p
	}
	if math.Abs(sum-1) > 1e-9 || math.Abs(mean-lambda) > 1e-6 {
		t.Fatalf("Poisson PMF sum=%v mean=%v", sum, mean)
	}
	if PoissonPMF(lambda, -1) != 0 || PoissonPMF(-1, 2) != 0 {
		t.Fatal("invalid PMF arguments accepted")
	}
}

func TestPoissonSampleMoments(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for _, lambda := range []float64{0.5, 4, 25, 120} { // crosses the split threshold
		const trials = 4000
		var sum, sq float64
		for i := 0; i < trials; i++ {
			x := float64(PoissonSample(rng, lambda))
			sum += x
			sq += x * x
		}
		mean := sum / trials
		variance := sq/trials - mean*mean
		if math.Abs(mean-lambda) > 5*math.Sqrt(lambda/trials) {
			t.Fatalf("lambda=%v: mean %v", lambda, mean)
		}
		if math.Abs(variance-lambda) > 0.25*lambda {
			t.Fatalf("lambda=%v: var %v", lambda, variance)
		}
	}
	if PoissonSample(rng, 0) != 0 || PoissonSample(rng, -2) != 0 {
		t.Fatal("non-positive lambda should give 0")
	}
}

func TestBoundsAreProbabilities(t *testing.T) {
	if b := SerflingBound(3, 100); b <= 0 || b > 1 {
		t.Fatalf("Serfling = %v", b)
	}
	if SerflingBound(1, 0) != 1 {
		t.Fatal("Serfling with l=0 should be vacuous")
	}
	if b := ChernoffBinomialRelative(0.5, 0.5, 100); b <= 0 || b > 1 {
		t.Fatalf("Chernoff binomial = %v", b)
	}
	if ChernoffBinomialRelative(0.001, 0.5, 1) != 1 {
		t.Fatal("weak Chernoff should clamp to 1")
	}
	if b := ChernoffPoissonUpper(10, 5); b <= 0 || b > 1 {
		t.Fatalf("Chernoff Poisson = %v", b)
	}
	if ChernoffPoissonUpper(2, 5) != 1 {
		t.Fatal("alpha below 3e should be vacuous")
	}
	if b := PoissonLipschitzBound(2, 3); b <= 0 || b > 1 {
		t.Fatalf("Poisson Lipschitz = %v", b)
	}
	if PoissonLipschitzBound(0, 3) != 1 || PoissonLipschitzBound(1, 0) != 1 {
		t.Fatal("degenerate Lipschitz bound should be vacuous")
	}
}

func TestSerflingEmpirical(t *testing.T) {
	// The bound must dominate the empirical tail of the hypergeometric.
	rng := rand.New(rand.NewPCG(9, 10))
	const L, M, l = 400, 100, 80
	const trials = 3000
	eps := 8.0
	mean := HypergeometricMean(L, M, l)
	exceed := 0
	for i := 0; i < trials; i++ {
		if float64(HypergeometricSample(rng, L, M, l))-mean >= eps {
			exceed++
		}
	}
	empirical := float64(exceed) / trials
	bound := SerflingBound(eps, l)
	if empirical > bound+3*math.Sqrt(bound/trials)+0.01 {
		t.Fatalf("empirical tail %v exceeds Serfling bound %v", empirical, bound)
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{3, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 3 || s.Min != 1 || s.Max != 3 || s.Median != 2 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.Mean-2) > 1e-12 || math.Abs(s.Std-1) > 1e-12 {
		t.Fatalf("mean/std = %v/%v", s.Mean, s.Std)
	}
	if _, err := Summarize(nil); err == nil {
		t.Fatal("empty sample did not error")
	}
	one, err := Summarize([]float64{7})
	if err != nil || one.Median != 7 || one.Std != 0 {
		t.Fatalf("singleton summary = %+v, %v", one, err)
	}
}

func TestQuickPMFRatioMatchesSampler(t *testing.T) {
	// The sampler's inverse-CDF recurrence must agree with the direct PMF.
	f := func(seed uint64) bool {
		L := int64(10 + seed%50)
		M := int64(seed % uint64(L+1))
		l := int64(seed % uint64(L+1))
		lo := l + M - L
		if lo < 0 {
			lo = 0
		}
		hi := l
		if M < hi {
			hi = M
		}
		p := HypergeometricPMF(L, M, l, lo)
		for k := lo; k < hi; k++ {
			num := float64(M-k) * float64(l-k)
			den := float64(k+1) * float64(L-M-l+k+1)
			p *= num / den
			direct := HypergeometricPMF(L, M, l, k+1)
			if math.Abs(p-direct) > 1e-9*(1+direct) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGFunc(t *testing.T) {
	if GFunc(0) != 0 || GFunc(-1) != 0 {
		t.Fatal("g not clamped at 0")
	}
	if math.Abs(GFunc(1)) > 1e-15 {
		t.Fatal("g(1) != 0")
	}
	// Maximum at 1/e.
	if GFunc(1/math.E) < GFunc(0.5) || GFunc(1/math.E) < GFunc(0.2) {
		t.Fatal("g not maximal at 1/e")
	}
}

func TestQuickLemmaD2InAppliedRegime(t *testing.T) {
	// Lemma D.2 holds whenever |s−t| ≤ 1/e — the only regime the paper
	// applies it in.
	f := func(a, b uint16) bool {
		s := float64(a) / 65535
		x := float64(b) / 65535
		if math.Abs(s-x) > 1/math.E {
			return true
		}
		lhs, rhs := GFuncLipschitzBound(s, x)
		return lhs <= rhs+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestFindingF3LemmaD2Counterexample(t *testing.T) {
	// Finding F3: for |s−t| > 1/e the stated inequality fails.
	lhs, rhs := GFuncLipschitzBound(0.9944, 0.0827)
	if lhs <= rhs {
		t.Fatalf("expected Lemma D.2 violation, got %v <= %v", lhs, rhs)
	}
}

func TestFindingF4LemmaD6(t *testing.T) {
	// Finding F4: the stated Lemma D.6 fails for every y > e …
	for _, y := range []float64{10, 100, 1e4, 1e8} {
		x := y * math.Log(y)
		if LogCondition(x) >= y {
			t.Fatalf("y=%v: stated Lemma D.6 unexpectedly holds", y)
		}
	}
	// … and the corrected factor-2 form holds.
	f := func(raw uint16) bool {
		y := math.E + float64(raw)/10
		_, holds := LemmaD6Corrected(y)
		return holds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if LogCondition(0.5) != 0 {
		t.Fatal("x ≤ 1 not clamped")
	}
	if _, holds := LemmaD6Corrected(1); holds {
		t.Fatal("y < e accepted")
	}
}

// The moments, samplers and Appendix D bounds below check the paper's
// Section 5 machinery in these tests; no production code calls them.

// HypergeometricMean returns E[Y] = l·M/L.
func HypergeometricMean(L, M, l int64) float64 {
	return float64(l) * float64(M) / float64(L)
}

// HypergeometricVar returns Var[Y] = l·(M/L)·(1−M/L)·(L−l)/(L−1).
func HypergeometricVar(L, M, l int64) float64 {
	if L <= 1 {
		return 0
	}
	p := float64(M) / float64(L)
	return float64(l) * p * (1 - p) * float64(L-l) / float64(L-1)
}

// HypergeometricSample draws from Hypergeometric(L, M, l) by inverse-CDF
// using the stable PMF ratio recurrence
// p(k+1)/p(k) = (M−k)(l−k) / ((k+1)(L−M−l+k+1)).
func HypergeometricSample(rng *rand.Rand, L, M, l int64) int64 {
	lo := l + M - L
	if lo < 0 {
		lo = 0
	}
	hi := l
	if M < hi {
		hi = M
	}
	if lo >= hi {
		return lo
	}
	u := rng.Float64()
	k := lo
	p := HypergeometricPMF(L, M, l, lo)
	cdf := p
	for cdf < u && k < hi {
		num := float64(M-k) * float64(l-k)
		den := float64(k+1) * float64(L-M-l+k+1)
		p *= num / den
		k++
		cdf += p
	}
	return k
}

// PoissonSample draws from Poisson(λ) exactly: Knuth's product method for
// small λ, recursively split as a sum of two independent halves for large λ
// (Poisson additivity keeps this exact).
func PoissonSample(rng *rand.Rand, lambda float64) int64 {
	if lambda <= 0 {
		return 0
	}
	var total int64
	for lambda > 30 {
		half := lambda / 2
		total += poissonKnuth(rng, half)
		lambda -= half
	}
	return total + poissonKnuth(rng, lambda)
}

func poissonKnuth(rng *rand.Rand, lambda float64) int64 {
	limit := math.Exp(-lambda)
	p := 1.0
	var k int64 = -1
	for p > limit {
		p *= rng.Float64()
		k++
	}
	return k
}

// SerflingBound returns the Lemma D.7 tail bound for a hypergeometric
// Y ~ Hypergeometric(L, M, l): P[Y − E[Y] ≥ ε] ≤ exp(−2ε²/l).
func SerflingBound(eps float64, l int64) float64 {
	if l <= 0 {
		return 1
	}
	return math.Exp(-2 * eps * eps / float64(l))
}

// ChernoffBinomialRelative returns the Lemma D.2 two-sided relative bound
// for the mean of n i.i.d. Bernoulli(p):
// P[|mean − p| ≥ ξp] ≤ 2·exp(−ξ²·p·n/3).
func ChernoffBinomialRelative(xi, p float64, n int64) float64 {
	b := 2 * math.Exp(-xi*xi*p*float64(n)/3)
	if b > 1 {
		return 1
	}
	return b
}

// ChernoffPoissonUpper returns the Lemma D.3 bound for W ~ Poisson(λ):
// P[W ≥ α·λ] ≤ exp(−α·λ·log(α/e)) for α > 3e (≈ 8.15). It returns 1 when
// the precondition fails.
func ChernoffPoissonUpper(alpha, lambda float64) float64 {
	if alpha <= 3*math.E || lambda <= 0 {
		return 1
	}
	b := math.Exp(-alpha * lambda * math.Log(alpha/math.E))
	if b > 1 {
		return 1
	}
	return b
}

// PoissonLipschitzBound returns the Lemma D.4 concentration bound for a
// 1-Lipschitz function f of W ~ Poisson(λ):
// P[f(W) − E f(W) > t] ≤ exp(−(t/4)·log(1 + t/(2λ))).
func PoissonLipschitzBound(t, lambda float64) float64 {
	if t <= 0 || lambda <= 0 {
		return 1
	}
	b := math.Exp(-(t / 4) * math.Log1p(t/(2*lambda)))
	if b > 1 {
		return 1
	}
	return b
}

// GFunc is g(t) = −t·log t (continuously extended with g(0) = 0), the
// entropy summand the paper's Appendix B manipulates.
func GFunc(t float64) float64 {
	if t <= 0 {
		return 0
	}
	return -t * math.Log(t)
}

// GFuncLipschitzBound returns the two sides of the Lemma D.2 inequality
// |g(t) − g(s)| ≤ 2·g(|s−t|) for s, t ∈ [0,1].
//
// Reproduction finding F3: the inequality as stated FAILS for
// |s−t| > 1/e (e.g. s = 0.9944, t = 0.0827 gives 0.2005 > 0.1686): the
// proof's final step needs log(1/(s−t)) ≥ 1. It does hold throughout
// |s−t| ≤ 1/e, which is the only regime the paper applies it in (the
// argument is bounded by √(2/d_B) ≤ 1/e under the η ≥ 60·d_A assumption),
// so no downstream result is affected. Tests pin both facts.
func GFuncLipschitzBound(s, t float64) (lhs, rhs float64) {
	d := s - t
	if d < 0 {
		d = -d
	}
	lhs = GFunc(t) - GFunc(s)
	if lhs < 0 {
		lhs = -lhs
	}
	return lhs, 2 * GFunc(d)
}

// LogCondition returns x/log(x) (0 for x ≤ 1), the quantity Lemma D.6
// manipulates in the qualifying-condition algebra of Theorem 5.2.
//
// Reproduction finding F4: Lemma D.6 as stated — "x ≥ y·log y implies
// x/log x ≥ y" — is FALSE for every y > e (take x = y·log y exactly: then
// x/log x = y·log y/(log y + log log y) < y; the paper's one-line proof
// mis-simplifies the fraction). The corrected form needs a factor 2:
// x ≥ 2·y·log y ⇒ x/log x ≥ y for y ≥ e (verified by LemmaD6Corrected and
// property tests). Consequence: the Theorem 5.2 qualifying condition
// derivation (Eq. 286→287/Eq. 40) silently loses a factor ≤ 2 on η; given
// the 3–6 orders of magnitude of slack measured in E7, this is immaterial
// in practice but worth recording.
func LogCondition(x float64) float64 {
	if x <= 1 {
		return 0
	}
	return x / math.Log(x)
}

// LemmaD6Corrected reports the corrected Lemma D.6 premise and conclusion
// for a given y ≥ e: x := 2·y·log y satisfies x/log x ≥ y.
func LemmaD6Corrected(y float64) (x float64, holds bool) {
	if y < math.E {
		return 0, false
	}
	x = 2 * y * math.Log(y)
	return x, LogCondition(x) >= y-1e-9
}
