package core

// This file pins the two reproduction findings about Section 2.3/5 of the
// paper (documented in EXPERIMENTS.md):
//
// F1 — the literal DFS prefix/suffix form of the support MVDs (Eq. 9 / 28)
// is ill-formed for branching enumerations: Ω_{1:i−1} ∩ Ω_{i:m} can strictly
// contain Δᵢ, and then both the Theorem 2.2 max lower bound and the
// Proposition 5.1 product bound fail numerically. The edge-MVD form (Beeri
// et al.'s support), which coincides with the literal form on path
// enumerations, is the sound reading; this library uses it throughout.
//
// F2 — even in edge form and on reduced schemas, Proposition 5.1 is not
// deterministic: the concrete instance pinned below violates it by ≈1.6%.

import (
	"math"
	"testing"

	"ajdloss/internal/jointree"
)

func TestFindingF2Prop51Counterexample(t *testing.T) {
	// randomInstance's tree shape depends on m and nAttrs which we re-derive
	// exactly as the failing quick-check did.
	seed := uint64(0x5d83115e4b355a52)
	_, r, err := randomInstance(seed, 2+int(seed%4), 5+int(seed%3), 3, 30)
	if err != nil {
		t.Fatal(err)
	}
	s := jointree.MustSchema(
		[]string{"X1", "X2", "X3", "X4", "X5"},
		[]string{"X2", "X4", "X6"},
		[]string{"X3", "X4", "X7"},
	)
	if !s.IsReduced() {
		t.Fatal("counterexample schema must be reduced")
	}
	rep, err := Analyze(r, s)
	if err != nil {
		t.Fatal(err)
	}
	// The sound theorems still hold on the counterexample.
	if err := rep.Verify(1e-9); err != nil {
		t.Fatalf("sound theorems violated on F2 instance: %v", err)
	}
	// Pin the exact cardinalities so the counterexample cannot silently
	// drift: 1+ρ(S) = 160/30 while the per-MVD product is (75/30)·(63/30).
	if rep.Loss.JoinSize != 160 || rep.N != 30 {
		t.Fatalf("instance drifted: join=%d N=%d", rep.Loss.JoinSize, rep.N)
	}
	holds, slack := rep.CheckDecomposition(1e-9)
	if holds {
		t.Fatalf("expected Proposition 5.1 violation, got slack %.9f", slack)
	}
	wantSlack := math.Log(75.0/30) + math.Log(63.0/30) - math.Log(160.0/30)
	if math.Abs(slack-wantSlack) > 1e-9 {
		t.Fatalf("slack = %.9f, want %.9f", slack, wantSlack)
	}
}

func TestFindingF1SuffixSupportIllFormed(t *testing.T) {
	// A star join tree rooted at the center: the DFS suffix at the last
	// child straddles the earlier child's subtree, so prefix ∩ suffix ⊋ Δ.
	tree := jointree.MustJoinTree(
		[][]string{{"X", "Y"}, {"X", "A"}, {"Y", "B"}},
		[][2]int{{0, 1}, {0, 2}},
	)
	rooted := jointree.MustRoot(tree, 0)
	mvds := supportMVDs(rooted)
	// For i=2 (the bag {X,A}): prefix = {X,Y}, suffix = {X,A,Y,B} — they
	// share Y ∉ Δ₂ = {X}.
	m := mvds[0]
	shared := map[string]bool{}
	for _, a := range m.Y {
		shared[a] = true
	}
	overlap := 0
	for _, a := range m.Z {
		if shared[a] {
			overlap++
		}
	}
	if overlap <= len(m.X) {
		t.Fatalf("expected prefix/suffix overlap beyond Δ, got %d vs |Δ|=%d", overlap, len(m.X))
	}
	// The edge MVDs are well-formed: each pair of sides shares exactly the
	// separator.
	for e, em := range tree.EdgeMVDs() {
		sep := map[string]bool{}
		for _, a := range em.X {
			sep[a] = true
		}
		ys := map[string]bool{}
		for _, a := range em.Y {
			ys[a] = true
		}
		for _, a := range em.Z {
			if ys[a] && !sep[a] {
				t.Fatalf("edge %d: sides share %q outside the separator", e, a)
			}
		}
	}
}
