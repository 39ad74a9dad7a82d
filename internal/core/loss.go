package core

import (
	"fmt"
	"math"

	"ajdloss/internal/infotheory"
	"ajdloss/internal/join"
	"ajdloss/internal/jointree"
	"ajdloss/internal/relation"
)

// Loss holds the combinatorial loss of a schema with respect to a relation:
// the join cardinality, the number of spurious tuples, and the relative loss
// ρ(R,S) = (|⋈ᵢ R[Ωᵢ]| − |R|) / |R| (Eq. 1).
type Loss struct {
	N        int     // |R|
	JoinSize int64   // |⋈ᵢ R[Ωᵢ]|
	Spurious int64   // JoinSize − N
	Rho      float64 // Spurious / N
}

// LogOnePlusRho returns log(1+ρ) in nats, the quantity bounded by the
// paper's theorems.
func (l Loss) LogOnePlusRho() float64 { return math.Log(1 + l.Rho) }

// ComputeLoss returns the loss of the acyclic schema s with respect to r,
// counting the join via junction-tree message passing (the join itself is
// never materialized).
func ComputeLoss(r *relation.Relation, s *jointree.Schema) (Loss, error) {
	if r.N() == 0 {
		return Loss{}, fmt.Errorf("core: loss of an empty relation is undefined")
	}
	if err := checkCoverage(r, s); err != nil {
		return Loss{}, err
	}
	size, err := join.CountAcyclicJoin(r, s)
	if err != nil {
		return Loss{}, err
	}
	return lossFromJoinSize(r.N(), size)
}

// ComputeLossTree is ComputeLoss for a pre-built join tree.
func ComputeLossTree(r *relation.Relation, t *jointree.JoinTree) (Loss, error) {
	if r.N() == 0 {
		return Loss{}, fmt.Errorf("core: loss of an empty relation is undefined")
	}
	if err := checkCoverage(r, t.Schema()); err != nil {
		return Loss{}, err
	}
	size, err := join.CountSnapshot(r.Snapshot(), t)
	if err != nil {
		return Loss{}, err
	}
	return lossFromJoinSize(r.N(), size)
}

func lossFromJoinSize(n int, size int64) (Loss, error) {
	if size < int64(n) {
		return Loss{}, fmt.Errorf("core: join size %d smaller than |R|=%d; schema does not cover R's attributes", size, n)
	}
	sp := size - int64(n)
	return Loss{
		N:        n,
		JoinSize: size,
		Spurious: sp,
		Rho:      float64(sp) / float64(n),
	}, nil
}

// MVDLoss returns the loss ρ(R,φ) of the MVD φ = X ↠ Y|Z (Eq. 28):
// (|Π_{XY}(R) ⋈ Π_{XZ}(R)| − |R|) / |R|, counted on r's snapshot as the
// two-bag join tree {XY, XZ} with separator X.
func MVDLoss(r *relation.Relation, m jointree.MVD) (Loss, error) {
	if r.N() == 0 {
		return Loss{}, fmt.Errorf("core: loss of an empty relation is undefined")
	}
	size, err := join.CountMVD(r.Snapshot(), m)
	if err != nil {
		return Loss{}, err
	}
	return lossFromJoinSize(r.N(), size)
}

// MVDTerm is one MVD of a join tree's support together with its loss and
// conditional mutual information (the ingredients of Proposition 5.1 and
// Theorem 5.1).
type MVDTerm struct {
	MVD        jointree.MVD
	Loss       Loss
	CMI        float64 // I(Y;Z|X) of the MVD, in nats
	LogOnePlus float64 // log(1+ρ(R,φᵢ))
}

// Decomposition is the per-MVD decomposition of a schema's loss
// (Proposition 5.1): log(1+ρ(R,S)) ≤ Σᵢ log(1+ρ(R,φᵢ)) over the support of
// the join tree. The MVDs are Beeri et al.'s edge MVDs
// φ_e = χ(u)∩χ(v) ↠ χ(T_u) | χ(T_v): by the running intersection property
// the two sides share exactly the separator, so each φ_e is a well-formed
// MVD of Ω. (The paper's Eq. 28 writes the support as prefix/suffix pairs of
// a DFS enumeration; for branching trees the literal prefix/suffix pair can
// share attributes outside Δᵢ, which distorts the per-MVD join — the edge
// form coincides with it on path enumerations and is the sound reading of
// "support". See EXPERIMENTS.md, finding F1.)
//
// Reproduction caveat (finding F2): even in edge form and on reduced
// schemas, the Proposition 5.1 inequality is NOT deterministic — property
// testing found small counterexamples (a 3-bag, 30-tuple instance violates
// it by ≈1.6%). The flaw traces to the paper's induction step, which bounds
// projections of the intermediate join by projections of R. Empirically the
// inequality holds in ≳99% of random instances and the violations are tiny;
// treat SumLogLoss as a strong heuristic upper bound, not a theorem.
type Decomposition struct {
	Schema     Loss
	Terms      []MVDTerm
	SumLogLoss float64 // Σ_e log(1+ρ(R,φ_e))
	SumCMI     float64 // Σ_e I(χ(T_u);χ(T_v)|sep): each term ≤ J (Thm 2.2)
}

// ComputeDecomposition evaluates the support MVDs of the rooted tree against
// r: each MVD's loss and CMI, the schema loss, and the Proposition 5.1 sums.
func ComputeDecomposition(r *relation.Relation, rooted *jointree.Rooted) (*Decomposition, error) {
	d := &Decomposition{}
	schemaLoss, err := ComputeLossTree(r, rooted.Tree)
	if err != nil {
		return nil, err
	}
	d.Schema = schemaLoss
	for _, m := range rooted.Tree.EdgeMVDs() {
		l, err := MVDLoss(r, m)
		if err != nil {
			return nil, err
		}
		cmi, err := infotheory.ConditionalMutualInformation(r, m.Y, m.Z, m.X)
		if err != nil {
			return nil, err
		}
		term := MVDTerm{MVD: m, Loss: l, CMI: cmi, LogOnePlus: l.LogOnePlusRho()}
		d.Terms = append(d.Terms, term)
		d.SumLogLoss += term.LogOnePlus
		d.SumCMI += cmi
	}
	return d, nil
}
