// Package ajdloss quantifies the loss of acyclic join dependencies (AJDs),
// reproducing Kenig & Weinberger, "Quantifying the Loss of Acyclic Join
// Dependencies", PODS 2023 (arXiv:2210.14572).
//
// Given a relation instance R and an acyclic schema S = {Ω₁,…,Ω_m}, the
// library computes and relates the two loss measures the paper studies:
//
//   - the combinatorial loss ρ(R,S) — the relative number of spurious tuples
//     the acyclic join ⋈ᵢ R[Ωᵢ] generates beyond R;
//   - the information-theoretic loss J(S) — Lee's J-measure, which the paper
//     characterizes as the KL divergence D(P‖P^T) between R's empirical
//     distribution and its join-tree factorization (Theorem 3.2).
//
// It implements the deterministic lower bound J ≤ log(1+ρ) (Lemma 4.1), the
// Theorem 2.2 sandwich, the per-MVD decomposition of Proposition 5.1, the
// random relation model of Definition 5.2, and the high-probability upper
// bound of Theorem 5.1 with the paper's explicit constants — plus the
// substrates these rest on: a relational algebra kernel, GYO/join-tree
// machinery, Yannakakis joins with cardinality counting, and the approximate
// acyclic schema discovery application that motivated the work.
//
// All information quantities are in nats; use infotheory.Bits to convert.
//
// # Quick start
//
//	r := ajdloss.Diagonal(100)                                // Example 4.1
//	s := ajdloss.MustSchema([]string{"A"}, []string{"B"})
//	rep, err := ajdloss.Analyze(r, s)                          // J, ρ, bounds
//
// See examples/ for runnable programs and cmd/figures for regenerating every
// figure and table in EXPERIMENTS.md.
package ajdloss

import (
	"math/rand/v2"

	"ajdloss/internal/core"
	"ajdloss/internal/discovery"
	"ajdloss/internal/fd"
	"ajdloss/internal/infotheory"
	"ajdloss/internal/join"
	"ajdloss/internal/jointree"
	"ajdloss/internal/normalize"
	"ajdloss/internal/randrel"
	"ajdloss/internal/relation"
	"ajdloss/internal/schemagen"
)

// Relational substrate.
type (
	// Relation is a finite set of tuples over named attributes.
	Relation = relation.Relation
	// Tuple is a row of a relation.
	Tuple = relation.Tuple
	// Value is a dictionary-encoded attribute value.
	Value = relation.Value
	// Encoder maps string records to encoded tuples (CSV ingestion).
	Encoder = relation.Encoder
)

// NewRelation returns an empty relation over the given attributes.
func NewRelation(attrs ...string) *Relation { return relation.New(attrs...) }

// FromRows returns a relation containing the given rows.
func FromRows(attrs []string, rows []Tuple) *Relation { return relation.FromRows(attrs, rows) }

// Schema machinery.
type (
	// Schema is a set of bags S = {Ω₁,…,Ω_m}.
	Schema = jointree.Schema
	// JoinTree is a join (junction) tree with the running intersection
	// property.
	JoinTree = jointree.JoinTree
	// MVD is a multivalued dependency X ↠ Y | Z.
	MVD = jointree.MVD
)

// NewSchema constructs a schema from bags.
func NewSchema(bags ...[]string) (*Schema, error) { return jointree.NewSchema(bags...) }

// MustSchema is NewSchema but panics on error.
func MustSchema(bags ...[]string) *Schema { return jointree.MustSchema(bags...) }

// MVDSchema returns the acyclic schema {XY₁,…,XY_k} of the MVD X ↠ Y₁|…|Y_k.
func MVDSchema(x []string, ys ...[]string) (*Schema, error) { return jointree.MVDSchema(x, ys...) }

// IsAcyclic reports whether the schema admits a join tree (GYO).
func IsAcyclic(s *Schema) bool { return jointree.IsAcyclic(s) }

// BuildJoinTree constructs a join tree for an acyclic schema via GYO.
func BuildJoinTree(s *Schema) (*JoinTree, error) { return jointree.BuildJoinTree(s) }

// Core loss analysis.
type (
	// Report is a complete loss analysis (J, KL, ρ, all bounds).
	Report = core.Report
	// Loss is the combinatorial loss ρ(R,S) with join cardinalities.
	Loss = core.Loss
)

// Analyze computes every loss measure and bound of the paper for (R, S).
func Analyze(r *Relation, s *Schema) (*Report, error) { return core.Analyze(r, s) }

// JMeasure returns J(T) in nats (Eq. 7).
func JMeasure(r *Relation, t *JoinTree) (float64, error) { return core.JMeasure(r, t) }

// JMeasureSchema returns J(S) for an acyclic schema.
func JMeasureSchema(r *Relation, s *Schema) (float64, error) { return core.JMeasureSchema(r, s) }

// ComputeLoss returns ρ(R,S) and the join cardinality, computed without
// materializing the join.
func ComputeLoss(r *Relation, s *Schema) (Loss, error) { return core.ComputeLoss(r, s) }

// MVDLoss returns ρ(R,φ) for an MVD φ (Eq. 28).
func MVDLoss(r *Relation, m MVD) (Loss, error) { return core.MVDLoss(r, m) }

// RhoLowerBound returns e^J − 1, the Lemma 4.1 lower bound on ρ.
func RhoLowerBound(j float64) float64 { return core.RhoLowerBound(j) }

// EpsilonStar returns the Theorem 5.1 deviation term ε*(φ,N,δ) (Eq. 38).
func EpsilonStar(dA, dC, n int, delta float64) float64 {
	return core.EpsilonStar(dA, dC, n, delta)
}

// Information measures (nats).

// Entropy returns H(attrs) under R's empirical distribution.
func Entropy(r *Relation, attrs ...string) (float64, error) {
	return infotheory.Entropy(r, attrs...)
}

// MutualInformation returns I(A;B).
func MutualInformation(r *Relation, a, b []string) (float64, error) {
	return infotheory.MutualInformation(r, a, b)
}

// ConditionalMutualInformation returns I(A;B|C) (Eq. 4).
func ConditionalMutualInformation(r *Relation, a, b, c []string) (float64, error) {
	return infotheory.ConditionalMutualInformation(r, a, b, c)
}

// Random relation model (Definition 5.2).
type RandomModel = randrel.Model

// NewRand returns a deterministic generator for experiment seeds.
func NewRand(seed uint64) *rand.Rand { return randrel.NewRand(seed) }

// SampleMVD draws a random relation over (A,B,C) with the given domains.
func SampleMVD(rng *rand.Rand, dA, dB, dC, n int) (*Relation, error) {
	return randrel.SampleMVD(rng, dA, dB, dC, n)
}

// Generators.

// Diagonal returns the Example 4.1 relation over (A,B) with N tuples.
func Diagonal(n int) *Relation { return schemagen.Diagonal(n) }

// Schema discovery (the motivating application, after Kenig et al. 2020).
type (
	// Candidate is a discovered schema with its J-measure.
	Candidate = discovery.Candidate
	// MVDCandidate is a discovered approximate MVD.
	MVDCandidate = discovery.MVDCandidate
)

// Discover searches for an acyclic schema with J ≤ target.
func Discover(r *Relation, target float64) (Candidate, error) {
	return discovery.Discover(r, target)
}

// FindMVDs enumerates approximate MVDs with separators of size ≤ maxSep.
func FindMVDs(r *Relation, maxSep int, threshold float64) ([]MVDCandidate, error) {
	return discovery.FindMVDs(r, maxSep, threshold)
}

// DissectConfig controls recursive schema dissection.
type DissectConfig = discovery.DissectConfig

// Dissect recursively decomposes r's attribute set into an acyclic schema by
// repeated MVD splitting (the mining loop of Kenig et al. 2020).
func Dissect(r *Relation, cfg DissectConfig) (Candidate, error) {
	return discovery.Dissect(r, cfg)
}

// Multisets: the paper's empirical distributions are defined for multisets
// of tuples; Multiset carries multiplicities and plugs into every
// information measure.
type Multiset = relation.Multiset

// NewMultiset returns an empty multiset over the given attributes.
func NewMultiset(attrs ...string) *Multiset { return relation.NewMultiset(attrs...) }

// MultisetOf lifts a relation into a multiset with unit multiplicities.
func MultisetOf(r *Relation) *Multiset { return relation.MultisetOf(r) }

// Functional dependencies (Lee 1987 Part I; FDs ⊂ MVDs ⊂ JDs).
type (
	// FD is a functional dependency X → Y.
	FD = fd.FD
	// DiscoveredFD is an FD found by DiscoverFDs with its error measures.
	DiscoveredFD = fd.Discovered
)

// FDHolds reports whether R ⊨ X → Y.
func FDHolds(r *Relation, f FD) (bool, error) { return fd.Holds(r, f) }

// G3Error returns the minimum fraction of tuples whose removal makes the FD
// hold (0 iff exact).
func G3Error(r *Relation, f FD) (float64, error) { return fd.G3Error(r, f) }

// DiscoverFDs performs a levelwise search for minimal (approximate) FDs.
func DiscoverFDs(r *Relation, cfg fd.DiscoverConfig) ([]DiscoveredFD, error) {
	return fd.Discover(r, cfg)
}

// CandidateKeys returns the minimal keys of r.
func CandidateKeys(r *Relation, maxSize int) ([][]string, error) {
	return fd.CandidateKeys(r, maxSize)
}

// Join sampling.

// JoinSampler draws uniform tuples from an acyclic join without
// materializing it.
type JoinSampler = join.Sampler

// NewJoinSampler prepares uniform sampling from ⋈ᵢ R[Ωᵢ] for an acyclic
// schema over r.
func NewJoinSampler(r *Relation, s *Schema) (*JoinSampler, error) {
	t, err := jointree.BuildJoinTree(s)
	if err != nil {
		return nil, err
	}
	return join.NewSampler(r.Snapshot(), t)
}

// SampleSpurious draws up to k uniform join tuples and keeps the spurious
// ones (those not in r).
func SampleSpurious(s *JoinSampler, r *Relation, rng *rand.Rand, k int) []Tuple {
	return join.SampleSpurious(s, r, rng, k)
}

// Normalization: factorize a universal relation over an acyclic schema and
// quantify the compression/loss trade the paper's introduction motivates.
type (
	// Decomposition is a relation factored over an acyclic schema.
	Decomposition = normalize.Decomposition
	// CompressionReport quantifies a decomposition: cells stored, J, ρ,
	// and the Lemma 4.1 floor.
	CompressionReport = normalize.Report
)

// Decompose projects r onto the schema's bags.
func Decompose(r *Relation, s *Schema) (*Decomposition, error) {
	return normalize.Decompose(r, s)
}

// AssessDecomposition reports compression and loss of schema s on r.
func AssessDecomposition(r *Relation, s *Schema) (*CompressionReport, error) {
	return normalize.Assess(r, s)
}

// CompressionFrontier assesses candidate schemas and returns the
// Pareto-optimal compression/loss trade-offs.
func CompressionFrontier(r *Relation, schemas []*Schema) ([]*CompressionReport, error) {
	return normalize.Frontier(r, schemas)
}

// ParseSchema parses the CLI schema syntax "A,B;B,C".
func ParseSchema(s string) (*Schema, error) { return jointree.ParseSchema(s) }
