// Package infotheory implements the information-theoretic measures the paper
// builds on: entropies of empirical distributions of relation projections
// and (conditional) mutual information. The tests check KL divergence,
// functional entropy and the polymatroid axioms against them.
//
// All measures are returned in nats (natural log). Figure 1 of the paper is
// plotted in nats (its asymptote is ln(1.1) ≈ 0.0953 for ρ = 0.1); use Bits
// to convert where binary units are preferred.
package infotheory

import "math"

// Source is anything that exposes an empirical distribution over named
// attributes: a relation instance (uniform over its tuples) or a multiset
// (probability proportional to multiplicity), per the paper's Section 2.2
// definition. N is the total number of tuples counted with multiplicity;
// GroupEntropy returns H(attrs), memoized per attribute set, so the repeated
// overlapping queries of CMI and schema discovery share partition
// refinements and entropies. relation.Relation, relation.Multiset and
// engine.Snapshot implement it.
type Source interface {
	N() int
	GroupEntropy(attrs ...string) (float64, error)
}

// Bits converts a value in nats to bits.
func Bits(nats float64) float64 { return nats / math.Ln2 }

// EntropyFromCounts returns the entropy (nats) of the distribution that
// assigns probability c/total to each count c. It returns 0 for an empty
// input. total must equal the sum of counts; it is passed in because callers
// always know it (the relation size N).
func EntropyFromCounts(counts []int, total int) float64 {
	return EntropyFromCLogC(AddCLogC(0, counts), total)
}

// AddCLogC adds c·log c of each count to s, left to right, and returns the
// sum. Counts held in pieces (the engine's count chunks) sum piece by piece
// in group order, which rounds exactly as one pass over a flat slice does.
func AddCLogC(s float64, counts []int) float64 {
	for _, c := range counts {
		if uint(c) < uint(len(cLogCTable)) {
			s += cLogCTable[c]
		} else {
			s += cLogC(c)
		}
	}
	return s
}

// EntropyFromCLogC returns the entropy (nats) of counts summing to total
// whose Σ c·log c is sum (see AddCLogC): H = log N − (1/N) Σ c·log c,
// numerically stable for uniform-ish counts. It returns 0 when total ≤ 0.
func EntropyFromCLogC(sum float64, total int) float64 {
	if total <= 0 {
		return 0
	}
	return math.Log(float64(total)) - sum/float64(total)
}

// cLogCTable[c] is cLogC(c) for the small counts that dominate group-count
// vectors, so EntropyFromCounts takes one load per group instead of a
// logarithm. It is a static array (not a heap slice) so it adds nothing to
// the live heap.
var cLogCTable [4096]float64

func init() {
	for c := 2; c < len(cLogCTable); c++ {
		cLogCTable[c] = cLogC(c)
	}
}

// cLogC returns c·log c (0 for c ≤ 1). The explicit float64 conversion
// forbids fusing the product into a neighbouring add, so the table and the
// fallback round identically.
func cLogC(c int) float64 {
	if c <= 1 {
		return 0
	}
	fc := float64(c)
	return float64(fc * math.Log(fc))
}

// Entropy returns H(attrs) (nats) under the empirical distribution of r:
// the entropy of the multiset projection of r onto attrs. For attrs equal to
// the full schema of a (set-valued) relation this is log N. The source
// memoizes entropies, so repeated queries answer in O(1).
func Entropy(r Source, attrs ...string) (float64, error) {
	if len(attrs) == 0 {
		// H(∅) = 0: the empty projection is a single constant outcome.
		return 0, nil
	}
	return r.GroupEntropy(attrs...)
}

// MustEntropy is Entropy but panics on unknown attributes.
func MustEntropy(r Source, attrs ...string) float64 {
	h, err := Entropy(r, attrs...)
	if err != nil {
		panic(err)
	}
	return h
}

// union returns the concatenation of attribute lists with duplicates
// removed, preserving first-occurrence order (the paper's XY notation).
func union(lists ...[]string) []string {
	seen := make(map[string]struct{})
	var out []string
	for _, l := range lists {
		for _, a := range l {
			if _, ok := seen[a]; !ok {
				seen[a] = struct{}{}
				out = append(out, a)
			}
		}
	}
	return out
}

// Union exposes attribute-list union for callers assembling bag unions.
func Union(lists ...[]string) []string { return union(lists...) }

// ConditionalEntropy returns H(A | B) = H(AB) − H(B) in nats.
func ConditionalEntropy(r Source, a, b []string) (float64, error) {
	hab, err := Entropy(r, union(a, b)...)
	if err != nil {
		return 0, err
	}
	hb, err := Entropy(r, b...)
	if err != nil {
		return 0, err
	}
	return hab - hb, nil
}

// MutualInformation returns I(A;B) = H(A) + H(B) − H(AB) in nats.
func MutualInformation(r Source, a, b []string) (float64, error) {
	return ConditionalMutualInformation(r, a, b, nil)
}

// ConditionalMutualInformation returns I(A;B|C) per Eq. (4) of the paper:
// I(A;B|C) = H(BC) + H(AC) − H(ABC) − H(C), in nats.
//
// Overlapping attribute sets are permitted; by the chain rule (footnote 1)
// I(A;B|C) = I(A\C; B\C | C), and shared attributes between A and B beyond C
// make the value grow with their entropy, exactly as the entropy formula
// dictates.
func ConditionalMutualInformation(r Source, a, b, c []string) (float64, error) {
	hbc, err := Entropy(r, union(b, c)...)
	if err != nil {
		return 0, err
	}
	hac, err := Entropy(r, union(a, c)...)
	if err != nil {
		return 0, err
	}
	habc, err := Entropy(r, union(a, b, c)...)
	if err != nil {
		return 0, err
	}
	hc, err := Entropy(r, c...)
	if err != nil {
		return 0, err
	}
	v := hbc + hac - habc - hc
	// Clamp tiny negative floating-point residue: CMI is non-negative.
	if v < 0 && v > -1e-9 {
		v = 0
	}
	return v, nil
}

// MustCMI is ConditionalMutualInformation but panics on error.
func MustCMI(r Source, a, b, c []string) float64 {
	v, err := ConditionalMutualInformation(r, a, b, c)
	if err != nil {
		panic(err)
	}
	return v
}
