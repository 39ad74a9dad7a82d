package discovery

import (
	"fmt"
	"math"

	"ajdloss/internal/core"
	"ajdloss/internal/infotheory"
	"ajdloss/internal/jointree"
	"ajdloss/internal/relation"
)

// DissectConfig controls recursive schema dissection.
type DissectConfig struct {
	// MaxSep caps the separator size tried at each split (default 1).
	MaxSep int
	// Threshold is the conditional-mutual-information level (nats) below
	// which two attributes are considered independent given a separator.
	Threshold float64
	// MinBag stops splitting attribute sets at or below this size
	// (default 2).
	MinBag int
}

func (cfg *DissectConfig) normalize() {
	if cfg.MaxSep <= 0 {
		cfg.MaxSep = 1
	}
	if cfg.MinBag < 2 {
		cfg.MinBag = 2
	}
}

// Dissect recursively decomposes r's attribute set into an acyclic schema,
// mirroring the mining loop of Kenig et al. [14]: at each step it searches
// for the separator X (|X| ≤ MaxSep) whose conditional-dependence graph
// over the remaining attributes splits into ≥ 2 components with the smallest
// star-schema J-measure, replaces the current bag by the component bags
// X∪g, and recurses into each. Attribute sets with no admissible split stay
// whole. The assembled schema is validated acyclic (it is by construction;
// validation guards regressions) and returned with its overall J.
func Dissect(r *relation.Relation, cfg DissectConfig) (Candidate, error) {
	cfg.normalize()
	if r.N() == 0 {
		return Candidate{}, fmt.Errorf("discovery: cannot dissect an empty relation")
	}
	if r.Arity() < 2 {
		return Candidate{}, fmt.Errorf("discovery: dissection needs ≥2 attributes")
	}
	bags, err := dissect(r, r.Attrs(), nil, cfg)
	if err != nil {
		return Candidate{}, err
	}
	schema, err := jointree.NewSchema(bags...)
	if err != nil {
		return Candidate{}, err
	}
	schema = schema.Reduced()
	tree, err := jointree.BuildJoinTree(schema)
	if err != nil {
		// By construction the assembled schema is acyclic; a failure here is
		// a bug, surfaced loudly rather than silently falling back.
		return Candidate{}, fmt.Errorf("discovery: dissection produced a cyclic schema: %w", err)
	}
	return candidateFor(r, tree)
}

// dissect returns the bags decomposing the attribute set attrs. iface is the
// *interface* of this branch: the attributes it shares with the rest of the
// schema under construction. Every branch must keep its interface inside a
// single bag, or the assembled hypergraph loses the running intersection
// property and turns cyclic; a split is therefore admissible only if
// iface \ sep lands in one dependence component, and that component inherits
// the interface.
func dissect(r *relation.Relation, attrs, iface []string, cfg DissectConfig) ([][]string, error) {
	if len(attrs) <= cfg.MinBag {
		return [][]string{attrs}, nil
	}
	maxSep := cfg.MaxSep
	if maxSep >= len(attrs)-1 {
		maxSep = len(attrs) - 2
	}
	if maxSep < 0 {
		maxSep = 0
	}
	bestJ := math.Inf(1)
	var bestSep []string
	var bestGroups [][]string
	for _, sep := range subsetsUpTo(attrs, maxSep) {
		rest := exclude(attrs, sep)
		if len(rest) < 2 {
			continue
		}
		comps, err := dependenceComponents(r.Snapshot(), rest, sep, cfg.Threshold)
		if err != nil {
			return nil, err
		}
		if len(comps) < 2 {
			continue
		}
		if !interfaceInOneComponent(iface, sep, comps) {
			continue
		}
		schema, err := jointree.MVDSchema(sep, comps...)
		if err != nil {
			return nil, err
		}
		j, err := core.JMeasureSchema(r, schema)
		if err != nil {
			return nil, err
		}
		if j < bestJ {
			bestJ = j
			bestSep = sep
			bestGroups = comps
		}
	}
	if bestGroups == nil {
		return [][]string{attrs}, nil
	}
	var out [][]string
	for _, g := range bestGroups {
		bag := append(append([]string(nil), bestSep...), g...)
		childIface := intersectLists(bag, infotheory.Union(iface, bestSep))
		sub, err := dissect(r, bag, childIface, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, sub...)
	}
	return out, nil
}

// interfaceInOneComponent reports whether every interface attribute outside
// sep falls into a single component of the split.
func interfaceInOneComponent(iface, sep []string, comps [][]string) bool {
	inSep := make(map[string]bool, len(sep))
	for _, a := range sep {
		inSep[a] = true
	}
	home := -1
	for _, a := range iface {
		if inSep[a] {
			continue
		}
		found := -1
		for ci, comp := range comps {
			for _, b := range comp {
				if a == b {
					found = ci
					break
				}
			}
			if found >= 0 {
				break
			}
		}
		if found < 0 {
			continue // interface attribute absent from this split's scope
		}
		if home < 0 {
			home = found
		} else if home != found {
			return false
		}
	}
	return true
}

// intersectLists returns the elements of a that occur in b, in a's order.
func intersectLists(a, b []string) []string {
	in := make(map[string]bool, len(b))
	for _, x := range b {
		in[x] = true
	}
	var out []string
	for _, x := range a {
		if in[x] {
			out = append(out, x)
		}
	}
	return out
}
