package discovery

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"ajdloss/internal/core"
	"ajdloss/internal/engine"
	"ajdloss/internal/infotheory"
	"ajdloss/internal/jointree"
	"ajdloss/internal/randrel"
	"ajdloss/internal/relation"
	"ajdloss/internal/schemagen"
)

// findMVDsOracle is the per-separator path FindMVDs replaced: each
// separator's candidate comes from separatorMVD, whose dependence graph
// (oracleComponents) asks infotheory.ConditionalMutualInformation for four
// entropies per pair, and whose J is computed on demand. Nothing is
// planned.
func findMVDsOracle(r *relation.Relation, maxSep int, threshold float64) ([]MVDCandidate, error) {
	snap := r.Snapshot()
	attrs := r.Attrs()
	var out []MVDCandidate
	for _, sep := range subsetsUpTo(attrs, maxSep) {
		c, err := separatorMVD(snap, attrs, sep, threshold)
		if err != nil {
			return nil, err
		}
		if c != nil {
			out = append(out, *c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].J != out[j].J {
			return out[i].J < out[j].J
		}
		return len(out[i].X) < len(out[j].X)
	})
	return out, nil
}

// separatorMVD splits the attributes outside sep into the components of
// the conditional-dependence graph given sep; it returns nil when fewer than
// two components (so no MVD) arise.
func separatorMVD(snap *engine.Snapshot, attrs, sep []string, threshold float64) (*MVDCandidate, error) {
	rest := exclude(attrs, sep)
	if len(rest) < 2 {
		return nil, nil
	}
	comps, err := oracleComponents(snap, rest, sep, threshold)
	if err != nil || len(comps) < 2 {
		return nil, err
	}
	schema, err := jointree.MVDSchema(sep, comps...)
	if err != nil {
		return nil, err
	}
	j, err := core.JMeasureSchema(snap, schema)
	if err != nil {
		return nil, err
	}
	return &MVDCandidate{X: sep, Groups: comps, J: j}, nil
}

// oracleComponents partitions rest into connected components of the graph
// with an edge (a,b) whenever I(a;b|sep) > threshold, each CMI computed
// whole by infotheory.ConditionalMutualInformation.
func oracleComponents(r infotheory.Source, rest, sep []string, threshold float64) ([][]string, error) {
	n := len(rest)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			mi, err := infotheory.ConditionalMutualInformation(r, []string{rest[i]}, []string{rest[j]}, sep)
			if err != nil {
				return nil, err
			}
			if mi > threshold {
				parent[find(i)] = find(j)
			}
		}
	}
	groups := make(map[int][]string)
	for i, a := range rest {
		root := find(i)
		groups[root] = append(groups[root], a)
	}
	var roots []int
	for root := range groups {
		roots = append(roots, root)
	}
	sort.Ints(roots)
	out := make([][]string, 0, len(groups))
	for _, root := range roots {
		out = append(out, groups[root])
	}
	return out, nil
}

// diffMVDs describes the first difference between two candidate lists, or
// returns "" when they agree: separators and groups by reflect.DeepEqual,
// J to the bit.
func diffMVDs(got, want []MVDCandidate) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d candidates, want %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i].X, want[i].X) || !reflect.DeepEqual(got[i].Groups, want[i].Groups) {
			return fmt.Sprintf("candidate %d: %v ↠ %v, want %v ↠ %v", i, got[i].X, got[i].Groups, want[i].X, want[i].Groups)
		}
		if math.Float64bits(got[i].J) != math.Float64bits(want[i].J) {
			return fmt.Sprintf("candidate %d (%v): J %v, want %v", i, got[i].X, got[i].J, want[i].J)
		}
	}
	return ""
}

// mvdTestRelation draws a random relation (even seeds) or a planted lossless
// one with optional noise (odd seeds) over 4–6 attributes. One seed in eight
// draws a random relation of 12000 rows, so FindMVDs' plan levels reach the
// engine's fan-out size and run on its pool.
func mvdTestRelation(seed uint64) (*relation.Relation, error) {
	rng := rand.New(rand.NewPCG(seed, 59))
	nAttrs := 4 + rng.IntN(3)
	if seed%2 == 0 {
		attrs := schemagen.AttrNames(nAttrs)
		domains := make([]int, nAttrs)
		for i := range domains {
			domains[i] = 2 + rng.IntN(4)
		}
		n := 10 + rng.IntN(200)
		if seed%8 == 0 {
			for i := range domains {
				domains[i] = 16
			}
			n = 12000
		}
		return randrel.Model{Attrs: attrs, Domains: domains, N: n}.Sample(rng)
	}
	tree, err := schemagen.RandomJoinTree(rng, 2+rng.IntN(2), nAttrs, 0.4)
	if err != nil {
		return nil, err
	}
	domains := schemagen.UniformDomains(tree.Attrs(), 2+rng.IntN(3))
	r, err := schemagen.LosslessRelation(rng, tree, domains, 4+rng.IntN(12))
	if err != nil {
		return nil, err
	}
	if rng.IntN(2) == 0 {
		return schemagen.NoisyRelation(rng, r, domains, 1+rng.IntN(10))
	}
	return r, nil
}

// dataCMIs returns a few of the relation's own values of I(a;b|X) over the
// separators FindMVDs scans: the smallest, the median and the largest. As
// thresholds they put at least one pair exactly at the strict > edge test.
func dataCMIs(t *testing.T, r *relation.Relation, maxSep int) []float64 {
	t.Helper()
	var vals []float64
	for _, sep := range subsetsUpTo(r.Attrs(), maxSep) {
		rest := exclude(r.Attrs(), sep)
		for i := range rest {
			for j := i + 1; j < len(rest); j++ {
				v, err := infotheory.ConditionalMutualInformation(r, rest[i:i+1], rest[j:j+1], sep)
				if err != nil {
					t.Fatal(err)
				}
				vals = append(vals, v)
			}
		}
	}
	if len(vals) == 0 {
		return nil
	}
	sort.Float64s(vals)
	return []float64{vals[0], vals[len(vals)/2], vals[len(vals)-1]}
}

// TestQuickFindMVDsOracleParity compares FindMVDs, which plans every entropy
// it reads and sums each CMI from entropies read once per separator, with
// the per-separator oracle on a copy of the relation that shares no memo
// with it: random and planted relations, maxsep 0–3, thresholds 0, 1e-9 and
// the data's own CMI values, at GOMAXPROCS 1, 2 and 8.
func TestQuickFindMVDsOracleParity(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		f := func(seed uint64) bool {
			seed %= 1 << 12
			r, err := mvdTestRelation(seed)
			if err != nil {
				// An empty planted join; nothing to compare.
				return true
			}
			cold := r.Clone()
			for maxSep := 0; maxSep <= 3 && maxSep < len(r.Attrs()); maxSep++ {
				thresholds := append([]float64{0, 1e-9}, dataCMIs(t, cold, maxSep)...)
				for _, th := range thresholds {
					want, err := findMVDsOracle(cold, maxSep, th)
					if err != nil {
						t.Logf("seed %d: oracle: %v", seed, err)
						return false
					}
					got, err := FindMVDs(r, maxSep, th)
					if err != nil {
						t.Logf("seed %d: FindMVDs: %v", seed, err)
						return false
					}
					if d := diffMVDs(got, want); d != "" {
						t.Logf("GOMAXPROCS=%d seed %d maxsep %d threshold %v: %s", procs, seed, maxSep, th, d)
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatal(err)
		}
	}
}
