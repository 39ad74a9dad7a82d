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

// cmiTable is the per-separator path FindMVDs replaced, for one relation
// and one maxSep: every separator X of size ≤ maxSep with the attributes
// outside it, and each I(a;b|X) asked whole of
// infotheory.ConditionalMutualInformation, four entropies per pair. Nothing
// is planned. The table is built once and serves every threshold.
type cmiTable struct {
	snap  *engine.Snapshot
	seps  [][]string
	rests [][]string
	cmis  [][]float64 // per separator, pairs (i<j) of its rest in row-major order
}

func newCMITable(r *relation.Relation, maxSep int) (*cmiTable, error) {
	tab := &cmiTable{snap: r.Snapshot()}
	for _, sep := range subsetsUpTo(r.Attrs(), maxSep) {
		rest := exclude(r.Attrs(), sep)
		var cmis []float64
		for i := range rest {
			for j := i + 1; j < len(rest); j++ {
				v, err := infotheory.ConditionalMutualInformation(tab.snap, rest[i:i+1], rest[j:j+1], sep)
				if err != nil {
					return nil, err
				}
				cmis = append(cmis, v)
			}
		}
		tab.seps = append(tab.seps, sep)
		tab.rests = append(tab.rests, rest)
		tab.cmis = append(tab.cmis, cmis)
	}
	return tab, nil
}

// dataCMIs returns a few of the table's CMI values: the smallest, the median
// and the largest. As thresholds they put at least one pair exactly at the
// strict > edge test.
func (tab *cmiTable) dataCMIs() []float64 {
	var vals []float64
	for _, cmis := range tab.cmis {
		vals = append(vals, cmis...)
	}
	if len(vals) == 0 {
		return nil
	}
	sort.Float64s(vals)
	return []float64{vals[0], vals[len(vals)/2], vals[len(vals)-1]}
}

// findMVDs is the oracle's answer at one threshold: each separator's
// candidate comes from the components of its dependence graph, and its J is
// computed on demand.
func (tab *cmiTable) findMVDs(threshold float64) ([]MVDCandidate, error) {
	var out []MVDCandidate
	for k, sep := range tab.seps {
		rest := tab.rests[k]
		if len(rest) < 2 {
			continue
		}
		comps := oracleComponents(rest, tab.cmis[k], threshold)
		if len(comps) < 2 {
			continue
		}
		schema, err := jointree.MVDSchema(sep, comps...)
		if err != nil {
			return nil, err
		}
		j, err := core.JMeasureSchema(tab.snap, schema)
		if err != nil {
			return nil, err
		}
		out = append(out, MVDCandidate{X: sep, Groups: comps, J: j})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].J != out[j].J {
			return out[i].J < out[j].J
		}
		return len(out[i].X) < len(out[j].X)
	})
	return out, nil
}

// oracleComponents partitions rest into connected components of the graph
// with an edge (a,b) whenever I(a;b|sep) > threshold, reading each CMI from
// cmis (pairs in row-major order).
func oracleComponents(rest []string, cmis []float64, threshold float64) [][]string {
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
	k := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if cmis[k] > threshold {
				parent[find(i)] = find(j)
			}
			k++
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
	return out
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

// TestQuickFindMVDsOracleParity compares FindMVDs, which plans every entropy
// it reads and sums each CMI from entropies read once per separator, with
// the per-separator oracle on a copy of the relation that shares no memo
// with it: random and planted relations, maxsep 0–3, thresholds 0, 1e-9 and
// the data's own CMI values, at GOMAXPROCS 1, 2 and 8. The oracle does not
// depend on GOMAXPROCS, so its table is built once per (relation, maxsep);
// each GOMAXPROCS setting runs FindMVDs on a fresh copy of the relation,
// maxsep 0–3 in turn, as a caller would.
func TestQuickFindMVDsOracleParity(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	f := func(seed uint64) bool {
		seed %= 1 << 12
		r, err := mvdTestRelation(seed)
		if err != nil {
			// An empty planted join; nothing to compare.
			return true
		}
		cold := r.Clone()
		type oracleCase struct {
			maxSep    int
			threshold float64
			want      []MVDCandidate
		}
		var cases []oracleCase
		for maxSep := 0; maxSep <= 3 && maxSep < len(r.Attrs()); maxSep++ {
			tab, err := newCMITable(cold, maxSep)
			if err != nil {
				t.Logf("seed %d: oracle: %v", seed, err)
				return false
			}
			for _, th := range append([]float64{0, 1e-9}, tab.dataCMIs()...) {
				want, err := tab.findMVDs(th)
				if err != nil {
					t.Logf("seed %d: oracle: %v", seed, err)
					return false
				}
				cases = append(cases, oracleCase{maxSep, th, want})
			}
		}
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			warm := r.Clone()
			for _, c := range cases {
				got, err := FindMVDs(warm, c.maxSep, c.threshold)
				if err != nil {
					t.Logf("seed %d: FindMVDs: %v", seed, err)
					return false
				}
				if d := diffMVDs(got, c.want); d != "" {
					t.Logf("GOMAXPROCS=%d seed %d maxsep %d threshold %v: %s", procs, seed, c.maxSep, c.threshold, d)
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
