package ajdloss

// Property-based parity harness for streaming appends: testing/quick draws
// random relations and random append-batch sequences, and after every batch
// the incrementally maintained engine must agree *exactly* — group counts,
// memoized entropies, FD satisfaction — with a from-scratch rebuild over the
// concatenated rows. The workload is warmed and re-queried between batches,
// so the memoized groupings are genuinely maintained mid-stream, never
// rebuilt cold.

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ajdloss/internal/fd"
	"ajdloss/internal/infotheory"
	"ajdloss/internal/relation"
	"ajdloss/internal/schemagen"
)

// appendScenario is one random streaming scenario: a base relation plus a
// sequence of append batches over a small random schema.
type appendScenario struct {
	Arity   int
	Domain  int
	Base    []relation.Tuple
	Batches [][]relation.Tuple
}

// Generate implements quick.Generator. Schemas stay small (arity ≤ 4) so the
// harness can afford to check every attribute subset after every batch.
// Batches draw from twice the base's domain, so appended rows bring values
// and parent groups the base never had: they spill into the overflow maps of
// the refinement probes Extend hands down the chain.
func (appendScenario) Generate(r *rand.Rand, _ int) reflect.Value {
	s := appendScenario{Arity: 2 + r.Intn(3), Domain: 2 + r.Intn(3)}
	draw := func(n, domain int) []relation.Tuple {
		rows := make([]relation.Tuple, n)
		for i := range rows {
			t := make(relation.Tuple, s.Arity)
			for c := range t {
				t[c] = relation.Value(r.Intn(domain) + 1)
			}
			rows[i] = t
		}
		return rows
	}
	s.Base = draw(1+r.Intn(25), s.Domain)
	for b := 1 + r.Intn(4); b > 0; b-- {
		s.Batches = append(s.Batches, draw(r.Intn(12), 2*s.Domain)) // empty batches allowed
	}
	return reflect.ValueOf(s)
}

// subsets returns every non-empty subset of attrs.
func subsets(attrs []string) [][]string {
	var out [][]string
	for mask := 1; mask < 1<<len(attrs); mask++ {
		var sub []string
		for i, a := range attrs {
			if mask&(1<<i) != 0 {
				sub = append(sub, a)
			}
		}
		out = append(out, sub)
	}
	return out
}

func TestQuickAppendParity(t *testing.T) {
	property := func(s appendScenario) bool {
		attrs := schemagen.AttrNames(s.Arity)
		subs := subsets(attrs)
		streamed := relation.FromRows(attrs, s.Base)
		// Warm every subset grouping and entropy so each batch has a full
		// memo to maintain.
		query := func(rel *relation.Relation) ([][]int, []float64, []bool) {
			counts := make([][]int, len(subs))
			ents := make([]float64, len(subs))
			for i, sub := range subs {
				c, err := rel.GroupCounts(sub...)
				if err != nil {
					t.Fatal(err)
				}
				counts[i] = c
				h, err := infotheory.Entropy(rel, sub...)
				if err != nil {
					t.Fatal(err)
				}
				ents[i] = h
			}
			var holds []bool
			for _, x := range attrs {
				for _, y := range attrs {
					if x == y {
						continue
					}
					ok, err := fd.Holds(rel, fd.FD{X: []string{x}, Y: []string{y}})
					if err != nil {
						t.Fatal(err)
					}
					holds = append(holds, ok)
				}
			}
			return counts, ents, holds
		}
		query(streamed)
		for bi, batch := range s.Batches {
			if _, err := streamed.Append(batch); err != nil {
				t.Fatal(err)
			}
			rebuilt := relation.FromRows(attrs, streamed.Rows())
			gotC, gotH, gotF := query(streamed)
			wantC, wantH, wantF := query(rebuilt)
			for i := range subs {
				if !reflect.DeepEqual(gotC[i], wantC[i]) {
					t.Logf("batch %d, subset %v: counts %v vs rebuild %v", bi, subs[i], gotC[i], wantC[i])
					return false
				}
				// Incremental and rebuilt engines see counts in the same
				// group order, so the entropies are bit-identical.
				if gotH[i] != wantH[i] {
					t.Logf("batch %d, subset %v: entropy %v vs rebuild %v", bi, subs[i], gotH[i], wantH[i])
					return false
				}
			}
			if !reflect.DeepEqual(gotF, wantF) {
				t.Logf("batch %d: fd.Holds %v vs rebuild %v", bi, gotF, wantF)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 250, // acceptance floor is 200 random append sequences
		Rand:     rand.New(rand.NewSource(20230612)),
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}
