package core

import (
	"math/rand/v2"
	"runtime"
	"testing"
	"testing/quick"

	"ajdloss/internal/join"
	"ajdloss/internal/jointree"
	"ajdloss/internal/randrel"
	"ajdloss/internal/relation"
)

// TestQuickMVDLossParity compares MVDLoss, which counts on the relation's
// snapshot, with the projection oracle |Π_{XY}(R) ⋈ Π_{XZ}(R)| (Project then
// JoinCount on a cold copy) for random splits X ↠ Y|Z, X possibly empty, at
// GOMAXPROCS 1, 2 and 8.
func TestQuickMVDLossParity(t *testing.T) {
	attrs := []string{"A", "B", "C", "D", "E"}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		f := func(seed uint64) bool {
			rng := rand.New(rand.NewPCG(seed, 53))
			var m jointree.MVD
			for i, a := range rng.Perm(len(attrs)) {
				side := rng.IntN(3)
				if i < 2 {
					side = 1 + i // Y and Z are never empty
				}
				switch side {
				case 0:
					m.X = append(m.X, attrs[a])
				case 1:
					m.Y = append(m.Y, attrs[a])
				default:
					m.Z = append(m.Z, attrs[a])
				}
			}
			r := relation.New(attrs...)
			domain := 1 + rng.IntN(3)
			for i, n := 0, 1+rng.IntN(50); i < n; i++ {
				row := make(relation.Tuple, len(attrs))
				for j := range row {
					row[j] = relation.Value(rng.IntN(domain))
				}
				r.Insert(row)
			}
			cold := r.Clone()
			left := cold.MustProject(append(append([]string(nil), m.X...), m.Y...)...)
			right := cold.MustProject(append(append([]string(nil), m.X...), m.Z...)...)
			want := left.JoinCount(right)
			got, err := MVDLoss(r, m)
			if err != nil || got.JoinSize != want || got.N != r.N() {
				t.Logf("GOMAXPROCS=%d seed %d: %v: MVDLoss %+v (%v), oracle join %d", procs, seed, m, got, err, want)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMVDLossParityOnPool repeats the MVDLoss parity check on 40000 rows,
// where the count's plan puts two groupings of every row on one level and
// so fans out on the engine's pool, at GOMAXPROCS 1, 2 and 8.
func TestMVDLossParityOnPool(t *testing.T) {
	attrs := []string{"A", "B", "C", "D", "E"}
	m := jointree.MVD{X: []string{"A"}, Y: []string{"B", "C"}, Z: []string{"D", "E"}}
	r, err := randrel.Model{Attrs: attrs, Domains: []int{12, 12, 12, 12, 12}, N: 40000}.Sample(randrel.NewRand(40000))
	if err != nil {
		t.Fatal(err)
	}
	cold := r.Clone()
	want := cold.MustProject("A", "B", "C").JoinCount(cold.MustProject("A", "D", "E"))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		got, err := MVDLoss(r.Clone(), m)
		if err != nil || got.JoinSize != want {
			t.Fatalf("GOMAXPROCS=%d: MVDLoss %+v (%v), oracle join %d", procs, got, err, want)
		}
	}
}

// TestQuickLossTreeParity compares ComputeLossTree's join size with the
// size of the materialized join of the bag projections of a cold copy of
// the relation: at most 4⁶ tuples here, small enough to build.
func TestQuickLossTreeParity(t *testing.T) {
	f := func(seed uint64) bool {
		tree, r, err := randomInstance(seed, 2+int(seed%4), 6, 2+int(seed%3), 40)
		if err != nil {
			return false
		}
		rels, err := join.Projections(r.Clone(), tree.Schema())
		if err != nil {
			return false
		}
		mat, err := join.MaterializeTree(tree, rels)
		if err != nil {
			return false
		}
		want := int64(mat.N())
		got, err := ComputeLossTree(r, tree)
		if err != nil || got.JoinSize != want {
			t.Logf("seed %d: ComputeLossTree %+v (%v), oracle %d", seed, got, err, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
