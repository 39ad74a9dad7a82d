package discovery

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"ajdloss/internal/fd"
	"ajdloss/internal/relation"
)

func memoTestRow(rng *rand.Rand) relation.Tuple {
	return relation.Tuple{
		relation.Value(rng.Intn(3)), relation.Value(rng.Intn(3)),
		relation.Value(rng.Intn(4)), relation.Value(rng.Intn(2)),
	}
}

var memoTestAttrs = []string{"A", "B", "C", "D"}

// candKey serializes a candidate down to float bits so two candidates compare
// equal iff they are bit-identical.
func candKey(c Candidate) string {
	return fmt.Sprintf("%s|%016x", c.Tree.String(), math.Float64bits(c.J))
}

func mvdKey(ms []MVDCandidate) string {
	var b strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&b, "X=%v G=%v J=%016x\n", m.X, m.Groups, math.Float64bits(m.J))
	}
	return b.String()
}

func fdKey(ds []fd.Discovered) string {
	var b strings.Builder
	for _, d := range ds {
		fmt.Fprintf(&b, "%s g3=%016x h=%016x\n", d.FD.String(), math.Float64bits(d.G3), math.Float64bits(d.H))
	}
	return b.String()
}

// TestMemoParityAcrossAppends drives a memo along a random append sequence
// and asserts every memoized answer — including the materialized-hit repeat —
// is bit-identical to a cold recompute over a from-scratch relation at each
// generation.
func TestMemoParityAcrossAppends(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	base := make([]relation.Tuple, 0, 40)
	for i := 0; i < 40; i++ {
		base = append(base, memoTestRow(rng))
	}
	live := relation.FromRows(memoTestAttrs, base)
	m := NewMemo()
	cfg := fd.DiscoverConfig{MaxLHS: 2, MaxG3: 0.3}

	check := func(step int) {
		cold := relation.FromRows(memoTestAttrs, live.Rows())
		for pass := 0; pass < 2; pass++ { // pass 1 exercises the same-generation hit path
			cand, err := m.ChowLiu(live)
			if err != nil {
				t.Fatal(err)
			}
			wantCand, err := ChowLiu(cold)
			if err != nil {
				t.Fatal(err)
			}
			if candKey(cand) != candKey(wantCand) {
				t.Fatalf("step %d pass %d: ChowLiu diverged:\n memo: %s\n cold: %s",
					step, pass, candKey(cand), candKey(wantCand))
			}
			mvds, err := m.FindMVDs(live, 1, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			wantMVDs, err := FindMVDs(cold, 1, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			if mvdKey(mvds) != mvdKey(wantMVDs) {
				t.Fatalf("step %d pass %d: FindMVDs diverged:\n memo:\n%s cold:\n%s",
					step, pass, mvdKey(mvds), mvdKey(wantMVDs))
			}
			fds, err := m.DiscoverFDs(live, cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantFDs, err := fd.Discover(cold, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if fdKey(fds) != fdKey(wantFDs) {
				t.Fatalf("step %d pass %d: DiscoverFDs diverged:\n memo:\n%s cold:\n%s",
					step, pass, fdKey(fds), fdKey(wantFDs))
			}
		}
		// Single-FD queries, including one no Discover config enumerates.
		for _, f := range []fd.FD{
			{X: []string{"A"}, Y: []string{"B"}},
			{X: []string{"A", "C", "D"}, Y: []string{"B"}},
		} {
			holds, g3, err := m.FD(live, f.X, f.Y)
			if err != nil {
				t.Fatal(err)
			}
			wantHolds, err := fd.Holds(cold, f)
			if err != nil {
				t.Fatal(err)
			}
			wantG3, err := fd.G3Error(cold, f)
			if err != nil {
				t.Fatal(err)
			}
			if holds != wantHolds || math.Float64bits(g3) != math.Float64bits(wantG3) {
				t.Fatalf("step %d: FD(%v): (%v,%v) != cold (%v,%v)", step, f, holds, g3, wantHolds, wantG3)
			}
		}
	}

	check(0)
	for step := 1; step <= 8; step++ {
		batch := make([]relation.Tuple, 1+rng.Intn(8))
		for i := range batch {
			batch[i] = memoTestRow(rng)
		}
		if _, err := live.Append(batch); err != nil {
			t.Fatal(err)
		}
		check(step)
	}
}

// TestMemoCounters pins the counter semantics: first materialization of a
// kind is a cold run, a same-generation repeat is a hit, a post-append
// refresh counts recomputed nodes without new cold runs, a stale view is
// served off-memo as a cold run, and a foreign relation resets the memo.
func TestMemoCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := make([]relation.Tuple, 0, 30)
	for i := 0; i < 30; i++ {
		base = append(base, memoTestRow(rng))
	}
	live := relation.FromRows(memoTestAttrs, base)
	m := NewMemo()

	if _, err := m.ChowLiu(live); err != nil {
		t.Fatal(err)
	}
	if c := m.Counters(); c.ColdRuns != 1 || c.Hits != 0 || c.RecomputedNodes != 0 {
		t.Fatalf("after cold ChowLiu: %+v", c)
	}
	if _, err := m.ChowLiu(live); err != nil {
		t.Fatal(err)
	}
	if c := m.Counters(); c.Hits != 1 || c.ColdRuns != 1 {
		t.Fatalf("after repeat ChowLiu: %+v", c)
	}

	stale := live.View() // pin the current generation before appending
	if _, err := live.Append([]relation.Tuple{memoTestRow(rng), memoTestRow(rng)}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ChowLiu(live); err != nil {
		t.Fatal(err)
	}
	pairs := int64(len(memoTestAttrs) * (len(memoTestAttrs) - 1) / 2)
	if c := m.Counters(); c.RecomputedNodes != pairs || c.ColdRuns != 1 {
		t.Fatalf("after warm refresh (want %d recomputed pairs): %+v", pairs, c)
	}
	if _, err := m.ChowLiu(stale); err != nil {
		t.Fatal(err)
	}
	if c := m.Counters(); c.ColdRuns != 2 {
		t.Fatalf("stale view must be served as a cold off-memo run: %+v", c)
	}

	// FD path: first query recomputes (folds the prefix), repeat hits, a
	// post-append query recomputes only the appended range.
	before := m.Counters()
	if _, _, err := m.FD(live, []string{"A"}, []string{"B"}); err != nil {
		t.Fatal(err)
	}
	if c := m.Counters(); c.RecomputedNodes != before.RecomputedNodes+1 {
		t.Fatalf("first FD query must count one recomputed node: %+v", c)
	}
	if _, _, err := m.FD(live, []string{"A"}, []string{"B"}); err != nil {
		t.Fatal(err)
	}
	if c := m.Counters(); c.Hits != before.Hits+1 {
		t.Fatalf("repeat FD query must hit: %+v", c)
	}

	// A foreign relation (same attrs, unrelated chain) must reset rather than
	// serve from incompatible state. Its engine is built after its append, so
	// it sits at generation 1, below the memo's cursor.
	foreign := relation.FromRows(memoTestAttrs, live.Rows())
	if _, err := foreign.Append([]relation.Tuple{memoTestRow(rng)}); err != nil {
		t.Fatal(err)
	}
	cand, err := m.ChowLiu(foreign)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ChowLiu(relation.FromRows(memoTestAttrs, foreign.Rows()))
	if err != nil {
		t.Fatal(err)
	}
	if candKey(cand) != candKey(want) {
		t.Fatalf("post-reset ChowLiu diverged")
	}
	if c := m.Counters(); c.ColdRuns != 3 {
		t.Fatalf("foreign relation must trigger a cold reset run: %+v", c)
	}
}

// TestMemoForeignRelationSameGeneration gives a memo relation A and then a
// different relation B at the same generation: B must reset the memo, so
// every answer equals a cold recompute of B and each kind counts a cold run,
// and switching back to A resets again rather than reuse B's FD state.
func TestMemoForeignRelationSameGeneration(t *testing.T) {
	rowsOf := func(seed int64, n int, mix func(relation.Tuple) relation.Tuple) []relation.Tuple {
		rng := rand.New(rand.NewSource(seed))
		out := make([]relation.Tuple, n)
		for i := range out {
			out[i] = mix(memoTestRow(rng))
		}
		return out
	}
	a := relation.FromRows(memoTestAttrs, rowsOf(7, 40, func(t relation.Tuple) relation.Tuple { return t }))
	// In B, D is a function of A and C of B, so B's structure is not A's.
	b := relation.FromRows(memoTestAttrs, rowsOf(8, 40, func(t relation.Tuple) relation.Tuple {
		t[3] = t[0] % 2
		t[2] = t[1]
		return t
	}))
	if a.Generation() != b.Generation() {
		t.Fatalf("generations %d and %d, want equal", a.Generation(), b.Generation())
	}
	m := NewMemo()
	cfg := fd.DiscoverConfig{MaxLHS: 2, MaxG3: 0.3}
	f := fd.FD{X: []string{"A"}, Y: []string{"D"}}

	check := func(r *relation.Relation, name string) {
		t.Helper()
		cold := relation.FromRows(memoTestAttrs, r.Rows())
		cand, err := m.ChowLiu(r)
		if err != nil {
			t.Fatal(err)
		}
		wantCand, err := ChowLiu(cold)
		if err != nil {
			t.Fatal(err)
		}
		if candKey(cand) != candKey(wantCand) {
			t.Fatalf("%s: ChowLiu %s, cold %s", name, candKey(cand), candKey(wantCand))
		}
		mvds, err := m.FindMVDs(r, 1, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		wantMVDs, err := FindMVDs(cold, 1, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if mvdKey(mvds) != mvdKey(wantMVDs) {
			t.Fatalf("%s: FindMVDs\n%s cold\n%s", name, mvdKey(mvds), mvdKey(wantMVDs))
		}
		fds, err := m.DiscoverFDs(r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantFDs, err := fd.Discover(cold, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if fdKey(fds) != fdKey(wantFDs) {
			t.Fatalf("%s: DiscoverFDs\n%s cold\n%s", name, fdKey(fds), fdKey(wantFDs))
		}
		holds, g3, err := m.FD(r, f.X, f.Y)
		if err != nil {
			t.Fatal(err)
		}
		wantHolds, err := fd.Holds(cold, f)
		if err != nil {
			t.Fatal(err)
		}
		wantG3, err := fd.G3Error(cold, f)
		if err != nil {
			t.Fatal(err)
		}
		if holds != wantHolds || math.Float64bits(g3) != math.Float64bits(wantG3) {
			t.Fatalf("%s: FD(%v) = (%v, %v), cold (%v, %v)", name, f, holds, g3, wantHolds, wantG3)
		}
	}

	// Per relation: one cold run for each of ChowLiu, FindMVDs and
	// DiscoverFDs, and one hit for FD, whose state DiscoverFDs just advanced.
	for i, step := range []struct {
		r    *relation.Relation
		name string
	}{{a, "A"}, {b, "B"}, {a, "A again"}} {
		check(step.r, step.name)
		if c, k := m.Counters(), int64(i+1); c.ColdRuns != 3*k || c.Hits != k || c.RecomputedNodes != 0 {
			t.Fatalf("after %s: %+v, want %d cold runs and %d hits (a reset)", step.name, c, 3*k, k)
		}
	}
}

// TestMemoConcurrentAppendParity runs readers against generation-pinned views
// while a writer appends, asserting memo answers stay bit-identical to cold
// recomputes of each view's own rows. Run under -race this also checks the
// memo's locking discipline. The base has enough distinct rows (about 18800,
// over domains of 40 and 100) that Chow-Liu's cold plan levels fan out on
// the engine's pool. D = (7A+B) mod 40 except in about one row in 50, so
// A,B → D (and A,D → B, B,D → A) hold within MaxG3 and the FD check
// compares nonzero g₃ values advanced across the appends.
func TestMemoConcurrentAppendParity(t *testing.T) {
	plantedRow := func(rng *rand.Rand) relation.Tuple {
		a, b := rng.Intn(40), rng.Intn(40)
		d := (7*a + b) % 40
		if rng.Intn(50) == 0 {
			d = rng.Intn(40)
		}
		return relation.Tuple{relation.Value(a), relation.Value(b), relation.Value(rng.Intn(100)), relation.Value(d)}
	}
	rng := rand.New(rand.NewSource(5))
	base := make([]relation.Tuple, 0, 20000)
	for i := 0; i < 20000; i++ {
		base = append(base, plantedRow(rng))
	}
	live := relation.FromRows(memoTestAttrs, base)
	m := NewMemo()
	cfg := fd.DiscoverConfig{MaxLHS: 2, MaxG3: 0.3}

	const steps = 12
	views := make(chan *relation.Relation, steps+1)
	views <- live.View()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // single writer, per the relation's append contract
		defer wg.Done()
		defer close(views)
		wrng := rand.New(rand.NewSource(17))
		for i := 0; i < steps; i++ {
			batch := make([]relation.Tuple, 1+wrng.Intn(5))
			for j := range batch {
				batch[j] = plantedRow(wrng)
			}
			if _, err := live.Append(batch); err != nil {
				t.Error(err)
				return
			}
			views <- live.View()
		}
	}()

	var rwg sync.WaitGroup
	for w := 0; w < 4; w++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for v := range views {
				cold := relation.FromRows(memoTestAttrs, v.Rows())
				cand, err := m.ChowLiu(v)
				if err != nil {
					t.Error(err)
					return
				}
				want, err := ChowLiu(cold)
				if err != nil {
					t.Error(err)
					return
				}
				if candKey(cand) != candKey(want) {
					t.Errorf("gen %d: ChowLiu diverged", v.Generation())
					return
				}
				fds, err := m.DiscoverFDs(v, cfg)
				if err != nil {
					t.Error(err)
					return
				}
				wantFDs, err := fd.Discover(cold, cfg)
				if err != nil {
					t.Error(err)
					return
				}
				if len(wantFDs) == 0 {
					t.Errorf("gen %d: no FD within MaxG3; the parity check compares nothing", v.Generation())
					return
				}
				if fdKey(fds) != fdKey(wantFDs) {
					t.Errorf("gen %d: DiscoverFDs diverged", v.Generation())
					return
				}
				if _, _, err := m.FD(v, []string{"C"}, []string{"D"}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	rwg.Wait()
}
