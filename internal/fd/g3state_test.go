package fd

import (
	"math"
	"math/rand"
	"testing"

	"ajdloss/internal/relation"
)

// TestG3StateBitIdentical advances per-FD states across a random append
// sequence and checks every g₃ is bit-identical to a cold G3Error against a
// rebuilt relation at each generation — including FDs whose state is created
// mid-chain (folding from row 0 against a later snapshot).
func TestG3StateBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	attrs := []string{"A", "B", "C", "D"}
	row := func() relation.Tuple {
		return relation.Tuple{
			relation.Value(rng.Intn(3)), relation.Value(rng.Intn(3)),
			relation.Value(rng.Intn(4)), relation.Value(rng.Intn(2)),
		}
	}
	base := make([]relation.Tuple, 0, 30)
	for i := 0; i < 30; i++ {
		base = append(base, row())
	}
	live := relation.FromRows(attrs, base)

	fds := []FD{
		{X: []string{"A"}, Y: []string{"B"}},
		{X: []string{"A", "C"}, Y: []string{"D"}},
		{X: nil, Y: []string{"C"}},
		{X: []string{"D"}, Y: []string{"A", "B"}},
	}
	states := make([]*G3State, len(fds))
	for i := range states {
		states[i] = &G3State{}
	}
	late := &G3State{} // created after the first appends

	check := func(gen int) {
		cold := relation.FromRows(attrs, live.Rows())
		for i, f := range fds {
			got, ok, err := states[i].Advance(live, f)
			if err != nil || !ok {
				t.Fatalf("gen %d: Advance(%v): ok=%v err=%v", gen, f, ok, err)
			}
			want, err := G3Error(cold, f)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("gen %d: %v: incremental g3 %v != cold %v", gen, f, got, want)
			}
		}
	}

	check(0)
	for step := 0; step < 8; step++ {
		batch := make([]relation.Tuple, rng.Intn(9))
		for i := range batch {
			batch[i] = row()
		}
		if _, err := live.Append(batch); err != nil {
			t.Fatal(err)
		}
		check(step + 1)
		if step == 3 {
			// A state born mid-chain folds the full prefix once, then advances.
			f := FD{X: []string{"B"}, Y: []string{"C"}}
			got, ok, err := late.Advance(live, f)
			if err != nil || !ok {
				t.Fatalf("late state: ok=%v err=%v", ok, err)
			}
			want, err := G3Error(relation.FromRows(attrs, live.Rows()), f)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("late state: %v != %v", got, want)
			}
		}
	}

	// A source older than the state must be refused, state untouched.
	st := &G3State{}
	if _, ok, err := st.Advance(live, fds[0]); err != nil || !ok {
		t.Fatalf("warm-up: ok=%v err=%v", ok, err)
	}
	rowsBefore := st.Rows()
	stale := relation.FromRows(attrs, live.Rows()[:10])
	if _, ok, _ := st.Advance(stale, fds[0]); ok {
		t.Fatal("Advance against a stale (shorter) source must report ok=false")
	}
	if st.Rows() != rowsBefore {
		t.Fatalf("stale Advance mutated the state: rows %d → %d", rowsBefore, st.Rows())
	}
}

// TestDiscoverWithMatchesDiscover: DiscoverWith under a G3State-backed
// evaluator must reproduce Discover exactly (candidates, order, G3 and H
// bits) at every generation of an append sequence.
func TestDiscoverWithMatchesDiscover(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	attrs := []string{"A", "B", "C", "D"}
	row := func() relation.Tuple {
		return relation.Tuple{
			relation.Value(rng.Intn(2)), relation.Value(rng.Intn(3)),
			relation.Value(rng.Intn(3)), relation.Value(rng.Intn(2)),
		}
	}
	base := make([]relation.Tuple, 0, 25)
	for i := 0; i < 25; i++ {
		base = append(base, row())
	}
	live := relation.FromRows(attrs, base)
	cfg := DiscoverConfig{MaxLHS: 2, MaxG3: 0.3}
	states := make(map[string]*G3State)

	for step := 0; step < 6; step++ {
		got, err := DiscoverWith(live, cfg, func(f FD) (float64, error) {
			st := states[f.String()]
			if st == nil {
				st = &G3State{}
				states[f.String()] = st
			}
			g3, ok, err := st.Advance(live, f)
			if !ok && err == nil {
				t.Fatalf("unexpected stale source for %v", f)
			}
			return g3, err
		})
		if err != nil {
			t.Fatal(err)
		}
		want, err := Discover(relation.FromRows(attrs, live.Rows()), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if Canonical(got) != Canonical(want) {
			t.Fatalf("step %d: FD sets differ:\n got: %q\nwant: %q", step, Canonical(got), Canonical(want))
		}
		for i := range got {
			if math.Float64bits(got[i].G3) != math.Float64bits(want[i].G3) ||
				math.Float64bits(got[i].H) != math.Float64bits(want[i].H) {
				t.Fatalf("step %d: %v measures differ: g3 %v vs %v, h %v vs %v",
					step, got[i].FD, got[i].G3, want[i].G3, got[i].H, want[i].H)
			}
		}
		batch := make([]relation.Tuple, 4+rng.Intn(5))
		for i := range batch {
			batch[i] = row()
		}
		if _, err := live.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
}

// TestG3ErrorAndFreshState: G3Error is a fresh state's first Advance, so the
// two agree on an exact FD (holds, g₃ 0), on a violated one (g₃ strictly
// between 0 and 1), and on a weighted source, where rows and tuples differ.
func TestG3ErrorAndFreshState(t *testing.T) {
	// B = A, so A → B holds; C is noisy, so C → A does not.
	var rows []relation.Tuple
	for i := 0; i < 40; i++ {
		rows = append(rows, relation.Tuple{relation.Value(i % 8), relation.Value(i % 8), relation.Value(i % 5)})
	}
	r := relation.FromRows([]string{"A", "B", "C"}, rows)
	for _, c := range []struct {
		f     FD
		holds bool
	}{
		{FD{X: []string{"A"}, Y: []string{"B"}}, true},
		{FD{X: []string{"C"}, Y: []string{"A"}}, false},
	} {
		holds, err := Holds(r, c.f)
		if err != nil || holds != c.holds {
			t.Fatalf("Holds(%v) = %v, %v; want %v", c.f, holds, err, c.holds)
		}
		g3, err := G3Error(r, c.f)
		if err != nil {
			t.Fatal(err)
		}
		if c.holds && g3 != 0 || !c.holds && (g3 <= 0 || g3 >= 1) {
			t.Fatalf("g3(%v) = %v with holds %v", c.f, g3, c.holds)
		}
		st, ok, err := new(G3State).Advance(r, c.f)
		if err != nil || !ok || math.Float64bits(st) != math.Float64bits(g3) {
			t.Fatalf("fresh state g3(%v) = %v (ok %v, %v), G3Error %v", c.f, st, ok, err, g3)
		}
	}

	// City 10 holds customer 1 three times and customer 2 twice; City 20
	// holds customer 3 once. Keeping each city's majority removes 2 of 6.
	m := relation.NewMultiset("Cust", "City")
	m.Add(relation.Tuple{1, 10}, 3)
	m.Add(relation.Tuple{2, 10}, 2)
	m.Add(relation.Tuple{3, 20}, 1)
	g3, err := G3Error(m, FD{X: []string{"City"}, Y: []string{"Cust"}})
	if err != nil || math.Abs(g3-2.0/6) > 1e-12 {
		t.Fatalf("weighted g3 = %v, %v; want 1/3", g3, err)
	}
}
