package engine

import (
	"fmt"
	"math/rand"
	"testing"
)

// countsOf returns chunked counts holding flat.
func countsOf(flat []int) Counts {
	c, f := newCounts(len(flat))
	copy(f, flat)
	return c
}

// chunkTail returns the slots of c's last chunk past Len, which must stay
// zero: extendCounts increments a new group's slot from zero.
func chunkTail(c Counts) []int {
	if c.n&chunkMask == 0 {
		return nil
	}
	return c.chunks[len(c.chunks)-1][c.n&chunkMask:]
}

// TestCountChunkAccessors: At, Each and Flatten agree on group counts that
// end just before, on and just after a chunk boundary.
func TestCountChunkAccessors(t *testing.T) {
	for _, n := range []int{0, 1, chunkLen - 1, chunkLen, chunkLen + 1, 3*chunkLen - 1, 3 * chunkLen, 3*chunkLen + 1} {
		flat := make([]int, n)
		for i := range flat {
			flat[i] = 7*i + 1
		}
		c := countsOf(flat)
		if c.Len() != n || len(c.chunks) != (n+chunkLen-1)/chunkLen {
			t.Fatalf("n=%d: Len %d, %d chunks", n, c.Len(), len(c.chunks))
		}
		for g, want := range flat {
			if got := c.At(g); got != want {
				t.Fatalf("n=%d: At(%d) = %d, want %d", n, g, got, want)
			}
		}
		var parts int
		c.Each(func(part []int) {
			if len(part) == 0 || len(part) > chunkLen {
				t.Fatalf("n=%d: visited a part of %d counts", n, len(part))
			}
			parts++
		})
		if parts != len(c.chunks) || fmt.Sprint(c.Flatten()) != fmt.Sprint(flat) {
			t.Fatalf("n=%d: %d parts, Flatten %v, want %v", n, parts, c.Flatten(), flat)
		}
	}
}

// TestCountChunkBoundaries extends snapshots whose {A} grouping has a group
// count just below, on and just above a chunk boundary, by batches that add
// only new groups, only raise existing groups, or both. Each parent chunk an
// appended row lands in must be a fresh copy in the child, and every other
// chunk the parent's by pointer. The parent's counts (and the zero slots past
// its last group) must survive the Extend and a second Extend of the same
// parent, and each child must equal a cold snapshot of its rows.
func TestCountChunkBoundaries(t *testing.T) {
	attrs := []string{"A", "B"}
	sets := [][]string{{"A"}, {"B"}, {"A", "B"}}
	for _, groups := range []int{chunkLen - 1, chunkLen, chunkLen + 1, 2*chunkLen - 1, 2 * chunkLen, 2*chunkLen + 1} {
		var base []Tuple
		for a := 0; a < groups; a++ {
			base = append(base, Tuple{Value(a), 0})
			if a%3 == 0 {
				base = append(base, Tuple{Value(a), 1})
			}
		}
		batches := []struct {
			name string
			rows []Tuple
		}{
			{"new-only", []Tuple{{Value(groups), 0}, {Value(groups + 1), 0}, {Value(groups + 1), 1}}},
			{"existing", []Tuple{{0, 2}, {Value(groups - 1), 2}, {Value(groups - 1), 3}}},
			{"mixed", []Tuple{{Value(groups / 2), 2}, {Value(groups + chunkLen), 0}}},
		}
		for bi, b := range batches {
			batch := b.rows
			label := fmt.Sprintf("%d groups, %s", groups, b.name)
			parent := rowSnapshot(attrs, base)
			before := make([][]int, len(sets))
			for i, set := range sets {
				if _, err := parent.GroupEntropy(set...); err != nil {
					t.Fatal(err)
				}
				g, _ := parent.Grouping(set...)
				before[i] = g.Counts.Flatten()
			}
			parentFrozen := func(when string) {
				t.Helper()
				for i, set := range sets {
					g, _ := parent.Grouping(set...)
					if got := fmt.Sprint(g.Counts.Flatten()); got != fmt.Sprint(before[i]) {
						t.Fatalf("%s, %s: parent counts of %v = %s, were %v", label, when, set, got, before[i])
					}
					for _, c := range chunkTail(g.Counts) {
						if c != 0 {
							t.Fatalf("%s, %s: parent's %v tail chunk written past its groups: %v", label, when, set, chunkTail(g.Counts))
						}
					}
				}
			}

			child := extendRows(parent, batch)
			parentFrozen("after Extend")
			checkAgainstCold(t, label, child, attrs, append(append([]Tuple(nil), base...), batch...), sets)

			pa, _ := parent.Grouping("A")
			ca, _ := child.Grouping("A")
			if ca.Counts.slabbed == 0 {
				t.Fatalf("%s: a %d-row batch compacted %d chunks", label, len(batch), len(ca.Counts.chunks))
			}
			touched := make(map[int]bool)
			for _, id := range ca.IDs[parent.NumRows():] {
				touched[int(id)/chunkLen] = true
			}
			for k, ch := range pa.Counts.chunks {
				if shared := ca.Counts.chunks[k] == ch; shared == touched[k] {
					t.Fatalf("%s: chunk %d shared=%v, but the batch touched=%v", label, k, shared, touched[k])
				}
			}

			// Re-extend the same parent with the other batches' rows.
			var again []Tuple
			for oi, other := range batches {
				if oi != bi {
					again = append(again, other.rows...)
				}
			}
			again = distinctRows(base, again)
			second := extendRows(parent, again)
			parentFrozen("after a second Extend")
			checkAgainstCold(t, label+", re-extended", second, attrs, append(append([]Tuple(nil), base...), again...), sets)
		}
	}
}

// distinctRows returns the rows of fresh that neither base nor an earlier
// row of fresh holds.
func distinctRows(base, fresh []Tuple) []Tuple {
	seen := make(map[string]bool)
	for _, r := range base {
		seen[fmt.Sprint(r)] = true
	}
	var out []Tuple
	for _, r := range fresh {
		if k := fmt.Sprint(r); !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// checkAgainstCold compares the groupings and entropies of sets on got with
// a cold snapshot of rows.
func checkAgainstCold(t *testing.T, label string, got *Snapshot, attrs []string, rows []Tuple, sets [][]string) {
	t.Helper()
	cold := rowSnapshot(attrs, rows)
	for _, set := range sets {
		g, _ := got.Grouping(set...)
		w, _ := cold.Grouping(set...)
		sameGrouping(t, fmt.Sprintf("%s %v", label, set), g, w)
		hg, _ := got.GroupEntropy(set...)
		hw, _ := cold.GroupEntropy(set...)
		if hg != hw {
			t.Fatalf("%s %v: entropy %v, cold %v", label, set, hg, hw)
		}
	}
}

// TestCountChunkMemoParity extends a snapshot whose memo holds every
// attribute set of four columns, with group counts on both sides of many
// chunk boundaries, by batches of several sizes. After each Extend the
// counts and entropy of every memoized set of the child — not just the sets
// a test names — equal a cold snapshot's, and every chunk the child shares
// with its parent holds the parent's counts.
func TestCountChunkMemoParity(t *testing.T) {
	attrs := []string{"A", "B", "C", "D"}
	rows := randRows(11, 1400, 4, 12)
	cur := rowSnapshot(attrs, rows[:600])
	for mask := 1; mask < 1<<len(attrs); mask++ {
		var set []string
		for c, a := range attrs {
			if mask&(1<<c) != 0 {
				set = append(set, a)
			}
		}
		if _, err := cur.GroupEntropy(set...); err != nil {
			t.Fatal(err)
		}
	}
	n := 600
	for _, size := range []int{1, 7, 32, 95, 300, 365} {
		parent := cur
		cur = extendRows(cur, rows[n:n+size])
		n += size
		cold := rowSnapshot(attrs, rows[:n])
		if len(cur.memo) != len(parent.memo) {
			t.Fatalf("%d rows: child memo holds %d sets, parent %d", n, len(cur.memo), len(parent.memo))
		}
		for key, ent := range cur.memo {
			label := fmt.Sprintf("%d rows, set %v", n, ent.cols)
			sameGrouping(t, label, ent.g, cold.grouping(ent.cols))
			if h, w := cur.groupEntropy(ent.cols, true), cold.groupEntropy(ent.cols, true); h != w {
				t.Fatalf("%s: entropy %v, cold %v", label, h, w)
			}
			pc := parent.memo[key].g.Counts
			for k, ch := range pc.chunks {
				if ent.g.Counts.chunks[k] != ch {
					continue
				}
				for j := k * chunkLen; j < min(pc.Len(), (k+1)*chunkLen); j++ {
					if ent.g.Counts.At(j) != pc.At(j) {
						t.Fatalf("%s: shared chunk %d differs at group %d", label, k, j)
					}
				}
			}
		}
	}
}

// TestCountChunkCopyVolume: an Extend whose rows all land in one chunk of a
// many-chunk grouping copies that chunk and shares the rest.
func TestCountChunkCopyVolume(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const groups = 40 * chunkLen
	var base []Tuple
	for a := 0; a < groups; a++ {
		base = append(base, Tuple{Value(a), Value(rng.Intn(4))})
	}
	parent := rowSnapshot([]string{"A", "B"}, base)
	pa, _ := parent.Grouping("A")
	child := extendRows(parent, []Tuple{{5, 9}, {6, 9}, {chunkLen - 1, 9}})
	ca, _ := child.Grouping("A")
	copied := 0
	for k, ch := range pa.Counts.chunks {
		if ca.Counts.chunks[k] != ch {
			copied++
		}
	}
	if copied != 1 {
		t.Fatalf("Extend copied %d of %d chunks, want 1", copied, len(pa.Counts.chunks))
	}
}

// TestCountChunkCompaction extends a 40-chunk grouping again and again by
// rows that raise three existing groups in three chunks. Each Extend copies
// those three chunks into its slab until the slabs since the last backing
// array would hold more chunks than the grouping has; that Extend copies
// every chunk into one fresh backing array, shares none with its parent and
// starts counting slabs again. The parent never changes, and every child
// equals a cold snapshot.
func TestCountChunkCompaction(t *testing.T) {
	const chunks = 40
	attrs := []string{"A", "B"}
	var rows []Tuple
	for a := 0; a < chunks*chunkLen; a++ {
		rows = append(rows, Tuple{Value(a), 0})
	}
	cur := rowSnapshot(attrs, rows)
	if _, err := cur.GroupEntropy("A"); err != nil {
		t.Fatal(err)
	}
	slabbed, compactions := 0, 0
	for j := 1; j <= 30; j++ {
		var batch []Tuple
		for i := 0; i < 3; i++ {
			batch = append(batch, Tuple{Value(((3*j + i) % chunks) * chunkLen), Value(j)})
		}
		parent := cur
		pa, _ := parent.Grouping("A")
		before := pa.Counts.Flatten()
		cur = extendRows(parent, batch)
		rows = append(rows, batch...)
		ca, _ := cur.Grouping("A")
		shared := 0
		for k, ch := range pa.Counts.chunks {
			if ca.Counts.chunks[k] == ch {
				shared++
			}
		}
		if slabbed += 3; slabbed > chunks {
			slabbed = 0
			compactions++
			if shared != 0 {
				t.Fatalf("extend %d: compaction still shares %d chunks with the parent", j, shared)
			}
		} else if shared != chunks-3 {
			t.Fatalf("extend %d: %d of %d chunks shared, want %d", j, shared, chunks, chunks-3)
		}
		if ca.Counts.slabbed != slabbed {
			t.Fatalf("extend %d: slabbed = %d, want %d", j, ca.Counts.slabbed, slabbed)
		}
		if fmt.Sprint(pa.Counts.Flatten()) != fmt.Sprint(before) {
			t.Fatalf("extend %d changed the parent's counts", j)
		}
		checkAgainstCold(t, fmt.Sprintf("extend %d", j), cur, attrs, rows, [][]string{{"A"}})
	}
	if compactions != 2 {
		t.Fatalf("%d compactions in 30 extends, want 2", compactions)
	}
}
