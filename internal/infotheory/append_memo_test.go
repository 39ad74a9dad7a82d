package infotheory_test

import (
	"testing"

	"ajdloss/internal/infotheory"
	"ajdloss/internal/relation"
)

// TestEntropyMemoAcrossAppends pins the memo interaction of streaming
// appends: Entropy answers from the source's per-attribute-set memo, and an
// Append must refresh (not stale-serve) every memoized value — the engine
// extends its groupings in place and invalidates the entropy memo wholesale,
// so the next query recomputes from the extended counts.
func TestEntropyMemoAcrossAppends(t *testing.T) {
	r := relation.FromRows([]string{"A", "B"}, []relation.Tuple{{1, 1}, {1, 2}, {2, 1}})

	warm := func() (hA, hAB, mi float64) {
		var err error
		if hA, err = infotheory.Entropy(r, "A"); err != nil {
			t.Fatal(err)
		}
		if hAB, err = infotheory.Entropy(r, "A", "B"); err != nil {
			t.Fatal(err)
		}
		if mi, err = infotheory.MutualInformation(r, []string{"A"}, []string{"B"}); err != nil {
			t.Fatal(err)
		}
		return
	}
	before, beforeAB, _ := warm()
	// Memoized: the same query is answered identically (and from the memo).
	if again, _, _ := warm(); again != before {
		t.Fatalf("memoized H(A) unstable: %v vs %v", again, before)
	}

	if _, err := r.Append([]relation.Tuple{{2, 2}, {3, 1}, {3, 2}}); err != nil {
		t.Fatal(err)
	}
	after, afterAB, afterMI := warm()

	// Against a cold rebuild of the concatenated relation.
	rebuilt := relation.FromRows([]string{"A", "B"}, r.Rows())
	wantA, err := infotheory.Entropy(rebuilt, "A")
	if err != nil {
		t.Fatal(err)
	}
	wantAB, err := infotheory.Entropy(rebuilt, "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	wantMI, err := infotheory.MutualInformation(rebuilt, []string{"A"}, []string{"B"})
	if err != nil {
		t.Fatal(err)
	}
	if after != wantA || afterAB != wantAB || afterMI != wantMI {
		t.Fatalf("post-append memo stale: H(A)=%v want %v, H(AB)=%v want %v, I=%v want %v",
			after, wantA, afterAB, wantAB, afterMI, wantMI)
	}
	if after == before || afterAB == beforeAB {
		t.Fatalf("append did not change the distribution: H(A) %v->%v, H(AB) %v->%v (degenerate test)",
			before, after, beforeAB, afterAB)
	}
}
