package core

import (
	"testing"

	"ajdloss/internal/jointree"
)

// klSink keeps BenchmarkKLFromEmpirical's result live.
var klSink float64

// BenchmarkKLFromEmpirical times the Theorem 3.2 check on a relation in the
// shape of perfbench's fit uploads (8 attributes, 10k rows, domain 5) under a
// random 4-bag join tree. The factorization and its groupings are built
// before the timer starts, so this measures only the per-row sum.
func BenchmarkKLFromEmpirical(b *testing.B) {
	tree, r, err := randomInstance(11, 4, 8, 5, 10000)
	if err != nil {
		b.Fatal(err)
	}
	f, err := NewFactorization(r, jointree.MustRoot(tree, 0))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if klSink, err = f.KLFromEmpirical(); err != nil {
			b.Fatal(err)
		}
	}
}
