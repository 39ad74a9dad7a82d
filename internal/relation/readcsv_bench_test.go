package relation

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// BenchmarkReadCSV parses one upload in the shape of perfbench's fit
// workload: a header over X1..X8 and 10k rows of integer values drawn from
// a domain of 5 per attribute (10k of 5^8 ≈ 390k cells, so few duplicates).
func BenchmarkReadCSV(b *testing.B) {
	const attrs, rows, domain = 8, 10000, 5
	rng := rand.New(rand.NewSource(16))
	var buf bytes.Buffer
	names := make([]string, attrs)
	for i := range names {
		names[i] = fmt.Sprintf("X%d", i+1)
	}
	buf.WriteString(strings.Join(names, ",") + "\n")
	for i := 0; i < rows; i++ {
		for j := 0; j < attrs; j++ {
			if j > 0 {
				buf.WriteByte(',')
			}
			fmt.Fprintf(&buf, "%d", 1+rng.Intn(domain))
		}
		buf.WriteByte('\n')
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, _, err := ReadCSV(bytes.NewReader(data), true)
		if err != nil {
			b.Fatal(err)
		}
		if rel.N() < rows*9/10 {
			b.Fatalf("parsed %d rows", rel.N())
		}
	}
}
