package relation

import (
	"hash/maphash"
	"math/bits"
)

// rowTable is the open-addressed hash set that deduplicates the rows its
// owner keeps in columns: every row is recorded by slot value index+1 (0
// marks an empty slot), and lookups hash the probe row's codes and compare
// it against cols[c][j] for every column c. The table stores 4 bytes per
// slot and no copy of any row. Every method takes the owner's columns and
// row count, which must be those the table was built over plus only rows
// that insert accepted.
type rowTable struct {
	slots []int32
}

// rowHashKeys key rowHash for the life of the process. Random keys keep an
// upload from being crafted so that its rows collide in every process,
// which would make deduplication quadratic.
var rowHashKeys = func() [2]uint64 {
	seed := maphash.MakeSeed()
	return [2]uint64{maphash.Bytes(seed, []byte{0}), maphash.Bytes(seed, []byte{1}) | 1}
}()

// rowHash hashes a row's codes, two codes per 64-bit multiply-fold step.
func rowHash(row []Value) uint64 {
	h, k := rowHashKeys[0], rowHashKeys[1]
	i := 0
	for ; i+1 < len(row); i += 2 {
		hi, lo := bits.Mul64(h^(uint64(uint32(row[i]))|uint64(uint32(row[i+1]))<<32), k)
		h = hi ^ lo
	}
	if i < len(row) {
		hi, lo := bits.Mul64(h^uint64(uint32(row[i])), k)
		h = hi ^ lo
	}
	return h
}

// tableSize is the slot count for n rows: a power of two at least 2n, so
// the load factor stays at or below one half.
func tableSize(n int) int {
	size := 8
	for size < 2*n {
		size *= 2
	}
	return size
}

// newRowTable indexes the first n rows of cols, which must be distinct.
func newRowTable(cols [][]Value, n int) rowTable {
	var tb rowTable
	tb.rebuild(cols, n, tableSize(n))
	return tb
}

// rebuild re-indexes the first n rows of cols, which are distinct, into
// size slots.
func (tb *rowTable) rebuild(cols [][]Value, n, size int) {
	tb.slots = make([]int32, size)
	mask := uint64(size - 1)
	row := make(Tuple, len(cols))
	for j := 0; j < n; j++ {
		i := rowHash(rowAt(cols, j, row)) & mask
		for tb.slots[i] != 0 {
			i = (i + 1) & mask
		}
		tb.slots[i] = int32(j + 1)
	}
}

// rowAt copies row j of cols into dst and returns it.
func rowAt(cols [][]Value, j int, dst Tuple) Tuple {
	for c, col := range cols {
		dst[c] = col[j]
	}
	return dst
}

// rowEqual reports whether row j of cols equals t.
func rowEqual(cols [][]Value, j int32, t Tuple) bool {
	for c, col := range cols {
		if col[j] != t[c] {
			return false
		}
	}
	return true
}

// find returns the index of the row of cols equal to t, or -1.
func (tb *rowTable) find(cols [][]Value, t Tuple) int {
	if len(tb.slots) == 0 {
		return -1
	}
	mask := uint64(len(tb.slots) - 1)
	for i := rowHash(t) & mask; tb.slots[i] != 0; i = (i + 1) & mask {
		if j := tb.slots[i] - 1; rowEqual(cols, j, t) {
			return int(j)
		}
	}
	return -1
}

// insert records t as row n unless the first n rows of cols already hold
// an equal row. It returns the index of the equal row and false, or n and
// true; in the latter case the caller must store t as row n of cols before
// the next call.
func (tb *rowTable) insert(cols [][]Value, n int, t Tuple) (int, bool) {
	if 2*(n+1) > len(tb.slots) {
		tb.rebuild(cols, n, tableSize(n+1))
	}
	mask := uint64(len(tb.slots) - 1)
	i := rowHash(t) & mask
	for ; tb.slots[i] != 0; i = (i + 1) & mask {
		if j := tb.slots[i] - 1; rowEqual(cols, j, t) {
			return int(j), false
		}
	}
	tb.slots[i] = int32(n + 1)
	return n, true
}
