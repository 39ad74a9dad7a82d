package relation

import (
	"hash/maphash"
	"math/bits"
	"slices"
)

// rowTable is the open-addressed hash set that deduplicates a row slice its
// owner keeps: every row of that slice is recorded, each by slot value
// index+1 (0 marks an empty slot), and lookups hash the probe row's codes
// and compare it against rows[j]. The table stores 4 bytes per slot and no
// copy of any row. Every method takes the owner's rows, which must be the
// slice the table was built over plus only rows that insert accepted.
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

// newRowTable indexes rows, which must be distinct.
func newRowTable(rows []Tuple) rowTable {
	var tb rowTable
	tb.rebuild(rows, tableSize(len(rows)))
	return tb
}

// rebuild re-indexes the distinct rows into size slots.
func (tb *rowTable) rebuild(rows []Tuple, size int) {
	tb.slots = make([]int32, size)
	mask := uint64(size - 1)
	for j, row := range rows {
		i := rowHash(row) & mask
		for tb.slots[i] != 0 {
			i = (i + 1) & mask
		}
		tb.slots[i] = int32(j + 1)
	}
}

// find returns the index of the row of rows equal to t, or -1.
func (tb *rowTable) find(rows []Tuple, t Tuple) int {
	if len(tb.slots) == 0 {
		return -1
	}
	mask := uint64(len(tb.slots) - 1)
	for i := rowHash(t) & mask; tb.slots[i] != 0; i = (i + 1) & mask {
		if j := tb.slots[i] - 1; slices.Equal(rows[j], t) {
			return int(j)
		}
	}
	return -1
}

// insert records t as rows[len(rows)] unless rows already holds an equal
// row. It returns the index of the equal row and false, or len(rows) and
// true; in the latter case the caller must append t (or a copy) to rows
// before the next call.
func (tb *rowTable) insert(rows []Tuple, t Tuple) (int, bool) {
	n := len(rows)
	if 2*(n+1) > len(tb.slots) {
		tb.rebuild(rows, tableSize(n+1))
	}
	mask := uint64(len(tb.slots) - 1)
	i := rowHash(t) & mask
	for ; tb.slots[i] != 0; i = (i + 1) & mask {
		if j := tb.slots[i] - 1; slices.Equal(rows[j], t) {
			return int(j), false
		}
	}
	tb.slots[i] = int32(n + 1)
	return n, true
}
