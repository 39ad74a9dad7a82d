// Package bitset provides a compact fixed-universe bit set used for
// attribute sets in hypergraph and join-tree algorithms.
//
// A Set is a value type: the zero value is the empty set over an empty
// universe. Sets can be shared freely across goroutines as long as callers
// do not mutate them (Add, Remove) concurrently.
package bitset

import (
	"math/bits"
	"strconv"
	"strings"
)

const wordBits = 64

// Set is a set of small non-negative integers (attribute indexes).
type Set struct {
	words []uint64
}

// New returns an empty set with capacity for elements in [0, n).
// The set grows automatically if larger elements are added.
func New(n int) Set {
	return Set{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// Of returns the set containing exactly the given elements.
func Of(elems ...int) Set {
	s := Set{}
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// FromSlice returns the set containing the given elements.
func FromSlice(elems []int) Set {
	return Of(elems...)
}

func (s *Set) grow(word int) {
	for len(s.words) <= word {
		s.words = append(s.words, 0)
	}
}

// Add inserts e into the set. It panics if e is negative.
func (s *Set) Add(e int) {
	if e < 0 {
		panic("bitset: negative element")
	}
	w := e / wordBits
	s.grow(w)
	s.words[w] |= 1 << uint(e%wordBits)
}

// Remove deletes e from the set if present.
func (s *Set) Remove(e int) {
	if e < 0 {
		return
	}
	w := e / wordBits
	if w < len(s.words) {
		s.words[w] &^= 1 << uint(e%wordBits)
	}
}

// Contains reports whether e is in the set.
func (s Set) Contains(e int) bool {
	if e < 0 {
		return false
	}
	w := e / wordBits
	return w < len(s.words) && s.words[w]&(1<<uint(e%wordBits)) != 0
}

// Len returns the number of elements in the set.
func (s Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// SubsetOf reports whether every element of s is in t.
func (s Set) SubsetOf(t Set) bool {
	for i, w := range s.words {
		var tw uint64
		if i < len(t.words) {
			tw = t.words[i]
		}
		if w&^tw != 0 {
			return false
		}
	}
	return true
}

// Elems returns the elements of the set in increasing order.
func (s Set) Elems() []int {
	out := make([]int, 0, s.Len())
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, i*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// String renders the set as "{e1, e2, ...}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range s.Elems() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(strconv.Itoa(e))
	}
	b.WriteByte('}')
	return b.String()
}

// Key returns a string usable as a map key identifying the set contents.
// Trailing zero words are ignored so equal sets produce equal keys.
func (s Set) Key() string {
	n := len(s.words)
	for n > 0 && s.words[n-1] == 0 {
		n--
	}
	var b strings.Builder
	b.Grow(n * 8)
	for i := 0; i < n; i++ {
		w := s.words[i]
		for j := 0; j < 8; j++ {
			b.WriteByte(byte(w >> (8 * j)))
		}
	}
	return b.String()
}
