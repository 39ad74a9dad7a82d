// Package engine is a fixture stand-in for the real ajdloss/internal/engine:
// same import path (the fixture tree shadows the module), same Snapshot
// shape, but with an exported field so cross-package mutation fixtures can
// compile. The real Snapshot's fields are unexported — which is itself part
// of the defense — so the cross-package violation below is only expressible
// here.
package engine

// Snapshot mimics the real frozen view: fields set on the construction path,
// a memo map filled lazily (map fills are not field writes).
type Snapshot struct {
	Gen  int64
	Rows int
	memo map[string]float64
}

// NewSnapshotAt is on the constructor allowlist: these writes are legal.
func NewSnapshotAt(gen int64) *Snapshot {
	s := &Snapshot{memo: make(map[string]float64)}
	s.Gen = gen // allowed: constructor owns the unpublished value
	return s
}

// Extend is on the allowlist: it writes fields of the child it is building.
func (s *Snapshot) Extend(rows int) *Snapshot {
	child := NewSnapshotAt(s.Gen + 1)
	child.Rows = rows // allowed: Extend builds the child before publication
	return child
}

// Memoize fills the lazy memo map. A map fill through a field is the
// designed cache pattern, not a field write: no diagnostic.
func (s *Snapshot) Memoize(k string, v float64) {
	s.memo[k] = v
}

// Reset is NOT on the allowlist: in-package mutation is still mutation.
func (s *Snapshot) Reset() {
	s.Gen = 0 // want `write to engine\.Snapshot field Gen outside the constructor/Extend path`
}

// countChunk mimics the real engine's shared count chunk.
type countChunk [4]int

// Counts mimics the real engine's chunked counts.
type Counts struct{ chunks []*countChunk }

// Each passes the counts to visit one chunk at a time.
func (c Counts) Each(visit func(part []int)) {
	for _, ch := range c.chunks {
		visit(ch[:])
	}
}

// newCounts returns zero counts and a flat slice over their chunk memory.
func newCounts() (Counts, []int) {
	flat := make([]int, 4)
	return Counts{chunks: []*countChunk{(*countChunk)(flat)}}, flat
}

// refine is on the chunk-write allowlist: it fills chunks it has not
// published yet, directly or through newCounts' flat slice.
func refine(chunks []*countChunk, g int) Counts {
	chunks[g>>2][g&3]++
	c, flat := newCounts()
	flat[g&3]++
	return c
}

// extendCounts is on the chunk-write allowlist: it copies a parent chunk
// into one it owns and writes only that.
func extendCounts(parent, own *countChunk) {
	*own = *parent
	own[1] += 2
}

// bump writes into chunks that may be shared with a published snapshot.
func bump(chunks []*countChunk, slab []countChunk, g int) {
	chunks[g>>2][g&3]++          // want `write into an engine count chunk outside refine/extendCounts`
	slab[0][1] = 5               // want `write into an engine count chunk outside refine/extendCounts`
	*chunks[0] = countChunk{}    // want `write into an engine count chunk outside refine/extendCounts`
	copy(chunks[1][:], []int{1}) // want `write into an engine count chunk outside refine/extendCounts`
}

// scale writes through slices that alias chunk memory: the visitor's
// parameter and newCounts' flat slice.
func scale(c Counts) {
	c.Each(func(part []int) {
		part[0] *= 2         // want `write into an engine count chunk outside refine/extendCounts`
		copy(part, []int{1}) // want `write into an engine count chunk outside refine/extendCounts`
	})
	_, flat := newCounts()
	flat[1] = 3 // want `write into an engine count chunk outside refine/extendCounts`
}

// total only reads the visitor's slices, and rebinding the parameter
// writes no chunk: no diagnostic.
func total(c Counts) int {
	var s int
	c.Each(func(part []int) {
		for _, v := range part {
			s += v
		}
		part = nil
		_ = part
	})
	return s
}

// readChunk only reads chunks, and copies out of one: no diagnostic.
func readChunk(chunks []*countChunk, g int) []int {
	out := make([]int, 4)
	copy(out, chunks[0][:])
	local := []int{chunks[g>>2][g&3]}
	local[0]++
	return append(out, local...)
}
