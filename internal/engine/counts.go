package engine

// chunkBits is log2 of chunkLen, the number of group counts per chunk. 32
// counts (256 bytes) per chunk keeps the copy an append pays close to the
// chunks its rows land in while the chunk table stays at 1/32 of the counts
// (EXPERIMENTS.md, *Copy-on-write count chunks*, measures 16, 32 and 64).
const (
	chunkBits = 5
	chunkLen  = 1 << chunkBits
	chunkMask = chunkLen - 1
)

// countChunk is one fixed-size block of a grouping's counts. Chunks are
// shared between the snapshots of a chain, so a published chunk is frozen:
// only refine (before publication) and extendCounts (on the chunks it
// allocated in the same call) write one. ajdlint's snapshotmut analyzer
// flags element writes into a chunk anywhere else.
type countChunk [chunkLen]int

// Counts holds a grouping's per-group counts in fixed-size chunks: the count
// of group g is At(g). Slots at and past Len are zero. Extend shares every
// chunk its appended rows do not land in with the parent's grouping, by
// pointer, and copies only the chunks they do, so an append copies chunks in
// proportion to the batch and its new groups instead of every count. The
// zero value holds no groups.
//
// The chunks live in a few arrays: one backing array from refine or the
// last compaction, plus one slab per Extend since then. A slab stays
// allocated while any of its chunks is still current, so slabbed counts the
// chunks allocated in slabs since the backing array was made, and
// extendCounts compacts every chunk into a fresh backing array once slabbed
// would pass the number of chunks. The memory a grouping's counts pin thus
// stays within about twice their own size.
type Counts struct {
	chunks  []*countChunk
	n       int
	slabbed int
}

// newCounts returns counts for n groups, all zero, together with one flat
// slice of length n over the same memory, which the caller fills before the
// counts are published. The chunks are carved out of a single backing
// array.
func newCounts(n int) (Counts, []int) {
	flat := make([]int, (n+chunkMask)&^chunkMask)
	chunks := make([]*countChunk, len(flat)>>chunkBits)
	for k := range chunks {
		chunks[k] = (*countChunk)(flat[k<<chunkBits:])
	}
	return Counts{chunks: chunks, n: n}, flat[:n]
}

// Len returns the number of groups.
func (c Counts) Len() int { return c.n }

// At returns the count of group g, 0 <= g < Len.
func (c Counts) At(g int) int { return c.chunks[g>>chunkBits][g&chunkMask] }

// Each calls visit with the counts in group order, one chunk at a time:
// concatenated, the slices it passes are the counts of groups 0..Len-1.
// visit must not modify or retain them.
func (c Counts) Each(visit func(part []int)) {
	for k, ch := range c.chunks {
		visit(ch[:min(chunkLen, c.n-k<<chunkBits)])
	}
}

// Flatten returns a fresh slice of the counts indexed by group id.
func (c Counts) Flatten() []int {
	out := make([]int, 0, c.n)
	c.Each(func(part []int) { out = append(out, part...) })
	return out
}

// extendCounts returns parent grown to groups groups with one more tuple in
// the group of each id in ids (the appended rows' group ids). The parent is
// never written: every chunk an id lands in is copied, and every chunk no id
// lands in is shared by pointer. The copies and the chunks of new groups
// come from one slab allocated per call. When that slab would take slabbed
// past the number of chunks, every chunk is copied into the slab instead,
// which becomes the counts' new backing array (see Counts).
func extendCounts(parent Counts, ids []int32, groups int) Counts {
	chunks := make([]*countChunk, (groups+chunkMask)>>chunkBits)
	shared := copy(chunks, parent.chunks)
	// Clear the table slot of each touched parent chunk; the new chunks past
	// the parent's are nil already. Every nil slot then takes a slab chunk.
	owned := len(chunks) - shared
	for _, id := range ids {
		if k := int(id >> chunkBits); k < shared && chunks[k] != nil {
			chunks[k] = nil
			owned++
		}
	}
	slabbed := parent.slabbed + owned
	if slabbed > len(chunks) {
		clear(chunks)
		owned, slabbed = len(chunks), 0
	}
	slab := make([]countChunk, owned)
	for k, ch := range chunks {
		if ch != nil {
			continue
		}
		ch, slab = &slab[0], slab[1:]
		if k < shared {
			*ch = *parent.chunks[k]
		}
		chunks[k] = ch
	}
	for _, id := range ids {
		chunks[id>>chunkBits][id&chunkMask]++
	}
	return Counts{chunks: chunks, n: groups, slabbed: slabbed}
}
