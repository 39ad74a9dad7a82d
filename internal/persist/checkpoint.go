package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
)

const (
	checkpointFile    = "checkpoint.ckpt"
	checkpointTmpFile = "checkpoint.tmp"
	// checkpointMagic opens the one on-disk format (v2): a CRC-protected
	// header with per-segment lengths, followed by independently
	// CRC-protected dictionary and column segments. The header alone is
	// enough to answer schema/row-count/generation queries, and each segment
	// decodes independently — which is what makes lazy, mmap-backed recovery
	// possible (see LazyCheckpoint).
	checkpointMagic = "AJDCKPT2"
)

// Checkpoint is the binary columnar serialization of one frozen dataset
// state: the schema, the per-attribute dictionaries (value v decodes to
// Dicts[i][v-1], exactly the Encoder's reverse tables, so a reader rejects
// any code outside 1..len(Dicts[i])), the distinct rows in stored order as
// one slice per column, and the snapshot generation. Row order is part of
// the contract: group IDs — and with them every memoized partition and the
// byte-exact JSON the service emits — are deterministic in stored row
// order, which is how recovery reproduces pre-crash responses bit for bit.
type Checkpoint struct {
	Name       string
	Attrs      []string
	Generation int64
	Dicts      [][]string // per attribute: dictionary strings, value order
	Columns    [][]int32  // per attribute: Columns[c][row], all len NumRows
}

// NumRows returns the number of rows in the checkpoint.
func (c *Checkpoint) NumRows() int {
	if len(c.Columns) == 0 {
		return 0
	}
	return len(c.Columns[0])
}

// CheckpointHeader is the cheap-to-read summary a checkpoint stores ahead of
// its data segments: everything recovery needs to register a dataset
// (schema, row count, generation) without decoding a single column.
type CheckpointHeader struct {
	Name       string
	Attrs      []string
	Generation int64
	Rows       int

	// segs holds the segment boundaries in the file: segment k (the
	// dictionaries in attribute order, then the columns; each body + CRC)
	// is bytes [segs[k], segs[k+1]).
	segs []int
}

// WriteCheckpoint atomically publishes ck as the dataset's latest checkpoint
// (tmp file, fsync, rename) and then compacts the WAL, dropping records the
// checkpoint already covers. Readers are never involved: ck is serialized
// from an immutable frozen view.
func (d *DatasetStore) WriteCheckpoint(ck *Checkpoint) error {
	// Serialize whole checkpoint writes: concurrent writers (manual +
	// background compaction) would interleave in the shared tmp file and
	// publish garbage.
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	tmpPath := filepath.Join(d.dir, checkpointTmpFile)
	f, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("persist: creating checkpoint: %w", err)
	}
	data := encodeCheckpoint(ck)
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("persist: writing checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("persist: syncing checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpPath, filepath.Join(d.dir, checkpointFile)); err != nil {
		return fmt.Errorf("persist: publishing checkpoint: %w", err)
	}
	d.lastCkpt.Store(ck.Generation)
	return d.compactWAL(ck.Generation)
}

// sealSegment appends the CRC32 trailer that makes a segment independently
// verifiable.
func sealSegment(body []byte) []byte {
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(body))
	return append(body, crc[:]...)
}

// openSegment verifies and strips a segment's CRC32 trailer.
func openSegment(seg []byte) ([]byte, error) {
	if len(seg) < 4 {
		return nil, fmt.Errorf("persist: checkpoint segment shorter than its CRC")
	}
	body, trailer := seg[:len(seg)-4], seg[len(seg)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(trailer) {
		return nil, fmt.Errorf("persist: checkpoint segment CRC mismatch")
	}
	return body, nil
}

func encodeDictBody(dict []string) []byte {
	size := binary.MaxVarintLen64
	for _, s := range dict {
		size += binary.MaxVarintLen64 + len(s)
	}
	body := make([]byte, 0, size)
	body = binary.AppendUvarint(body, uint64(len(dict)))
	for _, s := range dict {
		body = appendString(body, s)
	}
	return body
}

func decodeDictBody(body []byte) ([]string, error) {
	n, p, err := uvarint(body)
	if err != nil {
		return nil, err
	}
	if n > uint64(len(p))+1 {
		return nil, fmt.Errorf("persist: checkpoint dictionary size %d exceeds segment", n)
	}
	dict := make([]string, n)
	for i := range dict {
		if dict[i], p, err = readString(p); err != nil {
			return nil, err
		}
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("persist: %d trailing bytes in dictionary segment", len(p))
	}
	return dict, nil
}

func encodeColumnBody(col []int32) []byte {
	body := make([]byte, 0, 2*len(col)+8)
	for _, v := range col {
		body = binary.AppendUvarint(body, uint64(uint32(v)))
	}
	return body
}

// decodeColumnBody decodes a column of rows codes, each of which must name
// an entry of its attribute's dictSize-entry dictionary.
func decodeColumnBody(body []byte, rows, dictSize int) ([]int32, error) {
	if rows > len(body) { // every code takes at least one byte
		return nil, fmt.Errorf("persist: %d rows exceed the %d-byte column segment", rows, len(body))
	}
	col := make([]int32, rows)
	p := body
	var err error
	for i := range col {
		var v uint64
		if v, p, err = uvarint(p); err != nil {
			return nil, err
		}
		if v == 0 || v > uint64(dictSize) || v > math.MaxInt32 {
			return nil, fmt.Errorf("persist: code %d outside the %d-entry dictionary", v, dictSize)
		}
		col[i] = int32(v)
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("persist: %d trailing bytes in column segment", len(p))
	}
	return col, nil
}

// encodeCheckpoint renders the v2 format:
//
//	magic | uvarint(headerLen) | header | CRC32(header) | segments
//
// The header carries name/generation/schema/row count plus each segment's
// length (segments are packed in order: all dictionaries, then all columns),
// so a reader can locate any segment from the header alone. Every segment
// carries its own CRC32 trailer and decodes independently.
func encodeCheckpoint(ck *Checkpoint) []byte {
	nattrs := len(ck.Attrs)
	dictSegs := make([][]byte, nattrs)
	colSegs := make([][]byte, nattrs)
	total := 0
	for i := range dictSegs {
		var dict []string
		if i < len(ck.Dicts) {
			dict = ck.Dicts[i]
		}
		dictSegs[i] = sealSegment(encodeDictBody(dict))
		total += len(dictSegs[i])
	}
	for c := range colSegs {
		var col []int32
		if c < len(ck.Columns) {
			col = ck.Columns[c]
		}
		colSegs[c] = sealSegment(encodeColumnBody(col))
		total += len(colSegs[c])
	}
	hdr := make([]byte, 0, 256)
	hdr = appendString(hdr, ck.Name)
	hdr = binary.AppendUvarint(hdr, uint64(ck.Generation))
	hdr = binary.AppendUvarint(hdr, uint64(nattrs))
	for _, a := range ck.Attrs {
		hdr = appendString(hdr, a)
	}
	hdr = binary.AppendUvarint(hdr, uint64(ck.NumRows()))
	for _, s := range dictSegs {
		hdr = binary.AppendUvarint(hdr, uint64(len(s)))
	}
	for _, s := range colSegs {
		hdr = binary.AppendUvarint(hdr, uint64(len(s)))
	}
	buf := make([]byte, 0, len(checkpointMagic)+binary.MaxVarintLen64+len(hdr)+4+total)
	buf = append(buf, checkpointMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(hdr)))
	buf = append(buf, hdr...)
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(hdr))
	buf = append(buf, crc[:]...)
	for _, s := range dictSegs {
		buf = append(buf, s...)
	}
	for _, s := range colSegs {
		buf = append(buf, s...)
	}
	return buf
}

// parseCheckpointHeader parses the header of a whole v2 checkpoint and
// locates every segment from it. The segments must cover the rest of data
// exactly; each one's CRC is checked only when it is decoded. A file in any
// other checkpoint format is refused with an error naming that format.
func parseCheckpointHeader(data []byte) (*CheckpointHeader, error) {
	m := len(checkpointMagic)
	if len(data) < m || string(data[:m]) != checkpointMagic {
		if len(data) >= m && string(data[:m-1]) == checkpointMagic[:m-1] {
			return nil, fmt.Errorf("persist: checkpoint format %q is not readable; this version reads only %q", data[:m], checkpointMagic)
		}
		return nil, fmt.Errorf("persist: not a checkpoint file")
	}
	hlen, p, err := uvarint(data[m:])
	if err != nil || hlen > uint64(len(p)) || uint64(len(p))-hlen < 4 {
		return nil, fmt.Errorf("persist: truncated checkpoint header")
	}
	body, p := p[:hlen], p[hlen:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(p) {
		return nil, fmt.Errorf("persist: checkpoint header CRC mismatch")
	}
	h := &CheckpointHeader{}
	if h.Name, body, err = readString(body); err != nil {
		return nil, err
	}
	gen, body, err := uvarint(body)
	if err != nil {
		return nil, err
	}
	h.Generation = int64(gen)
	nattrs, body, err := uvarint(body)
	if err != nil {
		return nil, err
	}
	if nattrs > uint64(len(body)) {
		return nil, fmt.Errorf("persist: checkpoint attr count %d exceeds header", nattrs)
	}
	h.Attrs = make([]string, nattrs)
	for i := range h.Attrs {
		if h.Attrs[i], body, err = readString(body); err != nil {
			return nil, err
		}
	}
	nrows, body, err := uvarint(body)
	if err != nil {
		return nil, err
	}
	if nrows > 1<<40 {
		return nil, fmt.Errorf("persist: checkpoint row count %d out of range", nrows)
	}
	h.Rows = int(nrows)
	h.segs = make([]int, 2*nattrs+1)
	h.segs[0] = len(data) - len(p) + 4
	for k := 1; k < len(h.segs); k++ {
		var n uint64
		if n, body, err = uvarint(body); err != nil {
			return nil, err
		}
		if n < 4 {
			return nil, fmt.Errorf("persist: checkpoint segment %d shorter than its CRC", k-1)
		}
		if n > uint64(len(data)-h.segs[k-1]) {
			return nil, fmt.Errorf("persist: checkpoint segment %d runs past the end of the file", k-1)
		}
		h.segs[k] = h.segs[k-1] + int(n)
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("persist: %d trailing bytes in checkpoint header", len(body))
	}
	if end := h.segs[len(h.segs)-1]; end != len(data) {
		return nil, fmt.Errorf("persist: checkpoint segments end at %d, file size %d", end, len(data))
	}
	return h, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func readString(p []byte) (string, []byte, error) {
	n, p, err := uvarint(p)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(p)) {
		return "", nil, fmt.Errorf("persist: string length %d exceeds payload", n)
	}
	return string(p[:n]), p[n:], nil
}
