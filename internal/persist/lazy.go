package persist

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
)

// LazyCheckpoint is the one checkpoint reader: the header is parsed (schema,
// row count, generation — everything boot-time registration needs) while
// the dictionary and column segments stay undecoded until Materialize. Its
// bytes are the whole file, memory-mapped where the platform allows it
// (so a dataset nobody queries costs a header parse and no heap), read into
// memory where it does not, or the caller's bytes for a replication
// snapshot. This is what turns N-dataset boot recovery from O(total bytes
// decoded) into O(N) opens.
//
// The file descriptor is closed as soon as the bytes are mapped or read, so
// an open LazyCheckpoint holds no descriptor. It is read-only and safe for
// concurrent Materialize calls. Close releases the mapping; Materialize must
// be called before Close.
type LazyCheckpoint struct {
	data   []byte
	mapped bool // data is a mapping that Close must release
	hdr    *CheckpointHeader
}

// OpenLazyCheckpoint opens the checkpoint at path without decoding its data
// segments. A missing file returns (nil, nil) — the dataset has no
// checkpoint. Corruption detectable from the header (bad magic, header CRC,
// segment extents not matching the file size) is an error immediately;
// corruption inside a segment surfaces in Materialize.
func OpenLazyCheckpoint(path string) (*LazyCheckpoint, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("persist: opening checkpoint: %w", err)
	}
	data, mapped, err := mapFile(f)
	f.Close() // a mapping outlives its descriptor
	if err != nil {
		return nil, fmt.Errorf("persist: reading checkpoint: %w", err)
	}
	l, err := readCheckpoint(data)
	if err != nil {
		if mapped {
			munmapFile(data)
		}
		return nil, err
	}
	l.mapped = mapped
	return l, nil
}

// mapFile returns f's whole contents: a read-only mapping when the platform
// and filesystem allow one (mapped is then true), else a heap copy.
func mapFile(f *os.File) (data []byte, mapped bool, err error) {
	st, err := f.Stat()
	if err != nil {
		return nil, false, err
	}
	if data := mmapFile(f, st.Size()); data != nil {
		return data, true, nil
	}
	data, err = io.ReadAll(f)
	return data, false, err
}

// readCheckpoint parses data's header; the segments are decoded by
// Materialize.
func readCheckpoint(data []byte) (*LazyCheckpoint, error) {
	hdr, err := parseCheckpointHeader(data)
	if err != nil {
		return nil, err
	}
	return &LazyCheckpoint{data: data, hdr: hdr}, nil
}

// Header returns the checkpoint's boot-time summary. The returned struct is
// shared; callers must not modify its slices.
func (l *LazyCheckpoint) Header() CheckpointHeader { return *l.hdr }

// segment returns segment k's body after verifying its CRC.
func (l *LazyCheckpoint) segment(k int) ([]byte, error) {
	return openSegment(l.data[l.hdr.segs[k]:l.hdr.segs[k+1]])
}

// Materialize decodes every segment into a full in-memory Checkpoint,
// rejecting a segment whose CRC fails and a column code that names no entry
// of its attribute's dictionary. The result does not reference the
// checkpoint's bytes, so Close may follow immediately.
func (l *LazyCheckpoint) Materialize() (*Checkpoint, error) {
	nattrs := len(l.hdr.Attrs)
	ck := &Checkpoint{
		Name:       l.hdr.Name,
		Attrs:      l.hdr.Attrs,
		Generation: l.hdr.Generation,
		Dicts:      make([][]string, nattrs),
		Columns:    make([][]int32, nattrs),
	}
	for i := range ck.Dicts {
		body, err := l.segment(i)
		if err == nil {
			ck.Dicts[i], err = decodeDictBody(body)
		}
		if err != nil {
			return nil, fmt.Errorf("persist: checkpoint dictionary %q: %w", ck.Attrs[i], err)
		}
	}
	for c := range ck.Columns {
		body, err := l.segment(nattrs + c)
		if err == nil {
			ck.Columns[c], err = decodeColumnBody(body, l.hdr.Rows, len(ck.Dicts[c]))
		}
		if err != nil {
			return nil, fmt.Errorf("persist: checkpoint column %q: %w", ck.Attrs[c], err)
		}
	}
	return ck, nil
}

// Close releases the mapping. Materialize must not be called afterwards.
func (l *LazyCheckpoint) Close() {
	if l.mapped {
		munmapFile(l.data)
	}
	l.data, l.mapped = nil, false
}
