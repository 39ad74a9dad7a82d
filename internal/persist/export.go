package persist

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// This file is the replication export surface of a dataset store: the WAL is
// already a CRC-framed stream of row batches, so a follower can tail it
// verbatim — the primary serves raw frames, the follower re-verifies every
// CRC and applies the records through the same replay path recovery uses.
//
// The cursor is a *generation*, never a byte offset. Compaction rewrites the
// WAL file (tmp + rename) and drops records a checkpoint already covers, so
// byte offsets silently shift under a tailing reader; generations are
// monotone per dataset and survive the swap. Every export call re-reads the
// file by path — an export racing the compaction rename sees either the old
// file or the new one, both complete and internally consistent, never a torn
// mix — and filters by generation.

// ErrCompacted is returned by ExportWAL when the requested cursor lies behind
// the compaction horizon: records in (from, checkpoint] have been folded into
// the checkpoint and no longer exist as WAL frames. The caller must
// re-bootstrap from a snapshot instead of tailing.
var ErrCompacted = errors.New("persist: WAL compacted past requested generation")

// ExportWAL returns the raw frame bytes ([len][crc][payload], verbatim) of
// every intact WAL record whose generation is strictly greater than from,
// plus the highest generation among them (= from when no frame qualifies).
//
// Safe against concurrent appends and compactions: a torn final frame (an
// append mid-write) is simply not served yet, and the compaction horizon is
// checked *after* the file is read — WriteCheckpoint publishes the new
// checkpoint generation before it compacts, so a read that observed the
// compacted file always sees the advanced horizon and reports ErrCompacted
// instead of silently skipping the folded records.
func (d *DatasetStore) ExportWAL(from int64) ([]byte, int64, error) {
	data, err := os.ReadFile(filepath.Join(d.dir, walFile))
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			return nil, 0, fmt.Errorf("persist: reading WAL for export: %w", err)
		}
		data = nil
	}
	if ckpt := d.lastCkpt.Load(); from < ckpt {
		return nil, ckpt, fmt.Errorf("%w: cursor %d, checkpoint %d", ErrCompacted, from, ckpt)
	}
	frames, _ := scanWALFrames(data) // a torn tail is not yet acknowledged state
	var out []byte
	maxGen := from
	for _, f := range frames {
		if f.rec.Generation <= from {
			continue
		}
		out = append(out, f.raw...)
		if f.rec.Generation > maxGen {
			maxGen = f.rec.Generation
		}
	}
	return out, maxGen, nil
}

// EncodeCheckpoint serializes a checkpoint in the v2 on-disk format. The
// replication bootstrap ships exactly these bytes over HTTP, so a follower
// gets the same CRC-protected segments a local recovery would read.
func EncodeCheckpoint(ck *Checkpoint) []byte { return encodeCheckpoint(ck) }

// DecodeCheckpoint decodes a checkpoint from its bytes through the same
// reader recovery uses on a checkpoint file (see LazyCheckpoint), so a
// replication snapshot is held to exactly the checks a local recovery is.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	l, err := readCheckpoint(data)
	if err != nil {
		return nil, err
	}
	return l.Materialize()
}

// DecodeWALStream decodes a replication WAL transfer. Unlike crash recovery,
// a transfer has no legitimate torn tail — the primary only ever serves whole
// intact frames — so any trailing or corrupt bytes are an error, not a
// truncation point.
func DecodeWALStream(data []byte) ([]WALRecord, error) {
	recs, good := decodeWALFrames(data)
	if good != int64(len(data)) {
		return nil, fmt.Errorf("persist: %d trailing bytes in WAL stream are not an intact frame", int64(len(data))-good)
	}
	return recs, nil
}
