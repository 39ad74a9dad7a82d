package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

const (
	walFile        = "wal.log"
	walTmpFile     = "wal.tmp"
	walFrameHeader = 8 // uint32 payload length + uint32 CRC32 (IEEE) of payload
	// maxWALPayload bounds a single record's payload so a corrupt length
	// prefix cannot ask Load for gigabytes; it comfortably exceeds the
	// service's bounded append bodies.
	maxWALPayload = 1 << 30
)

// WALRecord is one replayable row batch: the raw (validated,
// header-stripped) string records of an append, plus the generation the
// append was about to produce. Replay is idempotent — rows already present
// add nothing and bump nothing — so the generation is a replay-skipping
// hint, not a correctness requirement.
type WALRecord struct {
	Generation int64
	Records    [][]string
}

// DatasetStore is the durable state of one dataset: an open append handle on
// its WAL plus its checkpoint file. Append/Checkpoint/Load are safe for
// concurrent use; the WAL handle and its rotation are guarded by one mutex
// (appends are already serialized by the service's per-dataset writer lock,
// so the mutex only ever contends during compaction).
type DatasetStore struct {
	dir  string
	name string
	sync bool

	mu       sync.Mutex // guards wal handle writes and rotation
	wal      *os.File
	frameBuf []byte // reused frame encode buffer; owned by mu
	// ckptMu serializes checkpoint writers: a manual checkpoint, a
	// size-triggered background compaction and the shutdown sweep may race,
	// and unserialized they would interleave writes into the shared tmp file
	// and publish a corrupt checkpoint.
	ckptMu sync.Mutex

	walBytes atomic.Int64
	lastCkpt atomic.Int64 // generation of the latest checkpoint, 0 if none
}

// WALBytes returns the current WAL size in bytes.
func (d *DatasetStore) WALBytes() int64 { return d.walBytes.Load() }

// LastCheckpoint returns the generation of the latest checkpoint, or 0 when
// none has been written or loaded yet.
func (d *DatasetStore) LastCheckpoint() int64 { return d.lastCkpt.Load() }

// Close closes the WAL append handle. The store must not be appended to
// afterwards.
func (d *DatasetStore) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.wal.Close()
}

// AppendWAL appends one row-batch record to the WAL: a single write of
// [len][crc][payload], fsynced when the store is in Sync mode. gen is the
// generation the batch is expected to produce (see WALRecord).
func (d *DatasetStore) AppendWAL(gen int64, records [][]string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	// Encode into the store's reused buffer: appends are serialized by this
	// mutex, so one buffer per dataset removes the per-append frame and
	// payload allocations from the streaming hot path.
	buf := d.frameBuf
	if cap(buf) < walFrameHeader {
		buf = make([]byte, 0, 1024)
	}
	frame := appendWALPayload(buf[:walFrameHeader], gen, records)
	payload := frame[walFrameHeader:]
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	d.frameBuf = frame
	if _, err := d.wal.Write(frame); err != nil {
		return fmt.Errorf("persist: WAL append: %w", err)
	}
	if d.sync {
		if err := d.wal.Sync(); err != nil {
			return fmt.Errorf("persist: WAL sync: %w", err)
		}
	}
	d.walBytes.Add(int64(len(frame)))
	return nil
}

// Load reads the dataset's durable state for recovery: the latest checkpoint
// (nil when none exists — an interrupted registration) and every intact WAL
// record. It is LoadLazy followed by a full decode of the checkpoint. A
// corrupt checkpoint is an error: it is the data itself, not a replayable
// tail.
func (d *DatasetStore) Load() (*Checkpoint, []WALRecord, error) {
	lck, recs, err := d.LoadLazy()
	if err != nil || lck == nil {
		return nil, recs, err
	}
	defer lck.Close()
	ck, err := lck.Materialize()
	if err != nil {
		return nil, nil, fmt.Errorf("persist: loading dataset %q: %w", d.name, err)
	}
	return ck, recs, nil
}

// LoadLazy reads the dataset's durable state without decoding the
// checkpoint's segments: the checkpoint is opened lazily (header only; see
// LazyCheckpoint) and nil when none exists, while the WAL tail is fully
// scanned — its records must replay on first access, and truncating a torn
// tail (a crash mid-write leaves a frame whose length runs past EOF or
// whose CRC does not match) belongs at boot, before any new append extends
// the file. The caller owns the returned LazyCheckpoint and must Close it
// after materializing.
func (d *DatasetStore) LoadLazy() (*LazyCheckpoint, []WALRecord, error) {
	lck, err := OpenLazyCheckpoint(filepath.Join(d.dir, checkpointFile))
	if err != nil {
		return nil, nil, fmt.Errorf("persist: loading dataset %q: %w", d.name, err)
	}
	if lck != nil {
		d.lastCkpt.Store(lck.Header().Generation)
	}
	recs, err := d.loadWAL()
	if err != nil {
		if lck != nil {
			lck.Close()
		}
		return nil, nil, err
	}
	return lck, recs, nil
}

// loadWAL reads every intact WAL record and truncates a torn tail on disk,
// so the next append (O_APPEND) starts at a frame boundary instead of
// extending garbage.
func (d *DatasetStore) loadWAL() ([]WALRecord, error) {
	walPath := filepath.Join(d.dir, walFile)
	data, err := os.ReadFile(walPath)
	if err != nil {
		return nil, fmt.Errorf("persist: reading WAL: %w", err)
	}
	recs, good := decodeWALFrames(data)
	if good < int64(len(data)) {
		if err := os.Truncate(walPath, good); err != nil {
			return nil, fmt.Errorf("persist: truncating torn WAL tail: %w", err)
		}
	}
	d.walBytes.Store(good)
	return recs, nil
}

// walFrame is one intact WAL frame: its raw bytes (header + payload, for
// compaction to retain verbatim) and the decoded record.
type walFrame struct {
	raw []byte
	rec WALRecord
}

// scanWALFrames parses intact frames from data, returning them and the byte
// offset of the first torn or corrupt frame (== the prefix length that
// survives recovery). Recovery and compaction share this one parser so the
// two can never disagree about which records exist.
func scanWALFrames(data []byte) ([]walFrame, int64) {
	var frames []walFrame
	off := 0
	for {
		if len(data)-off < walFrameHeader {
			return frames, int64(off)
		}
		n := int(binary.BigEndian.Uint32(data[off : off+4]))
		crc := binary.BigEndian.Uint32(data[off+4 : off+8])
		if n > maxWALPayload || len(data)-off-walFrameHeader < n {
			return frames, int64(off)
		}
		payload := data[off+walFrameHeader : off+walFrameHeader+n]
		if crc32.ChecksumIEEE(payload) != crc {
			return frames, int64(off)
		}
		rec, err := decodeWALPayload(payload)
		if err != nil {
			// CRC-valid but undecodable: not a torn write but corruption or a
			// format change; treat like a torn tail and stop replay here.
			return frames, int64(off)
		}
		frames = append(frames, walFrame{raw: data[off : off+walFrameHeader+n], rec: rec})
		off += walFrameHeader + n
	}
}

// decodeWALFrames returns the decoded records of every intact frame.
func decodeWALFrames(data []byte) ([]WALRecord, int64) {
	frames, good := scanWALFrames(data)
	recs := make([]WALRecord, len(frames))
	for i, f := range frames {
		recs[i] = f.rec
	}
	return recs, good
}

// appendWALPayload appends one record's payload to buf: uvarint generation,
// uvarint record count, then per record a uvarint field count and per field
// uvarint length + raw bytes.
func appendWALPayload(buf []byte, gen int64, records [][]string) []byte {
	buf = binary.AppendUvarint(buf, uint64(gen))
	buf = binary.AppendUvarint(buf, uint64(len(records)))
	for _, rec := range records {
		buf = binary.AppendUvarint(buf, uint64(len(rec)))
		for _, f := range rec {
			buf = binary.AppendUvarint(buf, uint64(len(f)))
			buf = append(buf, f...)
		}
	}
	return buf
}

// decodeWALPayload inverts encodeWALPayload, validating every count against
// the remaining payload so corrupt (but CRC-colliding) input cannot force
// huge allocations.
func decodeWALPayload(p []byte) (WALRecord, error) {
	var rec WALRecord
	gen, p, err := uvarint(p)
	if err != nil {
		return rec, err
	}
	rec.Generation = int64(gen)
	nrec, p, err := uvarint(p)
	if err != nil {
		return rec, err
	}
	if nrec > uint64(len(p)) {
		return rec, fmt.Errorf("persist: WAL record count %d exceeds payload", nrec)
	}
	rec.Records = make([][]string, 0, nrec)
	for i := uint64(0); i < nrec; i++ {
		var nf uint64
		if nf, p, err = uvarint(p); err != nil {
			return rec, err
		}
		if nf > uint64(len(p))+1 {
			return rec, fmt.Errorf("persist: WAL field count %d exceeds payload", nf)
		}
		fields := make([]string, 0, nf)
		for j := uint64(0); j < nf; j++ {
			var n uint64
			if n, p, err = uvarint(p); err != nil {
				return rec, err
			}
			if n > uint64(len(p)) {
				return rec, fmt.Errorf("persist: WAL field length %d exceeds payload", n)
			}
			fields = append(fields, string(p[:n]))
			p = p[n:]
		}
		rec.Records = append(rec.Records, fields)
	}
	if len(p) != 0 {
		return rec, fmt.Errorf("persist: %d trailing bytes in WAL payload", len(p))
	}
	return rec, nil
}

func uvarint(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, fmt.Errorf("persist: truncated uvarint")
	}
	return v, p[n:], nil
}

// compactWAL rewrites the WAL keeping only records newer than gen (records
// at or below it are covered by the checkpoint just written). The rewrite is
// atomic — tmp file, fsync, rename — and swaps the append handle under the
// WAL mutex, so a concurrent append lands either in the old file (and is
// re-filtered by the next compaction) or in the new one, never in neither.
func (d *DatasetStore) compactWAL(gen int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	walPath := filepath.Join(d.dir, walFile)
	data, err := os.ReadFile(walPath)
	if err != nil {
		return fmt.Errorf("persist: reading WAL for compaction: %w", err)
	}
	frames, _ := scanWALFrames(data) // a torn tail is dropped by compaction
	kept := make([]byte, 0)
	for _, f := range frames {
		if f.rec.Generation > gen {
			kept = append(kept, f.raw...)
		}
	}
	tmpPath := filepath.Join(d.dir, walTmpFile)
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("persist: creating compacted WAL: %w", err)
	}
	if _, err := tmp.Write(kept); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: writing compacted WAL: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: syncing compacted WAL: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpPath, walPath); err != nil {
		return fmt.Errorf("persist: publishing compacted WAL: %w", err)
	}
	next, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("persist: reopening compacted WAL: %w", err)
	}
	d.wal.Close()
	d.wal = next
	d.walBytes.Store(int64(len(kept)))
	return nil
}
