package persist

import (
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testCheckpoint() *Checkpoint {
	return &Checkpoint{
		Name:       "flights",
		Attrs:      []string{"A", "B", "C"},
		Generation: 7,
		Dicts: [][]string{
			{"x", "y", "with,comma", ""},
			{"1", "2"},
			{"only"},
		},
		Columns: [][]int32{
			{1, 2, 3, 4},
			{1, 1, 2, 2},
			{1, 1, 1, 1},
		},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	store, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := store.Dataset("default", "flights")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	want := testCheckpoint()
	if err := ds.WriteCheckpoint(want); err != nil {
		t.Fatal(err)
	}
	if got := ds.LastCheckpoint(); got != 7 {
		t.Fatalf("LastCheckpoint = %d, want 7", got)
	}
	got, recs, err := ds.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh WAL has %d records", len(recs))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpoint round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestCheckpointEmptyRows(t *testing.T) {
	ck := &Checkpoint{Name: "e", Attrs: []string{"A"}, Generation: 1,
		Dicts: [][]string{{}}, Columns: [][]int32{{}}}
	got, err := decodeBothWays(t, encodeCheckpoint(ck))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 0 || got.Generation != 1 || len(got.Attrs) != 1 {
		t.Fatalf("empty checkpoint round trip: %+v", got)
	}
}

// decodeBothWays reads data through both entry points of the checkpoint
// reader — DecodeCheckpoint on the bytes, and OpenLazyCheckpoint on a file
// holding them followed by Materialize — and fails the test unless the two
// agree: both reject, or both accept deeply equal checkpoints. It returns
// DecodeCheckpoint's result.
func decodeBothWays(t *testing.T, data []byte) (*Checkpoint, error) {
	t.Helper()
	ck, err := DecodeCheckpoint(data)
	path := filepath.Join(t.TempDir(), checkpointFile)
	if werr := os.WriteFile(path, data, 0o644); werr != nil {
		t.Fatal(werr)
	}
	lck, ferr := OpenLazyCheckpoint(path)
	var fck *Checkpoint
	if ferr == nil {
		fck, ferr = lck.Materialize()
		lck.Close()
	}
	if (err == nil) != (ferr == nil) {
		t.Fatalf("bytes and file disagree: DecodeCheckpoint error %v, file error %v", err, ferr)
	}
	if err == nil && !reflect.DeepEqual(ck, fck) {
		t.Fatalf("bytes and file decode differently:\n%+v\n%+v", ck, fck)
	}
	return ck, err
}

func TestCheckpointCorruption(t *testing.T) {
	data := encodeCheckpoint(testCheckpoint())
	if _, err := decodeBothWays(t, data); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, len(checkpointMagic) + 1, len(data) / 2, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x40
		if _, err := decodeBothWays(t, bad); err == nil {
			t.Errorf("flipped byte %d accepted", i)
		}
	}
	for _, n := range []int{0, len(checkpointMagic), len(data) - 3} {
		if _, err := decodeBothWays(t, data[:n]); err == nil {
			t.Errorf("checkpoint truncated to %d bytes accepted", n)
		}
	}
}

// TestCheckpointRejectsCodeOutsideDictionary: column code v decodes to
// Dicts[c][v-1], so a code of 0, one past the dictionary, or a uint32 that
// wraps negative as an int32 names no value. Every read of such a
// checkpoint — bytes, file, Load — fails with an error naming the
// attribute, instead of handing the service a code its encoder would later
// reuse for a different value.
func TestCheckpointRejectsCodeOutsideDictionary(t *testing.T) {
	for _, code := range []int32{0, 3, -1} {
		ck := &Checkpoint{Name: "d", Attrs: []string{"A", "B"}, Generation: 2,
			Dicts:   [][]string{{"a1", "a2"}, {"b1"}},
			Columns: [][]int32{{1, 2}, {1, code}}}
		named := func(how string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), `"B"`) {
				t.Errorf("code %d, %s: error %v, want one naming attribute \"B\"", code, how, err)
			}
		}
		_, err := DecodeCheckpoint(encodeCheckpoint(ck))
		named("DecodeCheckpoint", err)

		store, err := Open(t.TempDir(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		ds, err := store.Dataset("default", "d")
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.WriteCheckpoint(ck); err != nil {
			t.Fatal(err)
		}
		_, _, err = ds.Load()
		named("Load", err)
		lck, _, err := ds.LoadLazy()
		if err != nil {
			t.Fatal(err)
		}
		_, err = lck.Materialize()
		lck.Close()
		named("LoadLazy+Materialize", err)
		ds.Close()
	}
}

// v1Checkpoint renders ck in the retired v1 layout (magic AJDCKPT1, one CRC
// over everything), which no reader accepts any more.
func v1Checkpoint(ck *Checkpoint) []byte {
	buf := []byte("AJDCKPT1")
	buf = appendString(buf, ck.Name)
	buf = binary.AppendUvarint(buf, uint64(ck.Generation))
	buf = binary.AppendUvarint(buf, uint64(len(ck.Attrs)))
	for _, a := range ck.Attrs {
		buf = appendString(buf, a)
	}
	for _, dict := range ck.Dicts {
		buf = binary.AppendUvarint(buf, uint64(len(dict)))
		for _, v := range dict {
			buf = appendString(buf, v)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(ck.NumRows()))
	for _, col := range ck.Columns {
		for _, v := range col {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
	}
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// TestCheckpointRefusesV1: a checkpoint in the v1 format is refused by every
// read — with an error naming the format and, through the store, the
// dataset — never decoded, and never mistaken for a missing checkpoint.
func TestCheckpointRefusesV1(t *testing.T) {
	data := v1Checkpoint(testCheckpoint())
	if _, err := decodeBothWays(t, data); err == nil || !strings.Contains(err.Error(), "AJDCKPT1") {
		t.Fatalf("v1 bytes: error %v, want one naming AJDCKPT1", err)
	}
	dir := t.TempDir()
	store, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := store.Dataset("default", "flights")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if err := os.WriteFile(filepath.Join(dir, "default", "flights", checkpointFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = ds.Load()
	_, _, lerr := ds.LoadLazy()
	for how, err := range map[string]error{"Load": err, "LoadLazy": lerr} {
		if err == nil || !strings.Contains(err.Error(), "AJDCKPT1") || !strings.Contains(err.Error(), `"flights"`) {
			t.Errorf("%s of a v1 checkpoint: error %v, want one naming AJDCKPT1 and the dataset", how, err)
		}
	}
}

func TestWALAppendLoad(t *testing.T) {
	store, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := store.Dataset("default", "d")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if err := ds.WriteCheckpoint(&Checkpoint{Name: "d", Attrs: []string{"A"},
		Generation: 1, Dicts: [][]string{{"a"}}, Columns: [][]int32{{1}}}); err != nil {
		t.Fatal(err)
	}
	batches := [][][]string{
		{{"b"}, {"c"}},
		{{"d"}},
		{{"e,with comma"}, {""}, {"multi\nline"}},
	}
	for i, b := range batches {
		if err := ds.AppendWAL(int64(i+2), b); err != nil {
			t.Fatal(err)
		}
	}
	if ds.WALBytes() == 0 {
		t.Fatal("WALBytes did not grow")
	}
	// Reopen cold, as recovery would.
	ds2, err := store.Dataset("default", "d")
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	ck, recs, err := ds2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil || ck.Generation != 1 {
		t.Fatalf("checkpoint = %+v", ck)
	}
	if len(recs) != len(batches) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(batches))
	}
	for i, rec := range recs {
		if rec.Generation != int64(i+2) || !reflect.DeepEqual(rec.Records, batches[i]) {
			t.Fatalf("record %d = %+v", i, rec)
		}
	}
}

// TestWALTornTail truncates the WAL at every byte boundary of the final
// record and checks recovery always yields a clean prefix: all earlier
// records intact, the torn one dropped, and the on-disk file truncated back
// to the frame boundary so later appends extend a valid log.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := store.Dataset("default", "d")
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.AppendWAL(2, [][]string{{"1", "2"}, {"3", "4"}}); err != nil {
		t.Fatal(err)
	}
	intact := ds.WALBytes()
	if err := ds.AppendWAL(3, [][]string{{"5", "6"}}); err != nil {
		t.Fatal(err)
	}
	ds.Close()
	walPath := filepath.Join(dir, "default", "d", walFile)
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	for cut := intact; cut <= int64(len(full)); cut++ {
		sub := filepath.Join(t.TempDir(), "s")
		st, err := Open(sub, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sd, err := st.Dataset("default", "d")
		if err != nil {
			t.Fatal(err)
		}
		subWAL := filepath.Join(sub, "default", "d", walFile)
		if err := os.WriteFile(subWAL, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, recs, err := sd.Load()
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		wantRecs := 1
		if cut == int64(len(full)) {
			wantRecs = 2
		}
		if len(recs) != wantRecs {
			t.Fatalf("cut %d: %d records, want %d", cut, len(recs), wantRecs)
		}
		if !reflect.DeepEqual(recs[0].Records, [][]string{{"1", "2"}, {"3", "4"}}) {
			t.Fatalf("cut %d: first record damaged: %+v", cut, recs[0])
		}
		// The file was truncated back to the last intact frame.
		fi, err := os.Stat(subWAL)
		if err != nil {
			t.Fatal(err)
		}
		wantSize := intact
		if cut == int64(len(full)) {
			wantSize = int64(len(full))
		}
		if fi.Size() != wantSize {
			t.Fatalf("cut %d: WAL size %d after load, want %d", cut, fi.Size(), wantSize)
		}
		// Appending after a torn-tail recovery lands on a clean boundary.
		if err := sd.AppendWAL(9, [][]string{{"7", "8"}}); err != nil {
			t.Fatal(err)
		}
		sd.Close()
		sd2, err := st.Dataset("default", "d")
		if err != nil {
			t.Fatal(err)
		}
		_, recs2, err := sd2.Load()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs2) != wantRecs+1 || recs2[len(recs2)-1].Generation != 9 {
			t.Fatalf("cut %d: append after torn recovery: %+v", cut, recs2)
		}
		sd2.Close()
	}
}

// TestCompaction: a checkpoint folds covered WAL records away and keeps the
// newer tail.
func TestCompaction(t *testing.T) {
	store, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := store.Dataset("default", "d")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if err := ds.AppendWAL(2, [][]string{{"a"}}); err != nil {
		t.Fatal(err)
	}
	if err := ds.AppendWAL(3, [][]string{{"b"}}); err != nil {
		t.Fatal(err)
	}
	if err := ds.AppendWAL(4, [][]string{{"c"}}); err != nil {
		t.Fatal(err)
	}
	// Checkpoint at generation 3: records 2 and 3 are covered, 4 is not.
	if err := ds.WriteCheckpoint(&Checkpoint{Name: "d", Attrs: []string{"A"},
		Generation: 3, Dicts: [][]string{{"a", "b"}}, Columns: [][]int32{{1, 2}}}); err != nil {
		t.Fatal(err)
	}
	ck, recs, err := ds.Load()
	if err != nil {
		t.Fatal(err)
	}
	if ck.Generation != 3 {
		t.Fatalf("checkpoint generation = %d", ck.Generation)
	}
	if len(recs) != 1 || recs[0].Generation != 4 {
		t.Fatalf("compacted WAL = %+v, want only generation 4", recs)
	}
	// Appends after compaction land in the swapped file.
	if err := ds.AppendWAL(5, [][]string{{"d"}}); err != nil {
		t.Fatal(err)
	}
	_, recs, err = ds.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].Generation != 5 {
		t.Fatalf("post-compaction append lost: %+v", recs)
	}
}

func TestLoadWithoutCheckpoint(t *testing.T) {
	store, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := store.Dataset("default", "d")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	ck, recs, err := ds.Load()
	if err != nil || ck != nil || len(recs) != 0 {
		t.Fatalf("empty dataset store: ck=%v recs=%v err=%v", ck, recs, err)
	}
}

func TestStoreListAndRemove(t *testing.T) {
	store, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"plain", "we/ird na:me", "x-prefixed", ".."} {
		ds, err := store.Dataset("default", name)
		if err != nil {
			t.Fatalf("Dataset(%q): %v", name, err)
		}
		ds.Close()
	}
	names, err := store.List("default")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"..", "plain", "we/ird na:me", "x-prefixed"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("List = %v, want %v", names, want)
	}
	if err := store.Remove("default", "we/ird na:me"); err != nil {
		t.Fatal(err)
	}
	names, _ = store.List("default")
	if len(names) != 3 {
		t.Fatalf("after Remove: %v", names)
	}
}

// TestStoreNamespaces pins that datasets in different namespaces are fully
// disjoint on disk: same dataset name, independent WALs, independent Remove.
func TestStoreNamespaces(t *testing.T) {
	store, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := store.Dataset("tenant-a", "d")
	if err != nil {
		t.Fatal(err)
	}
	b, err := store.Dataset("Tenant B", "d") // unsafe ns name -> hex-encoded dir
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AppendWAL(2, [][]string{{"a"}}); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendWAL(2, [][]string{{"b1"}, {"b2"}}); err != nil {
		t.Fatal(err)
	}
	a.Close()
	b.Close()
	nss, err := store.Namespaces()
	if err != nil || !reflect.DeepEqual(nss, []string{"Tenant B", "tenant-a"}) {
		t.Fatalf("Namespaces = %v (%v)", nss, err)
	}
	if err := store.Remove("tenant-a", "d"); err != nil {
		t.Fatal(err)
	}
	if names, _ := store.List("tenant-a"); len(names) != 0 {
		t.Fatalf("tenant-a still lists %v", names)
	}
	b2, err := store.Dataset("Tenant B", "d")
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	_, recs, err := b2.Load()
	if err != nil || len(recs) != 1 || len(recs[0].Records) != 2 {
		t.Fatalf("tenant B records damaged by tenant-a removal: %v %v", recs, err)
	}
}

// TestMigrateLegacyLayout covers the one-time upgrade: a store written
// before namespaces (dataset dirs at the root) reopens with every dataset
// moved under the default namespace, bytes intact, and a second Open is a
// no-op.
func TestMigrateLegacyLayout(t *testing.T) {
	dir := t.TempDir()
	// Build a legacy layout by hand: <root>/<dataset>/{checkpoint.ckpt,wal.log}.
	mkLegacy := func(encoded string, withCkpt bool) {
		sub := filepath.Join(dir, encoded)
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sub, walFile), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if withCkpt {
			if err := os.WriteFile(filepath.Join(sub, checkpointFile), []byte("stub"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	mkLegacy("flights", true)
	mkLegacy("x-"+hex.EncodeToString([]byte("We/ird")), false)
	// A stray file and an undecodable directory must be left alone.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "UPPER"), 0o755); err != nil {
		t.Fatal(err)
	}

	store, err := Open(dir, Options{DefaultNamespace: "default"})
	if err != nil {
		t.Fatal(err)
	}
	names, err := store.List("default")
	if err != nil || !reflect.DeepEqual(names, []string{"We/ird", "flights"}) {
		t.Fatalf("migrated List = %v (%v)", names, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "flights")); !os.IsNotExist(err) {
		t.Fatalf("legacy dir not moved: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "default", "flights", checkpointFile))
	if err != nil || string(data) != "stub" {
		t.Fatalf("checkpoint bytes damaged by migration: %q %v", data, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "UPPER")); err != nil {
		t.Fatalf("undecodable dir touched: %v", err)
	}

	// Reopen: already-migrated store must be stable (the default namespace
	// dir holds only subdirectories, so it cannot be mistaken for a dataset).
	if _, err := Open(dir, Options{DefaultNamespace: "default"}); err != nil {
		t.Fatal(err)
	}
	store2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	names, err = store2.List("default")
	if err != nil || !reflect.DeepEqual(names, []string{"We/ird", "flights"}) {
		t.Fatalf("List after reopen = %v (%v)", names, err)
	}
}

func TestNameEncoding(t *testing.T) {
	for _, name := range []string{"a", "data-set_1.csv", "über", "a b", "x-abc", ".", "..", "a/b", "Foo", string([]byte{0})} {
		enc := encodeName(name)
		if enc != filepath.Base(enc) || enc == "." || enc == ".." {
			t.Errorf("encodeName(%q) = %q is not a safe path element", name, enc)
		}
		dec, ok := decodeName(enc)
		if !ok || dec != name {
			t.Errorf("decodeName(encodeName(%q)) = %q, %v", name, dec, ok)
		}
	}
	if _, ok := decodeName("x-zz"); ok {
		t.Error("invalid hex decoded")
	}
	// Names differing only in case must not share a directory even on a
	// case-insensitive filesystem.
	if strings.EqualFold(encodeName("Foo"), encodeName("foo")) {
		t.Errorf("case-colliding directories: %q vs %q", encodeName("Foo"), encodeName("foo"))
	}
}
