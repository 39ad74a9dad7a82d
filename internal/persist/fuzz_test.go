package persist

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzWALLoad feeds arbitrary bytes to the WAL recovery path: Load must
// never panic, must return only intact records, and must leave the file in a
// state where a second Load sees exactly the same records (truncation is a
// fixpoint) and a fresh append lands on a clean frame boundary.
func FuzzWALLoad(f *testing.F) {
	var valid []byte
	{
		dir := f.TempDir()
		store, err := Open(dir, Options{})
		if err != nil {
			f.Fatal(err)
		}
		ds, err := store.Dataset("default", "seed")
		if err != nil {
			f.Fatal(err)
		}
		ds.AppendWAL(2, [][]string{{"a", "b"}, {"c", ""}})
		ds.AppendWAL(3, [][]string{{"multi\nline", "x,y"}})
		ds.Close()
		valid, err = os.ReadFile(filepath.Join(dir, "default", "seed", walFile))
		if err != nil {
			f.Fatal(err)
		}
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 255, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		store, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ds, err := store.Dataset("default", "d")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "default", "d", walFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, recs, err := ds.Load()
		if err != nil {
			t.Fatalf("Load on arbitrary WAL bytes errored: %v", err)
		}
		_, recs2, err := ds.Load()
		if err != nil || !reflect.DeepEqual(recs, recs2) {
			t.Fatalf("Load not a fixpoint: %v vs %v (err %v)", recs, recs2, err)
		}
		if err := ds.AppendWAL(99, [][]string{{"z"}}); err != nil {
			t.Fatal(err)
		}
		_, recs3, err := ds.Load()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs3) != len(recs)+1 || recs3[len(recs3)-1].Generation != 99 {
			t.Fatalf("append after fuzzed recovery lost: %d vs %d records", len(recs3), len(recs))
		}
		ds.Close()
	})
}

// FuzzCheckpointDecode: arbitrary bytes must never panic the checkpoint
// reader, its two entry points (the bytes themselves, and a file holding
// them) must agree, every code it accepts must name a dictionary entry, and
// anything it accepts must re-encode to a decodable equal.
func FuzzCheckpointDecode(f *testing.F) {
	f.Add(encodeCheckpoint(testCheckpoint()))
	f.Add(v1Checkpoint(testCheckpoint()))
	f.Add([]byte(checkpointMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := decodeBothWays(t, data)
		if err != nil {
			return
		}
		for c, col := range ck.Columns {
			for _, v := range col {
				if v < 1 || int(v) > len(ck.Dicts[c]) {
					t.Fatalf("accepted code %d outside the %d-entry dictionary of %q", v, len(ck.Dicts[c]), ck.Attrs[c])
				}
			}
		}
		back, err := DecodeCheckpoint(encodeCheckpoint(ck))
		if err != nil {
			t.Fatalf("re-encode of accepted checkpoint rejected: %v", err)
		}
		if !reflect.DeepEqual(ck, back) {
			t.Fatalf("checkpoint not a round-trip fixpoint:\n%+v\n%+v", ck, back)
		}
	})
}
