package relation

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
)

// FuzzReadCSV feeds arbitrary bytes through CSV ingestion in both header
// modes. The invariants of the panic-proof ingestion path: ReadCSV never
// panics, a malformed header (duplicate/empty/whitespace-only cells) never
// produces a relation, and every accepted relation is internally consistent
// and equal to what the encode-then-Insert oracle builds: the same error or
// the same attributes, rows and dictionaries.
func FuzzReadCSV(f *testing.F) {
	f.Add([]byte("A,B\n1,2\n3,4\n"), true)
	f.Add([]byte("A,A\n1,2\n"), true)     // duplicate header cell
	f.Add([]byte("A, ,B\n1,2,3\n"), true) // whitespace-only header cell
	f.Add([]byte("a,b\n1\n"), true)       // ragged record
	f.Add([]byte("1,2\n3,4\n"), false)    // headerless
	f.Add([]byte(`"x,y",z`+"\n1,2\n"), true)
	f.Add([]byte(""), true)
	f.Add([]byte("A,B\nab,seven77\nab\x00,eight888\nab,seven77\n日本語,é\n"), true) // packed-key edges
	// One-pass encoding edges: \r\n line ends, 7- and 8-byte fields next to
	// their prefixes, empty fields, a record longer than the header, and a
	// dictionary grown past its first packed-table resize.
	f.Add([]byte("A,B\r\nsevenxx,eightxxx\r\nseven,eight\r\n\r\nsevenxx,eightxxy\r\n"), true)
	f.Add([]byte("A,B,C\n,,\nx,,\n,,y\n,\"\",\n,,\n"), true)
	f.Add([]byte("A,B\n1,2\n3,4,5\n"), true)
	f.Add([]byte("1,2\n3,4,5,6\n"), false)
	f.Add([]byte("A,B\n1,x\n2,x\n3,x\n4,x\n5,x\n6,x\n7,x\n8,x\n9,x\n10,x\n11,y\n3,x\n12,y\n"), true)
	f.Fuzz(func(t *testing.T, data []byte, header bool) {
		rel, enc, err := ReadCSV(bytes.NewReader(data), header)
		wantRel, wantEnc, wantErr := readCSVOracle(bytes.NewReader(bytes.TrimPrefix(data, []byte(utf8BOM))), header)
		if !sameError(err, wantErr) {
			t.Fatalf("error %v, oracle %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if rel == nil || enc == nil {
			t.Fatal("nil relation/encoder without error")
		}
		if header {
			if verr := ValidateHeader(rel.Attrs()); verr != nil {
				t.Fatalf("malformed header %q accepted: %v", rel.Attrs(), verr)
			}
		}
		for i := 0; i < rel.N(); i++ {
			if len(rel.Row(i)) != rel.Arity() {
				t.Fatalf("row %d has %d fields, arity %d", i, len(rel.Row(i)), rel.Arity())
			}
		}
		if !slices.Equal(rel.Attrs(), wantRel.Attrs()) ||
			!reflect.DeepEqual(rel.Rows(), wantRel.Rows()) ||
			!reflect.DeepEqual(enc.Dictionaries(), wantEnc.Dictionaries()) {
			t.Fatalf("attrs %q / %q\nrows %v / %v\ndicts %q / %q",
				rel.Attrs(), wantRel.Attrs(), rel.Rows(), wantRel.Rows(), enc.Dictionaries(), wantEnc.Dictionaries())
		}
		// The engine must come up on whatever was ingested.
		if rel.Arity() > 0 {
			if _, err := rel.GroupCounts(rel.Attrs()[0]); err != nil {
				t.Fatalf("grouping accepted relation: %v", err)
			}
		}
	})
}

// FuzzAppendRows replays the service's streaming-append path on arbitrary
// bytes: ingest a base CSV, warm the engine, append an arbitrary batch
// through the dictionary encoder, and require (a) no panic, (b) validated
// batches never fail, and (c) exact group-count and entropy parity with a
// from-scratch rebuild of the concatenated relation.
func FuzzAppendRows(f *testing.F) {
	f.Add([]byte("A,B\n1,2\n3,4\n"), []byte("5,6\n1,2\n"))
	f.Add([]byte("A,B,C\nx,y,z\n"), []byte("x,y,z\nq,w,e\nragged\n"))
	f.Add([]byte("A\n1\n"), []byte(""))
	f.Add([]byte("A,B\n1,2\n"), []byte("\"un,quoted\",2\n"))
	f.Fuzz(func(t *testing.T, baseCSV, batchCSV []byte) {
		rel, enc, err := ReadCSV(bytes.NewReader(baseCSV), true)
		if err != nil {
			return
		}
		// Warm the full-schema grouping so the append has a memo to extend.
		if _, err := rel.Grouping(rel.Attrs()...); err != nil {
			t.Fatal(err)
		}
		records, err := ReadCSVRows(bytes.NewReader(batchCSV))
		if err != nil {
			return
		}
		var tuples []Tuple
		for _, rec := range records {
			if len(rec) != rel.Arity() {
				continue // the service rejects these with a row-numbered error
			}
			tp, err := enc.Encode(rec)
			if err != nil {
				t.Fatalf("encode after arity check: %v", err)
			}
			tuples = append(tuples, tp)
		}
		before := rel.N()
		added, err := rel.Append(tuples)
		if err != nil {
			t.Fatalf("append of arity-validated tuples: %v", err)
		}
		if rel.N() != before+added {
			t.Fatalf("N = %d after adding %d to %d", rel.N(), added, before)
		}
		rebuilt := FromRows(rel.Attrs(), rel.Rows())
		for _, attrs := range [][]string{rel.Attrs(), rel.Attrs()[:1]} {
			got, err := rel.GroupCounts(attrs...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := rebuilt.GroupCounts(attrs...)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("counts(%v) = %v, rebuild %v", attrs, got, want)
			}
			gh, err := rel.GroupEntropy(attrs...)
			if err != nil {
				t.Fatal(err)
			}
			wh, err := rebuilt.GroupEntropy(attrs...)
			if err != nil {
				t.Fatal(err)
			}
			if gh != wh {
				t.Fatalf("entropy(%v) = %v, rebuild %v", attrs, gh, wh)
			}
		}
	})
}
