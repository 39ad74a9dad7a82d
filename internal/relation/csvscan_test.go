package relation

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// csvReaderPrefix is ReadCSVPrefix(data, false) through encoding/csv at the
// grammar csvScanner implements (FieldsPerRecord = -1), with the byte count
// taken from InputOffset.
func csvReaderPrefix(data []byte) ([][]string, int64, error) {
	cr := csv.NewReader(bytes.NewReader(data))
	cr.FieldsPerRecord = -1
	var out [][]string
	var consumed int64
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return out, int64(len(data)), nil
		}
		if err != nil {
			return out, consumed, err
		}
		out = append(out, rec)
		consumed = cr.InputOffset()
	}
}

// sameError reports whether a and b are both nil, or both non-nil with the
// same text and the same *csv.ParseError-ness.
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	var pa, pb *csv.ParseError
	return a.Error() == b.Error() && errors.As(a, &pa) == errors.As(b, &pb)
}

var csvScannerSeeds = []string{
	"A,B\n1,2\n3,4\n",
	`"a,b",c` + "\n" + `d,"e,f"` + "\n",       // quoted commas
	`"a""b",""""` + "\n",                      // "" escapes
	"\"multi\nline\",x\n\"two\r\nlines\"\r\n", // newlines inside quotes
	"a,b\r\nc,d\r\n",                          // CRLF
	"a,b\r",                                   // lone \r at EOF
	"a\r\r\n\r\nb\rc\n",                       // stray \r
	"a\n\n\nb\n\r\n\n",                        // blank lines
	"a\"b,c\n",                                // bare quote
	"\"a\"b,c\n",                              // quote then garbage
	"x\n\"unterminated,y\n",                   // EOF inside quotes
	"\"a\n",                                   // EOF inside quotes at a line end
	"\"a\n\n",                                 // ... after a blank line inside quotes
	"\"a\n\nb\",c\n",                          // a blank line inside quotes
	",a,\n,,\n,\n",                            // empty and trailing fields
	"A,B\n",                                   // header only
	"A,B",                                     // no final newline
	"",
	"\n\n",
	"\"\"\n\"\",\"\"\n", // empty quoted fields
	"a,\"b\"\n\"c\"\"\",\"\n\"\n",
	utf8BOM + "A,B\n1,2\n", // byte order mark
	utf8BOM + "\"A\",B\n",
	utf8BOM,
	utf8BOM + utf8BOM + "A\n", // only one mark is stripped
	utf8BOM + "\"a\"b\n",      // no clean record after the mark
	utf8BOM + "a\n\"b\"c\n",   // a clean record, then an error
	"a\n" + utf8BOM + "b\n",   // a mark inside the file is data
	"\"" + strings.Repeat("x", 4100) + "\n\"\",y\n", // a record longer than the bufio buffer
}

// checkScanner fails t unless csvScanner reads data as encoding/csv
// (FieldsPerRecord = -1) reads it: the same records spanning the same
// bytes, then the same error text or none. At the start of a file one
// leading byte order mark is skipped first; anywhere else it is data.
func checkScanner(t *testing.T, data []byte) {
	t.Helper()
	check := func(fileStart bool, body []byte, skipped int64) {
		t.Helper()
		want, wantN, wantErr := csvReaderPrefix(body)
		if len(want) > 0 || wantErr == nil {
			wantN += skipped // the mark is spanned by the first record
		}
		got, gotN, gotErr := ReadCSVPrefix(data, fileStart)
		if !sameError(gotErr, wantErr) || !reflect.DeepEqual(got, want) || gotN != wantN {
			t.Fatalf("input %q fileStart=%v:\nscanner      %q, %d bytes, %v\nencoding/csv %q, %d bytes, %v",
				data, fileStart, got, gotN, gotErr, want, wantN, wantErr)
		}
	}
	body := bytes.TrimPrefix(data, []byte(utf8BOM))
	check(true, body, int64(len(data)-len(body)))
	check(false, data, 0)
}

// FuzzCSVScanner is the differential fuzzer behind checkScanner.
func FuzzCSVScanner(f *testing.F) {
	for _, s := range csvScannerSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkScanner)
}

// csvLongInputs cross the 4 KiB bufio buffer in more ways than the one
// long seed. They stay out of the fuzz corpus: the fuzzer spends its time
// minimizing mutants of long inputs.
var csvLongInputs = []string{
	strings.Repeat("x", 5000) + ",y\n1,2\n",
	"\"" + strings.Repeat("q", 9000) + "\n\"\"z\",w\r\n",
	"a,b\n" + strings.Repeat("c", 4095) + "\r\nd\n", // \r\n straddles the buffer end
	"a,b\n\"" + strings.Repeat("c", 4094) + "\"\"\"\n",
}

func TestCSVScannerLongRecords(t *testing.T) {
	for _, s := range csvLongInputs {
		checkScanner(t, []byte(s))
	}
}

// Spreadsheet exports start with a UTF-8 byte order mark; it must not end
// up in the first attribute's name or the first value.
func TestReadCSVStripsBOM(t *testing.T) {
	rel, _, err := ReadCSV(strings.NewReader(utf8BOM+"A,B\n1,2\n"), true)
	if err != nil {
		t.Fatal(err)
	}
	if got := rel.Attrs(); !reflect.DeepEqual(got, []string{"A", "B"}) {
		t.Fatalf("attrs = %q", got)
	}
	if _, err := rel.Project("A"); err != nil {
		t.Fatal(err)
	}
	_, enc, err := ReadCSV(strings.NewReader(utf8BOM+"1,2\n"), false)
	if err != nil {
		t.Fatal(err)
	}
	if got := enc.Decode(Tuple{1, 1}); !reflect.DeepEqual(got, []string{"1", "2"}) {
		t.Fatalf("headerless first record = %q", got)
	}
	recs, err := ReadCSVRows(strings.NewReader(utf8BOM + "x,y\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, [][]string{{"x", "y"}}) {
		t.Fatalf("ReadCSVRows = %q", recs)
	}
}

// readCSVOracle is the encode-then-Insert ingestion ReadCSV replaced:
// encoding/csv records, Encoder.Encode per record, Relation.Insert per
// tuple. TestQuickReadCSVParity holds ReadCSV to it.
func readCSVOracle(r io.Reader, header bool) (*Relation, *Encoder, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	first, err := cr.Read()
	if err == io.EOF {
		return nil, nil, fmt.Errorf("relation: empty CSV input")
	}
	if err != nil {
		return nil, nil, err
	}
	var attrs []string
	var pending [][]string
	if header {
		if err := ValidateHeader(first); err != nil {
			return nil, nil, err
		}
		attrs = first
	} else {
		attrs = make([]string, len(first))
		for i := range attrs {
			attrs[i] = fmt.Sprintf("c%d", i+1)
		}
		pending = append(pending, first)
	}
	enc := NewEncoder(attrs)
	rel := New(attrs...)
	insert := func(rec []string) error {
		t, err := enc.Encode(rec)
		if err != nil {
			return err
		}
		rel.Insert(t)
		return nil
	}
	for _, rec := range pending {
		if err := insert(rec); err != nil {
			return nil, nil, err
		}
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		if err := insert(rec); err != nil {
			return nil, nil, err
		}
	}
	return rel, enc, nil
}

// randomCSV renders a relation with many duplicate rows: values from a
// small alphabet that includes commas, quotes, newlines and \r, and, one
// field in four, an edge value: fields on both sides of the dictionary's
// 7-byte packed-key limit, two fields that differ only by a trailing zero
// byte, and multi-byte UTF-8. Rows are written by csv.Writer (so quoting is
// valid), then corrupted at a few random bytes with probability one third.
func randomCSV(rng *rand.Rand) []byte {
	values := []string{"a", "b", "1", "", " ", "x,y", `q"q`, "l\nl", "r\r", "é"}
	edges := []string{"ab", "ab\x00", "sixsix", "seven77", "eight888", "nine99999", "日本語"}
	arity := 1 + rng.IntN(4)
	var b bytes.Buffer
	if rng.IntN(4) == 0 {
		b.WriteString(utf8BOM)
	}
	w := csv.NewWriter(&b)
	w.UseCRLF = rng.IntN(2) == 0
	rec := make([]string, arity)
	for i := range rec {
		rec[i] = fmt.Sprintf("A%d", i)
	}
	_ = w.Write(rec) // a bytes.Buffer cannot fail
	for n := rng.IntN(60); n > 0; n-- {
		rec := make([]string, arity)
		if rng.IntN(100) == 0 {
			rec = make([]string, 1+rng.IntN(arity+1)) // ragged now and then
		}
		for i := range rec {
			if rng.IntN(4) == 0 {
				rec[i] = edges[rng.IntN(len(edges))]
			} else {
				rec[i] = values[rng.IntN(min(len(values), 2+rng.IntN(8)))]
			}
		}
		_ = w.Write(rec)
	}
	w.Flush()
	data := b.Bytes()
	if rng.IntN(3) == 0 && len(data) > 0 {
		for k := 1 + rng.IntN(3); k > 0; k-- {
			data[rng.IntN(len(data))] = ",\"\n\ra"[rng.IntN(5)]
		}
	}
	return data
}

// TestQuickReadCSVParity holds ReadCSV to the encode-then-Insert oracle on
// random, often duplicate-heavy, sometimes malformed CSV: the same
// attributes, rows in the same order, the same dictionaries, or the same
// error.
func TestQuickReadCSVParity(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 16))
		data := randomCSV(rng)
		for _, header := range []bool{true, false} {
			rel, enc, err := ReadCSV(bytes.NewReader(data), header)
			wantRel, wantEnc, wantErr := readCSVOracle(bytes.NewReader(bytes.TrimPrefix(data, []byte(utf8BOM))), header)
			if !sameError(err, wantErr) {
				t.Logf("input %q header=%v: error %v, oracle %v", data, header, err, wantErr)
				return false
			}
			if err != nil {
				continue
			}
			if !reflect.DeepEqual(rel.Attrs(), wantRel.Attrs()) ||
				!reflect.DeepEqual(rel.Rows(), wantRel.Rows()) ||
				!reflect.DeepEqual(enc.Dictionaries(), wantEnc.Dictionaries()) {
				t.Logf("input %q header=%v:\nattrs %q / %q\nrows %v / %v\ndicts %q / %q", data, header,
					rel.Attrs(), wantRel.Attrs(), rel.Rows(), wantRel.Rows(), enc.Dictionaries(), wantEnc.Dictionaries())
				return false
			}
			for _, row := range wantRel.Rows() {
				if !rel.Contains(row) {
					t.Logf("input %q: ReadCSV relation does not contain %v", data, row)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
