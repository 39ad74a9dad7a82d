package relation

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncoderRoundTrip(t *testing.T) {
	e := NewEncoder([]string{"name", "city"})
	t1, err := e.Encode([]string{"ann", "paris"})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := e.Encode([]string{"bob", "paris"})
	if err != nil {
		t.Fatal(err)
	}
	if t1[1] != t2[1] {
		t.Fatal("same string encoded differently")
	}
	if t1[0] == t2[0] {
		t.Fatal("different strings encoded equally")
	}
	if got := e.Decode(t1); got[0] != "ann" || got[1] != "paris" {
		t.Fatalf("Decode = %v", got)
	}
	if e.DomainSize(0) != 2 || e.DomainSize(1) != 1 {
		t.Fatal("DomainSize wrong")
	}
	if _, err := e.Encode([]string{"only-one"}); err == nil {
		t.Fatal("arity mismatch did not error")
	}
	// Unknown value decodes to placeholder.
	if got := e.Decode(Tuple{99, 1}); got[0] != "#99" {
		t.Fatalf("placeholder = %q", got[0])
	}
}

// dictionaryEdgeValues straddle the packed-key limit (6, 7, 8 and 9 bytes),
// differ only by a trailing zero byte, or are multi-byte UTF-8.
var dictionaryEdgeValues = []string{
	"", "a", "ab", "ab\x00", "\x00", "\x00\x00", "sixsix", "seven77", "eight888", "nine99999",
	"é", "ü€", "日本語", "abcdefg", "abcdefgh", "\xff\xff\xff\xff\xff\xff\xff",
}

// TestQuickEncoderDictionary holds Encode to a string-keyed map model on
// random fields of 0 to 12 bytes drawn from a tiny alphabet (so fields
// repeat, share prefixes and differ only by trailing zero bytes), enough of
// them to grow each dictionary several times.
func TestQuickEncoderDictionary(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 19))
		e := NewEncoder([]string{"A", "B"})
		model := []map[string]Value{{}, {}}
		for n := rng.IntN(3000); n > 0; n-- {
			rec := make([]string, 2)
			for i := range rec {
				if rng.IntN(8) == 0 {
					rec[i] = dictionaryEdgeValues[rng.IntN(len(dictionaryEdgeValues))]
					continue
				}
				b := make([]byte, rng.IntN(13))
				for j := range b {
					b[j] = "\x00ab\xff"[rng.IntN(4)]
				}
				rec[i] = string(b)
			}
			got, err := e.Encode(rec)
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range rec {
				want, ok := model[i][s]
				if !ok {
					want = Value(len(model[i]) + 1)
					model[i][s] = want
				}
				if got[i] != want {
					t.Logf("field %q of attribute %d: code %d, model %d", s, i, got[i], want)
					return false
				}
			}
		}
		for i := range model {
			if e.DomainSize(i) != len(model[i]) {
				t.Logf("attribute %d: %d values, model %d", i, e.DomainSize(i), len(model[i]))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestEncoderFromDictionaries rebuilds an encoder from another's
// dictionaries: it must give every short and long value its original code,
// extend the dictionaries exactly as the original does, and reject a
// dictionary that lists one value twice.
func TestEncoderFromDictionaries(t *testing.T) {
	attrs := []string{"A", "B"}
	orig := NewEncoder(attrs)
	var records [][]string
	for i, v := range dictionaryEdgeValues {
		w := dictionaryEdgeValues[(i*5+3)%len(dictionaryEdgeValues)]
		records = append(records, []string{v, w})
	}
	var want []Tuple
	for _, rec := range records {
		tp, err := orig.Encode(rec)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, tp)
	}
	rebuilt, err := NewEncoderFromDictionaries(attrs, orig.Dictionaries())
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range records {
		got, err := rebuilt.Encode(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want[i]) {
			t.Fatalf("rebuilt Encode(%q) = %v, original %v", rec, got, want[i])
		}
	}
	fresh := []string{"new", "a-value-longer-than-seven-bytes"}
	a, _ := orig.Encode(fresh)
	b, _ := rebuilt.Encode(fresh)
	if !slices.Equal(a, b) {
		t.Fatalf("fresh record: rebuilt %v, original %v", b, a)
	}
	for _, dup := range []string{"ab", "nine99999"} {
		dicts := orig.Dictionaries()
		dicts[0] = append(dicts[0], dup)
		if _, err := NewEncoderFromDictionaries(attrs, dicts); err == nil || !strings.Contains(err.Error(), "duplicate dictionary entry") {
			t.Fatalf("duplicate %q: err = %v", dup, err)
		}
	}
}

func TestReadCSVHeader(t *testing.T) {
	in := "A,B\n1,x\n2,y\n1,x\n"
	r, enc, err := ReadCSV(strings.NewReader(in), true)
	if err != nil {
		t.Fatal(err)
	}
	if r.N() != 2 {
		t.Fatalf("N = %d (duplicates must collapse)", r.N())
	}
	if got := r.Attrs(); got[0] != "A" || got[1] != "B" {
		t.Fatalf("attrs = %v", got)
	}
	if enc.DomainSize(0) != 2 {
		t.Fatal("dictionary wrong")
	}
}

func TestReadCSVNoHeader(t *testing.T) {
	r, _, err := ReadCSV(strings.NewReader("1,2\n3,4\n"), false)
	if err != nil {
		t.Fatal(err)
	}
	if r.N() != 2 {
		t.Fatalf("N = %d", r.N())
	}
	if got := r.Attrs(); got[0] != "c1" || got[1] != "c2" {
		t.Fatalf("attrs = %v", got)
	}
}

func TestReadCSVEmpty(t *testing.T) {
	if _, _, err := ReadCSV(strings.NewReader(""), true); err == nil {
		t.Fatal("empty input did not error")
	}
}

// Malformed headers used to panic inside relation.New; a long-running
// service cannot tolerate a panic on the ingestion path, so ReadCSV must
// surface them as errors (ISSUE 2 headline bugfix).
func TestReadCSVMalformedHeader(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"duplicate", "A,B,A\n1,2,3\n", `duplicate attribute "A"`},
		{"empty", "A,,C\n1,2,3\n", "empty attribute name"},
		{"whitespace", "A,  ,C\n1,2,3\n", "empty attribute name"},
		{"tab", "A,\t,C\n1,2,3\n", "empty attribute name"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("ReadCSV panicked: %v", p)
				}
			}()
			_, _, err := ReadCSV(strings.NewReader(c.in), true)
			if err == nil {
				t.Fatalf("malformed header %q did not error", c.in)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error = %q, want substring %q", err, c.wantErr)
			}
		})
	}
}

func TestReadCSVRagged(t *testing.T) {
	cases := []string{
		"A,B\n1,2,3\n", // too many fields
		"A,B\n1\n",     // too few fields
		"1,2\n3\n",     // ragged without header
	}
	for _, in := range cases {
		if _, _, err := ReadCSV(strings.NewReader(in), strings.Contains(in, "A")); err == nil {
			t.Errorf("ragged CSV %q did not error", in)
		}
	}
}

func TestValidateHeader(t *testing.T) {
	if err := ValidateHeader([]string{"A", "B"}); err != nil {
		t.Fatalf("valid header rejected: %v", err)
	}
	for _, bad := range [][]string{nil, {}, {"A", "A"}, {""}, {" "}, {"A", "\t"}} {
		if err := ValidateHeader(bad); err == nil {
			t.Errorf("header %q accepted", bad)
		}
	}
}

func TestWriteCSVRoundTrip(t *testing.T) {
	in := "A,B\nx,1\ny,2\n"
	r, enc, err := ReadCSV(strings.NewReader(in), true)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, r, enc); err != nil {
		t.Fatal(err)
	}
	r2, _, err := ReadCSV(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if r2.N() != r.N() {
		t.Fatalf("round trip N = %d, want %d", r2.N(), r.N())
	}
	// Raw (encoder-less) output writes integers.
	var raw bytes.Buffer
	if err := WriteCSV(&raw, r, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(raw.String(), "1") {
		t.Fatal("raw CSV has no integer values")
	}
}
