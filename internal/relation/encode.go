package relation

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Encoder dictionary-encodes string-valued records into Tuples, one
// dictionary per attribute. Value 1 is the first string seen per attribute
// (domains are 1-based to mirror the paper's [d] convention).
//
// A field of at most 7 bytes is packed with its length into one uint64 and
// looked up in a map keyed by that integer, which hashes and compares one
// word instead of a string; longer fields live in a string map. Either way
// each attribute has exactly one dictionary, which every encoding path
// (ReadCSV, Encode and NewEncoderFromDictionaries) reads through lookup and
// extends through add.
type Encoder struct {
	attrs []string
	dicts []dictionary
	rev   [][]string
}

// maxPackedField is the longest field a packed key holds: 7 bytes of data
// below one byte of length.
const maxPackedField = 7

// dictionary is one attribute's string → value map: short holds the fields
// of at most maxPackedField bytes under their packed keys, long the fields
// too long to pack.
type dictionary struct {
	short map[uint64]Value
	long  map[string]Value
}

// packField packs a field of at most maxPackedField bytes into one key: the
// bytes little-endian in the low 56 bits and the length in the top byte, so
// fields that differ only by trailing zero bytes get different keys.
func packField[F string | []byte](f F) uint64 {
	k := uint64(len(f)) << 56
	for j := 0; j < len(f); j++ {
		k |= uint64(f[j]) << (8 * j)
	}
	return k
}

// lookup returns the value of field f in d, or 0 when f is absent.
func lookup[F string | []byte](d *dictionary, f F) Value {
	if len(f) > maxPackedField {
		return d.long[string(f)]
	}
	return d.short[packField(f)]
}

// insert records s -> v; s must be absent from d.
func (d *dictionary) insert(s string, v Value) {
	if len(s) > maxPackedField {
		if d.long == nil {
			d.long = make(map[string]Value)
		}
		d.long[s] = v
		return
	}
	d.short[packField(s)] = v
}

// NewEncoder returns an Encoder for the given attributes.
func NewEncoder(attrs []string) *Encoder {
	e := &Encoder{
		attrs: append([]string(nil), attrs...),
		dicts: make([]dictionary, len(attrs)),
		rev:   make([][]string, len(attrs)),
	}
	for i := range e.dicts {
		e.dicts[i].short = make(map[uint64]Value)
	}
	return e
}

// Attrs returns the attribute names in schema order.
func (e *Encoder) Attrs() []string { return e.attrs }

// Encode converts a string record to a Tuple, extending dictionaries as
// needed. It returns an error if the record length mismatches the schema.
func (e *Encoder) Encode(record []string) (Tuple, error) {
	if len(record) != len(e.attrs) {
		return nil, fmt.Errorf("relation: record has %d fields, schema has %d", len(record), len(e.attrs))
	}
	t := make(Tuple, len(record))
	for i, s := range record {
		t[i] = encodeField(e, i, s)
	}
	return t, nil
}

// encodeField returns the value of field f of attribute i, giving f the
// next value of that attribute when the dictionary does not hold it yet.
func encodeField[F string | []byte](e *Encoder, i int, f F) Value {
	if v := lookup(&e.dicts[i], f); v != 0 {
		return v
	}
	return e.add(i, string(f))
}

// add gives s, which attribute i's dictionary must not hold yet, the next
// value of that attribute.
func (e *Encoder) add(i int, s string) Value {
	v := Value(len(e.rev[i]) + 1)
	e.dicts[i].insert(s, v)
	e.rev[i] = append(e.rev[i], s)
	return v
}

// Decode converts a Tuple back to its string record. Values outside the
// dictionary are rendered as "#<v>".
func (e *Encoder) Decode(t Tuple) []string {
	out := make([]string, len(t))
	for i, v := range t {
		if v >= 1 && int(v) <= len(e.rev[i]) {
			out[i] = e.rev[i][v-1]
		} else {
			out[i] = fmt.Sprintf("#%d", v)
		}
	}
	return out
}

// DomainSize returns the dictionary size of attribute index i.
func (e *Encoder) DomainSize(i int) int { return len(e.rev[i]) }

// Dictionaries returns a deep copy of the per-attribute dictionaries in
// value order: value v of attribute i decodes to Dictionaries()[i][v-1].
// The copy is what the durability layer serializes into checkpoints — it
// must be taken under the same lock that serializes Encode calls, so the
// dictionaries match one exact dataset state.
func (e *Encoder) Dictionaries() [][]string {
	out := make([][]string, len(e.rev))
	for i, rev := range e.rev {
		out[i] = append([]string(nil), rev...)
	}
	return out
}

// NewEncoderFromDictionaries rebuilds an Encoder from checkpointed
// dictionaries: dicts[i][v-1] is the string for value v of attribute i.
// Later Encode calls extend the dictionaries exactly as the original
// encoder would have, so recovery reproduces the original value assignment.
func NewEncoderFromDictionaries(attrs []string, dicts [][]string) (*Encoder, error) {
	if len(dicts) != len(attrs) {
		return nil, fmt.Errorf("relation: %d dictionaries for %d attributes", len(dicts), len(attrs))
	}
	e := NewEncoder(attrs)
	for i, dict := range dicts {
		for _, s := range dict {
			if lookup(&e.dicts[i], s) != 0 {
				return nil, fmt.Errorf("relation: duplicate dictionary entry %q for attribute %q", s, attrs[i])
			}
			e.add(i, s)
		}
	}
	return e, nil
}

// ValidateHeader checks a CSV header row: every attribute name must be
// non-empty (whitespace-only counts as empty) and unique. It returns the
// first violation, phrased for end-user display (the CLIs and the analysis
// service wrap it with the file or request context).
func ValidateHeader(attrs []string) error {
	if len(attrs) == 0 {
		return fmt.Errorf("empty header row")
	}
	seen := make(map[string]struct{}, len(attrs))
	for i, a := range attrs {
		if strings.TrimSpace(a) == "" {
			return fmt.Errorf("empty attribute name in header (column %d)", i+1)
		}
		if _, dup := seen[a]; dup {
			return fmt.Errorf("duplicate attribute %q in header", a)
		}
		seen[a] = struct{}{}
	}
	return nil
}

// ReadCSV reads a CSV stream into a relation. If header is true the first
// record supplies attribute names; otherwise attributes are named c1..ck.
// The returned Encoder maps between the CSV strings and the encoded values.
// Malformed headers (duplicate, empty, or whitespace-only cells) and ragged
// records are reported as errors — ReadCSV never panics on bad input, which
// is what the long-running analysis service relies on.
//
// The stream is parsed with encoding/csv's grammar (see csvScanner) after
// one leading UTF-8 byte order mark is skipped. Each record is encoded in
// place: its fields are looked up in the dictionaries without allocating,
// a duplicate row is dropped by the row table, and a new row's codes are
// appended straight to the relation's columns.
func ReadCSV(r io.Reader, header bool) (*Relation, *Encoder, error) {
	sc := newCSVScanner(r)
	sc.skipBOM()
	err := sc.next()
	if err == io.EOF {
		return nil, nil, fmt.Errorf("relation: empty CSV input")
	}
	if err != nil {
		return nil, nil, err
	}
	var attrs []string
	if header {
		attrs = sc.record()
		if err := ValidateHeader(attrs); err != nil {
			return nil, nil, err
		}
		err = sc.next()
	} else {
		attrs = make([]string, len(sc.fields))
		for i := range attrs {
			attrs[i] = fmt.Sprintf("c%d", i+1)
		}
	}
	enc := NewEncoder(attrs)
	rel := New(attrs...)
	row := make(Tuple, len(attrs))
	for ; err == nil; err = sc.next() {
		if len(sc.fields) != len(row) {
			return nil, nil, fmt.Errorf("relation: record has %d fields, schema has %d", len(sc.fields), len(row))
		}
		for i, f := range sc.fields {
			row[i] = encodeField(enc, i, f)
		}
		rel.insert(row)
	}
	if err != io.EOF {
		return nil, nil, err
	}
	return rel, enc, nil
}

// ReadCSVRows reads a headerless CSV stream of data records, as accepted by
// the streaming append path, with ReadCSV's grammar. Records may be ragged
// here — arity is validated by the caller against the target schema, so the
// error can say which row of the batch is bad.
func ReadCSVRows(r io.Reader) ([][]string, error) {
	records, _, err := readCSVRecords(r, true)
	if err != nil {
		return nil, err
	}
	return records, nil
}

// ReadCSVPrefix reads buf, a chunk of a CSV file that starts at a record
// boundary, with ReadCSVRows's grammar up to its first parse error. It
// returns the records before the error, the number of bytes they span, and
// the error; when the whole chunk parses, the count is len(buf), trailing
// blank lines included. One leading UTF-8 byte order mark is skipped only
// when fileStart says buf begins at the start of the file. This is what a
// tailer needs to resume at the byte after the last clean record.
func ReadCSVPrefix(buf []byte, fileStart bool) ([][]string, int64, error) {
	return readCSVRecords(bytes.NewReader(buf), fileStart)
}

// readCSVRecords reads records until the first parse error, which it returns
// with the records before it and the input bytes they span, or until EOF,
// returning every record and the length of the input.
func readCSVRecords(r io.Reader, skipBOM bool) ([][]string, int64, error) {
	sc := newCSVScanner(r)
	if skipBOM {
		sc.skipBOM()
	}
	var records [][]string
	var consumed int64
	for {
		err := sc.next()
		if err == io.EOF {
			return records, sc.off, nil
		}
		if err != nil {
			return records, consumed, err
		}
		records = append(records, sc.record())
		consumed = sc.off
	}
}

// WriteCSV writes the relation as CSV with a header row. If enc is non-nil
// values are decoded through it; otherwise raw integers are written.
func WriteCSV(w io.Writer, r *Relation, enc *Encoder) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Attrs()); err != nil {
		return err
	}
	return writeCSVRows(cw, r, enc)
}

// WriteCSVRows writes the relation's rows as CSV with no header row — the
// shape the streaming append endpoint ingests (gendata -append emits it).
func WriteCSVRows(w io.Writer, r *Relation, enc *Encoder) error {
	return writeCSVRows(csv.NewWriter(w), r, enc)
}

func writeCSVRows(cw *csv.Writer, r *Relation, enc *Encoder) error {
	for _, t := range r.SortedRows() {
		var rec []string
		if enc != nil {
			rec = enc.Decode(t)
		} else {
			rec = make([]string, len(t))
			for i, v := range t {
				rec[i] = fmt.Sprintf("%d", v)
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
