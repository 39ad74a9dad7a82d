package relation

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math/bits"
	"strings"
)

// Encoder dictionary-encodes string-valued records into Tuples, one
// dictionary per attribute. Value 1 is the first string seen per attribute
// (domains are 1-based to mirror the paper's [d] convention).
//
// A field of at most 7 bytes is packed with its length into one uint64 and
// looked up in a flat open-addressed table keyed by that integer, which
// hashes and compares one word instead of a string; longer fields live in a
// string map. Either way each attribute has exactly one dictionary, which
// every encoding path (ReadCSV, Encode and NewEncoderFromDictionaries) reads
// through lookup and extends through add.
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
	short packedTable
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

// packedTable is an open-addressed hash table from packed keys to values,
// probed linearly and kept at most half full. A slot with value 0 is empty
// (values start at 1), so every key, the empty field's 0 included, can be
// stored. Slots are hashed with the row table's per-process random keys,
// so an upload cannot be crafted to make its fields collide.
type packedTable struct {
	slots []packedSlot
	used  int
}

type packedSlot struct {
	key uint64
	val Value
}

// packedHome returns the first slot of key k in a table of mask+1 slots.
func packedHome(k uint64, mask int) int {
	hi, lo := bits.Mul64(k^rowHashKeys[0], rowHashKeys[1])
	return int(hi^lo) & mask
}

// get returns the value of key k, or 0 when k is absent.
func (t *packedTable) get(k uint64) Value {
	if len(t.slots) == 0 {
		return 0
	}
	mask := len(t.slots) - 1
	for i := packedHome(k, mask); ; i = (i + 1) & mask {
		if sl := &t.slots[i]; sl.val == 0 || sl.key == k {
			return sl.val
		}
	}
}

// put records k -> v; k must be absent.
func (t *packedTable) put(k uint64, v Value) {
	if 2*(t.used+1) > len(t.slots) {
		old := t.slots
		t.slots = make([]packedSlot, max(16, 2*len(old)))
		t.used = 0
		for _, sl := range old {
			if sl.val != 0 {
				t.put(sl.key, sl.val)
			}
		}
	}
	mask := len(t.slots) - 1
	i := packedHome(k, mask)
	for t.slots[i].val != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = packedSlot{key: k, val: v}
	t.used++
}

// lookup returns the value of field f in d, or 0 when f is absent.
func lookup[F string | []byte](d *dictionary, f F) Value {
	if len(f) > maxPackedField {
		return d.long[string(f)]
	}
	return d.short.get(packField(f))
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
	d.short.put(packField(s), v)
}

// NewEncoder returns an Encoder for the given attributes.
func NewEncoder(attrs []string) *Encoder {
	return &Encoder{
		attrs: append([]string(nil), attrs...),
		dicts: make([]dictionary, len(attrs)),
		rev:   make([][]string, len(attrs)),
	}
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

// encodeRecord encodes line, one record without quotes or line end, into
// row. It packs each field while it scans for the comma that ends it and
// looks the field up there, so each byte is read once. It returns the
// record's field count; row holds the record only when that is len(row).
func (e *Encoder) encodeRecord(line []byte, row Tuple) int {
	f, start := 0, 0
	var k uint64
	for i, c := range line {
		if c != ',' {
			// Bytes past the seventh shift out; such a field is not packed.
			k |= uint64(c) << (8 * uint(i-start))
			continue
		}
		if f < len(row) {
			row[f] = e.encodePacked(f, line[start:i], k)
		}
		f++
		start, k = i+1, 0
	}
	if f < len(row) {
		row[f] = e.encodePacked(f, line[start:], k)
	}
	return f + 1
}

// encodePacked is encodeField for field f of attribute i, whose bytes k
// holds packed as packField packs them, without its length.
func (e *Encoder) encodePacked(i int, f []byte, k uint64) Value {
	if len(f) > maxPackedField {
		return encodeField(e, i, f)
	}
	if v := e.dicts[i].short.get(k | uint64(len(f))<<56); v != 0 {
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
// place: a record without quotes is encoded in the pass that splits it
// (encodeRecord), a record with quotes is unescaped first, a duplicate row
// is dropped by the row table, and a new row's codes are appended straight
// to the relation's columns.
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
	} else {
		attrs = make([]string, len(sc.fields))
		for i := range attrs {
			attrs[i] = fmt.Sprintf("c%d", i+1)
		}
	}
	enc := NewEncoder(attrs)
	rel := New(attrs...)
	row := make(Tuple, len(attrs))
	encodeFields := func() int {
		if len(sc.fields) == len(row) {
			for i, f := range sc.fields {
				row[i] = encodeField(enc, i, f)
			}
		}
		return len(sc.fields)
	}
	if !header {
		encodeFields()
		rel.insert(row)
	}
	for {
		line, err := sc.line()
		if err == io.EOF {
			return rel, enc, nil
		}
		var fields int
		if bytes.IndexByte(line, '"') >= 0 {
			if err := sc.parseQuoted(line, err); err != nil {
				return nil, nil, err
			}
			fields = encodeFields()
		} else {
			if err != nil {
				return nil, nil, err
			}
			fields = enc.encodeRecord(line[:len(line)-lengthNL(line)], row)
		}
		if fields != len(row) {
			return nil, nil, fmt.Errorf("relation: record has %d fields, schema has %d", fields, len(row))
		}
		rel.insert(row)
	}
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
