package relation

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"io"
	"strings"
)

// utf8BOM is the byte order mark spreadsheet exports put before the header.
const utf8BOM = "\xef\xbb\xbf"

// csvScanner reads CSV records with exactly the grammar of encoding/csv's
// Reader at its defaults plus FieldsPerRecord = -1: comma-separated fields,
// double-quoted fields with "" escapes and embedded newlines, \r\n read as
// \n, a trailing \r dropped at EOF, blank lines skipped, ragged records
// allowed, and the same *csv.ParseError positions and kinds. A record
// without quotes is split in place in the read buffer; only records with
// quotes are unescaped into a scratch buffer.
type csvScanner struct {
	r       *bufio.Reader
	numLine int      // lines read so far, counted like csv.Reader
	off     int64    // input bytes read so far, counted like csv.Reader
	raw     []byte   // a line longer than the bufio buffer
	buf     []byte   // the unescaped fields of a quoted record, back to back
	ends    []int    // end offset of each field in buf
	fields  [][]byte // the current record; valid until the next call to next
}

func newCSVScanner(r io.Reader) *csvScanner {
	return &csvScanner{r: bufio.NewReader(r)}
}

// skipBOM skips one UTF-8 byte order mark at the start of the input.
func (s *csvScanner) skipBOM() {
	if b, err := s.r.Peek(len(utf8BOM)); err == nil && string(b) == utf8BOM {
		_, _ = s.r.Discard(len(utf8BOM)) // cannot fail: the bytes are buffered
		s.off += int64(len(utf8BOM))
	}
}

// readLine is csv.Reader.readLine: the next line with its \n (\r\n
// normalized to \n), the \r before EOF dropped, and io.EOF only when no
// byte was read. The line is valid until the next call.
func (s *csvScanner) readLine() ([]byte, error) {
	line, err := s.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		s.raw = append(s.raw[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = s.r.ReadSlice('\n')
			s.raw = append(s.raw, line...)
		}
		line = s.raw
	}
	s.off += int64(len(line))
	if len(line) > 0 && err == io.EOF {
		err = nil
		if line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
	}
	s.numLine++
	if n := len(line); n >= 2 && line[n-2] == '\r' && line[n-1] == '\n' {
		line[n-2] = '\n'
		line = line[:n-1]
	}
	return line, err
}

// lengthNL reports the number of bytes for the trailing \n.
func lengthNL(b []byte) int {
	if len(b) > 0 && b[len(b)-1] == '\n' {
		return 1
	}
	return 0
}

// line returns the next line that is not blank, read as readLine reads it;
// io.EOF means the input holds no further record. A line with a quote is
// parsed by parseQuoted, which may read more lines.
func (s *csvScanner) line() ([]byte, error) {
	for {
		line, err := s.readLine()
		if err == nil && len(line) == lengthNL(line) {
			continue // skip empty lines
		}
		return line, err
	}
}

// next reads the next record into s.fields. It returns io.EOF when the
// input holds no further record.
func (s *csvScanner) next() error {
	line, errRead := s.line()
	if errRead == io.EOF {
		return io.EOF
	}
	if bytes.IndexByte(line, '"') >= 0 {
		return s.parseQuoted(line, errRead)
	}
	line = line[:len(line)-lengthNL(line)]
	s.fields = s.fields[:0]
	for {
		i := bytes.IndexByte(line, ',')
		if i < 0 {
			break
		}
		s.fields = append(s.fields, line[:i])
		line = line[i+1:]
	}
	s.fields = append(s.fields, line)
	return errRead
}

// parseQuoted parses a record whose first line contains a quote; it is
// csv.Reader.readRecord's field loop, reading continuation lines for
// quoted fields that span them.
func (s *csvScanner) parseQuoted(line []byte, errRead error) error {
	recLine := s.numLine
	s.buf = s.buf[:0]
	s.ends = s.ends[:0]
	posLine, col := s.numLine, 1
	var err error
parseField:
	for {
		if len(line) == 0 || line[0] != '"' {
			// Non-quoted field.
			i := bytes.IndexByte(line, ',')
			field := line
			if i >= 0 {
				field = field[:i]
			} else {
				field = field[:len(field)-lengthNL(field)]
			}
			if j := bytes.IndexByte(field, '"'); j >= 0 {
				err = &csv.ParseError{StartLine: recLine, Line: s.numLine, Column: col + j, Err: csv.ErrBareQuote}
				break parseField
			}
			s.buf = append(s.buf, field...)
			s.ends = append(s.ends, len(s.buf))
			if i >= 0 {
				line = line[i+1:]
				col += i + 1
				continue parseField
			}
			break parseField
		}
		// Quoted field.
		line = line[1:]
		col++
		for {
			i := bytes.IndexByte(line, '"')
			switch {
			case i >= 0:
				s.buf = append(s.buf, line[:i]...)
				line = line[i+1:]
				col += i + 1
				switch {
				case len(line) > 0 && line[0] == '"': // "" is an escaped quote
					s.buf = append(s.buf, '"')
					line = line[1:]
					col++
				case len(line) > 0 && line[0] == ',': // end of field
					line = line[1:]
					col++
					s.ends = append(s.ends, len(s.buf))
					continue parseField
				case lengthNL(line) == len(line): // end of record
					s.ends = append(s.ends, len(s.buf))
					break parseField
				default: // a quote followed by anything else
					err = &csv.ParseError{StartLine: recLine, Line: s.numLine, Column: col - 1, Err: csv.ErrQuote}
					break parseField
				}
			case len(line) > 0:
				// The field goes on past the end of the line.
				s.buf = append(s.buf, line...)
				if errRead != nil {
					break parseField
				}
				col += len(line)
				line, errRead = s.readLine()
				if len(line) > 0 {
					posLine++
					col = 1
				}
				if errRead == io.EOF {
					errRead = nil
				}
			default:
				// The input ended inside the quotes.
				if errRead == nil {
					err = &csv.ParseError{StartLine: recLine, Line: posLine, Column: col, Err: csv.ErrQuote}
					break parseField
				}
				s.ends = append(s.ends, len(s.buf))
				break parseField
			}
		}
	}
	if err == nil {
		err = errRead
	}
	s.fields = s.fields[:0]
	start := 0
	for _, end := range s.ends {
		s.fields = append(s.fields, s.buf[start:end])
		start = end
	}
	return err
}

// record returns the current record as strings sharing one allocation.
func (s *csvScanner) record() []string {
	n := 0
	for _, f := range s.fields {
		n += len(f)
	}
	var b strings.Builder
	b.Grow(n)
	for _, f := range s.fields {
		b.Write(f)
	}
	all := b.String()
	rec := make([]string, len(s.fields))
	for i, f := range s.fields {
		rec[i], all = all[:len(f)], all[len(f):]
	}
	return rec
}
