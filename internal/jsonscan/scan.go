// Package jsonscan reads JSON documents without reflection. A Scanner is
// a pull reader over one in-memory document: the caller walks objects
// and arrays member by member and reads typed scalars, so a request body
// decodes straight into the values it means instead of through
// intermediate structs.
//
// Every method enforces the JSON grammar exactly as encoding/json's
// scanner does, including its 10000-level nesting limit, and decodes
// with encoding/json's conventions:
//   - strings are unescaped (\uXXXX and surrogate pairs included), with
//     invalid UTF-8 and unpaired surrogates replaced by U+FFFD, and raw
//     control bytes rejected;
//   - floats parse with strconv.ParseFloat(s, 64) and out-of-range
//     values are rejected;
//   - integers reject fractions, exponents and overflow.
//
// Match reproduces encoding/json's field-name matching (exact, then
// case-folded), so a decoder built on it accepts the same keys.
package jsonscan

import (
	"bytes"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit: a document nesting objects
// and arrays deeper than this is rejected.
const maxDepth = 10000

// scanError reports malformed JSON, or a value of the wrong type for
// where it appears, at a byte offset of the document.
type scanError struct {
	offset int
	msg    string
}

func (e *scanError) Error() string { return e.msg + " at offset " + strconv.Itoa(e.offset) }

// Scanner reads one JSON document. The zero value reads an empty
// document; use New.
type Scanner struct {
	data  []byte
	pos   int
	depth int
	buf   []byte // unescaped string scratch
}

// New returns a Scanner positioned at the start of data.
func New(data []byte) Scanner { return Scanner{data: data} }

// Mark is a saved Scanner position; see Rewind.
type Mark struct{ pos, depth int }

// Mark saves the current position.
func (s *Scanner) Mark() Mark { return Mark{s.pos, s.depth} }

// Rewind returns to a position saved by Mark, so a value a decoder
// rejected part-way can be re-read (for example by Skip).
func (s *Scanner) Rewind(m Mark) { s.pos, s.depth = m.pos, m.depth }

// Pos returns the current byte offset. Right after Elem reports an
// element it is the element's first byte; right after a value is read it
// is one past the value's last byte.
func (s *Scanner) Pos() int { return s.pos }

func (s *Scanner) errAt(off int, msg string) error { return &scanError{offset: off, msg: msg} }

func (s *Scanner) skipSpace() {
	for s.pos < len(s.data) {
		if c := s.data[s.pos]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return
		}
		s.pos++
	}
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (s *Scanner) peek() byte {
	s.skipSpace()
	if s.pos < len(s.data) {
		return s.data[s.pos]
	}
	return 0
}

// End reports an error unless only whitespace remains.
func (s *Scanner) End() error {
	if s.peek() != 0 || s.pos < len(s.data) {
		return s.errAt(s.pos, "trailing data after JSON value")
	}
	return nil
}

// Null consumes a null literal if it is the next value.
func (s *Scanner) Null() bool {
	if s.peek() == 'n' && bytes.HasPrefix(s.data[s.pos:], []byte("null")) {
		s.pos += 4
		return true
	}
	return false
}

func (s *Scanner) open(c byte, what string) error {
	if s.peek() != c {
		return s.errAt(s.pos, "expected "+what)
	}
	s.pos++
	s.depth++
	if s.depth > maxDepth {
		return s.errAt(s.pos-1, "exceeded max depth")
	}
	return nil
}

// Object consumes the opening brace of an object; walk its members with
// Member.
func (s *Scanner) Object() error { return s.open('{', "object") }

// Array consumes the opening bracket of an array; walk its elements
// with Elem.
func (s *Scanner) Array() error { return s.open('[', "array") }

// Member advances to member i (counting from 0) of the object opened by
// Object, returning its decoded key with the scanner positioned at the
// value, which the caller must read (or Skip) before the next call. It
// returns ok false, having consumed the closing brace, when the object
// has no member i. The key aliases the document or scratch space and is
// valid until the next String or Member call.
func (s *Scanner) Member(i int) (key []byte, ok bool, err error) {
	// Member(0) directly follows Object, so a closing brace is legal at
	// every index: an empty object at 0, the end of the members after.
	c := s.peek()
	if c == '}' {
		s.pos++
		s.depth--
		return nil, false, nil
	}
	if i > 0 {
		if c != ',' {
			return nil, false, s.errAt(s.pos, "expected ',' or '}' after object member")
		}
		s.pos++
	}
	if s.peek() != '"' {
		return nil, false, s.errAt(s.pos, "expected object key")
	}
	if key, err = s.String(); err != nil {
		return nil, false, err
	}
	if s.peek() != ':' {
		return nil, false, s.errAt(s.pos, "expected ':' after object key")
	}
	s.pos++
	return key, true, nil
}

// Elem advances to element i (counting from 0) of the array opened by
// Array, leaving the scanner at the element's first byte for the caller
// to read (or Skip). It returns false, having consumed the closing
// bracket, when the array has no element i.
func (s *Scanner) Elem(i int) (bool, error) {
	c := s.peek()
	if c == ']' {
		s.pos++
		s.depth--
		return false, nil
	}
	if i > 0 {
		if c != ',' {
			return false, s.errAt(s.pos, "expected ',' or ']' after array element")
		}
		s.pos++
		s.skipSpace()
	}
	return true, nil
}

// Bool reads a true or false literal.
func (s *Scanner) Bool() (bool, error) {
	switch s.peek() {
	case 't':
		if bytes.HasPrefix(s.data[s.pos:], []byte("true")) {
			s.pos += 4
			return true, nil
		}
	case 'f':
		if bytes.HasPrefix(s.data[s.pos:], []byte("false")) {
			s.pos += 5
			return false, nil
		}
	}
	return false, s.errAt(s.pos, "expected boolean")
}

// Float reads a number as strconv.ParseFloat(s, 64) parses it.
func (s *Scanner) Float() (float64, error) {
	start := s.pos
	lit, err := s.number()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, s.errAt(start, "number "+string(lit)+" out of range")
	}
	return f, nil
}

// Int reads a number that must be an integer within int's range: no
// fraction, no exponent, no overflow.
func (s *Scanner) Int() (int, error) {
	start := s.pos
	lit, err := s.number()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		return 0, s.errAt(start, "number "+string(lit)+" is not an int")
	}
	return int(n), nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number scans one number literal per the JSON grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (s *Scanner) number() ([]byte, error) {
	c := s.peek()
	if c != '-' && !isDigit(c) {
		return nil, s.errAt(s.pos, "expected number")
	}
	d, start, i := s.data, s.pos, s.pos
	if d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && isDigit(d[i]):
		for i < len(d) && isDigit(d[i]) {
			i++
		}
	default:
		return nil, s.errAt(i, "invalid number")
	}
	if i < len(d) && d[i] == '.' {
		i++
		if i >= len(d) || !isDigit(d[i]) {
			return nil, s.errAt(i, "invalid number")
		}
		for i < len(d) && isDigit(d[i]) {
			i++
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i >= len(d) || !isDigit(d[i]) {
			return nil, s.errAt(i, "invalid number")
		}
		for i < len(d) && isDigit(d[i]) {
			i++
		}
	}
	s.pos = i
	return d[start:i], nil
}

// String reads a string and returns its decoded bytes. The result
// aliases the document (no escapes, ASCII) or the scanner's scratch
// space and is valid until the next String or Member call.
func (s *Scanner) String() ([]byte, error) {
	if s.peek() != '"' {
		return nil, s.errAt(s.pos, "expected string")
	}
	start := s.pos + 1
	for i := start; i < len(s.data); i++ {
		switch c := s.data[i]; {
		case c == '"':
			s.pos = i + 1
			return s.data[start:i], nil
		case c == '\\' || c >= utf8.RuneSelf:
			return s.slowString(start)
		case c < 0x20:
			return nil, s.errAt(i, "control character in string")
		}
	}
	return nil, s.errAt(len(s.data), "unterminated string")
}

// slowString decodes a string holding escapes or non-ASCII bytes into
// the scratch buffer, with encoding/json's replacement rules.
func (s *Scanner) slowString(start int) ([]byte, error) {
	b, d, i := s.buf[:0], s.data, start
	for i < len(d) {
		c := d[i]
		switch {
		case c == '"':
			s.buf, s.pos = b, i+1
			return b, nil
		case c < 0x20:
			return nil, s.errAt(i, "control character in string")
		case c == '\\':
			if i+1 >= len(d) {
				return nil, s.errAt(len(d), "unterminated string")
			}
			switch e := d[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(d[i+2:])
				if r < 0 {
					return nil, s.errAt(i, "invalid \\u escape")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					// A surrogate decodes only as the first half of a
					// \uXXXX pair; anything else is U+FFFD, and the
					// following escape (if any) decodes on its own.
					if len(d) >= i+6 && d[i] == '\\' && d[i+1] == 'u' {
						if dec := utf16.DecodeRune(r, hex4(d[i+2:])); dec != utf8.RuneError {
							b = utf8.AppendRune(b, dec)
							i += 6
							continue
						}
					}
					r = utf8.RuneError
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				return nil, s.errAt(i, "invalid escape in string")
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(d[i:])
			if r == utf8.RuneError && size == 1 {
				b = utf8.AppendRune(b, utf8.RuneError)
			} else {
				b = append(b, d[i:i+size]...)
			}
			i += size
		}
	}
	s.buf = b
	return nil, s.errAt(len(d), "unterminated string")
}

// hex4 parses four hex digits, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// Skip reads and discards the next value, checking its syntax.
func (s *Scanner) Skip() error {
	switch c := s.peek(); {
	case c == '{':
		if err := s.Object(); err != nil {
			return err
		}
		for i := 0; ; i++ {
			_, ok, err := s.Member(i)
			if err != nil || !ok {
				return err
			}
			if err := s.Skip(); err != nil {
				return err
			}
		}
	case c == '[':
		if err := s.Array(); err != nil {
			return err
		}
		for i := 0; ; i++ {
			ok, err := s.Elem(i)
			if err != nil || !ok {
				return err
			}
			if err := s.Skip(); err != nil {
				return err
			}
		}
	case c == '"':
		_, err := s.String()
		return err
	case c == 't' || c == 'f':
		_, err := s.Bool()
		return err
	case c == 'n':
		if s.Null() {
			return nil
		}
	case c == '-' || isDigit(c):
		_, err := s.number()
		return err
	}
	return s.errAt(s.pos, "expected value")
}

// Match returns the index of key in names the way encoding/json matches
// object keys to struct fields: an exact match first, then a Unicode
// case-folded one (bytes.EqualFold). It returns -1 when nothing matches.
func Match(key []byte, names []string) int {
	for i, n := range names {
		if string(key) == n {
			return i
		}
	}
	for i, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return i
		}
	}
	return -1
}
