package wire

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The JSON codec. Decoding is a pull scanner over the whole body that
// fills the caller's structs directly; it accepts exactly the bodies
// json.NewDecoder(body).Decode(&req) accepts for the same struct, and
// decodes them to the same values:
//
//   - the first JSON value is the request and whatever follows it is
//     ignored; a top-level null decodes to the zero request;
//   - object keys are unescaped, then matched exactly or under Unicode
//     simple case folding ("Queries", "QUERIES" and "querieſ" all name
//     "queries"); other keys are skipped, whatever their value; a repeated
//     key overwrites; a null value leaves its field as it was;
//   - a number becomes float32 through strconv.ParseFloat(tok, 32), so
//     every component is bit-identical; one that overflows float32 is an
//     error, as is a w or k that is not an integer literal in int64;
//   - a value of the wrong kind for its field is an error, and so is
//     nesting deeper than 10000.
//
// Only the error text differs: there is no reflection to name Go types.

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

type scanner struct {
	b     []byte
	i     int
	depth int
}

func (s *scanner) errf(format string, args ...any) error {
	return fmt.Errorf("json: offset %d: %s", s.i, fmt.Sprintf(format, args...))
}

// errEOF reports a body that ends inside the value.
func (s *scanner) errEOF() error {
	for _, c := range s.b {
		if !isSpace(c) {
			return io.ErrUnexpectedEOF
		}
	}
	return io.EOF
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

// next skips whitespace and returns the byte at the cursor without
// consuming it, or ok=false at the end of the body.
func (s *scanner) next() (c byte, ok bool) {
	for s.i < len(s.b) {
		if c = s.b[s.i]; !isSpace(c) {
			return c, true
		}
		s.i++
	}
	return 0, false
}

// open consumes the '{' or '[' at the cursor.
func (s *scanner) open() error {
	s.i++
	if s.depth++; s.depth > maxDepth {
		return s.errf("exceeded max depth")
	}
	return nil
}

// elems iterates the members of the object or array the cursor is
// inside of, just past its opening bracket: elem is called with the
// cursor on the first byte of each member and must consume it; close is
// the matching closing bracket.
func (s *scanner) elems(close byte, elem func() error) error {
	c, ok := s.next()
	if !ok {
		return s.errEOF()
	}
	if c == close {
		s.i++
		s.depth--
		return nil
	}
	for {
		if _, ok := s.next(); !ok {
			return s.errEOF()
		}
		if err := elem(); err != nil {
			return err
		}
		c, ok := s.next()
		if !ok {
			return s.errEOF()
		}
		s.i++
		switch c {
		case ',':
		case close:
			s.depth--
			return nil
		default:
			s.i--
			return s.errf("invalid character %q after a value", c)
		}
	}
}

// object decodes the top-level value: an object whose members are handed
// to field (key unescaped, cursor on the value's first byte), or null.
func (s *scanner) object(field func(key []byte) error) error {
	c, ok := s.next()
	if !ok {
		return s.errEOF()
	}
	if c == 'n' {
		return s.literal("null")
	}
	if c != '{' {
		return s.errf("request must be a JSON object")
	}
	if err := s.open(); err != nil {
		return err
	}
	return s.elems('}', func() error {
		raw, simple, err := s.key()
		if err != nil {
			return err
		}
		if !simple {
			raw = unquote(raw)
		}
		return field(raw)
	})
}

// key consumes the object key at the cursor and the colon after it, and
// leaves the cursor on the first byte of the member's value; raw and
// simple are str's.
func (s *scanner) key() (raw []byte, simple bool, err error) {
	if raw, simple, err = s.str(); err != nil {
		return nil, false, err
	}
	if c, ok := s.next(); !ok {
		return nil, false, s.errEOF()
	} else if c != ':' {
		return nil, false, s.errf("invalid character %q after an object key", c)
	}
	s.i++
	if _, ok := s.next(); !ok {
		return nil, false, s.errEOF()
	}
	return raw, simple, nil
}

// literal consumes the keyword lit at the cursor.
func (s *scanner) literal(lit string) error {
	if len(s.b)-s.i < len(lit) {
		if string(s.b[s.i:]) == lit[:len(s.b)-s.i] {
			return s.errEOF()
		}
		return s.errf("invalid literal")
	}
	if string(s.b[s.i:s.i+len(lit)]) != lit {
		return s.errf("invalid literal")
	}
	s.i += len(lit)
	return nil
}

// array consumes the '[' of the array at the cursor, or the null that
// may stand in its place.
func (s *scanner) array(of string) (null bool, err error) {
	if null, err = s.isNull(); null {
		return true, err
	}
	if s.b[s.i] != '[' {
		return false, s.errf("invalid character %q, want an array of %s", s.b[s.i], of)
	}
	return false, s.open()
}

// isNull consumes a null at the cursor, if that is what is there.
func (s *scanner) isNull() (bool, error) {
	if s.b[s.i] != 'n' {
		return false, nil
	}
	return true, s.literal("null")
}

// str consumes the string at the cursor and returns the bytes between
// its quotes, still escaped. simple reports that they contain no escape
// and no byte ≥ 0x80, so they are the string's value as they stand.
func (s *scanner) str() (raw []byte, simple bool, err error) {
	if s.b[s.i] != '"' {
		return nil, false, s.errf("invalid character %q, want a string", s.b[s.i])
	}
	s.i++
	start := s.i
	simple = true
	for s.i < len(s.b) {
		c := s.b[s.i]
		switch {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], simple, nil
		case c == '\\':
			simple = false
			s.i++
			if s.i >= len(s.b) {
				return nil, false, s.errEOF()
			}
			switch s.b[s.i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 1; k <= 4; k++ {
					if s.i+k >= len(s.b) {
						return nil, false, s.errEOF()
					}
					if !isHex(s.b[s.i+k]) {
						s.i += k
						return nil, false, s.errf(`invalid character %q in \u escape`, s.b[s.i])
					}
				}
				s.i += 4
			default:
				return nil, false, s.errf("invalid escape %q", s.b[s.i])
			}
		case c < 0x20:
			return nil, false, s.errf("control character %q in a string", c)
		case c >= utf8.RuneSelf:
			simple = false
		}
		s.i++
	}
	return nil, false, s.errEOF()
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// unquote returns the value of a scanned string that has escapes or
// non-ASCII bytes, the way encoding/json produces it: escapes resolved,
// surrogate pairs joined, and every lone surrogate or byte of invalid
// UTF-8 replaced by U+FFFD.
func unquote(raw []byte) []byte {
	out := make([]byte, 0, len(raw))
	u4 := func(b []byte) rune { // the rune of a leading \uXXXX, or -1
		if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
			return -1
		}
		v, err := strconv.ParseUint(string(b[2:6]), 16, 32)
		if err != nil {
			return -1
		}
		return rune(v)
	}
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\':
			switch raw[i+1] {
			case 'u':
				r := u4(raw[i:])
				i += 6
				if utf16.IsSurrogate(r) {
					if dec := utf16.DecodeRune(r, u4(raw[i:])); dec != unicode.ReplacementChar {
						i += 6
						out = utf8.AppendRune(out, dec)
						continue
					}
					r = unicode.ReplacementChar
				}
				out = utf8.AppendRune(out, r)
				continue
			case 'b':
				c = '\b'
			case 'f':
				c = '\f'
			case 'n':
				c = '\n'
			case 'r':
				c = '\r'
			case 't':
				c = '\t'
			default: // " \ /
				c = raw[i+1]
			}
			out = append(out, c)
			i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, n := utf8.DecodeRune(raw[i:])
			out = utf8.AppendRune(out, r)
			i += n
		}
	}
	return out
}

// number consumes the number at the cursor (a '-' or a digit) and
// returns its text.
func (s *scanner) number() ([]byte, error) {
	b, i := s.b, s.i
	if b[i] == '-' {
		i++
	}
	digits := func() bool {
		start := i
		for i < len(b) && b[i]-'0' <= 9 {
			i++
		}
		return i > start
	}
	ok := true
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		ok = digits()
	}
	if ok && i < len(b) && b[i] == '.' {
		i++
		ok = digits()
	}
	if ok && i < len(b) && b[i]|0x20 == 'e' {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		ok = digits()
	}
	tok := b[s.i:i]
	s.i = i
	if !ok {
		if i >= len(b) {
			return nil, s.errEOF()
		}
		return nil, s.errf("invalid character %q in a number", b[i])
	}
	return tok, nil
}

// skip consumes the value at the cursor, whatever it is.
func (s *scanner) skip() error {
	switch c := s.b[s.i]; c {
	case '"':
		_, _, err := s.str()
		return err
	case '{':
		if err := s.open(); err != nil {
			return err
		}
		return s.elems('}', func() error {
			if _, _, err := s.key(); err != nil {
				return err
			}
			return s.skip()
		})
	case '[':
		if err := s.open(); err != nil {
			return err
		}
		return s.elems(']', s.skip)
	case 't':
		return s.literal("true")
	case 'f':
		return s.literal("false")
	case 'n':
		return s.literal("null")
	default:
		if c == '-' || '0' <= c && c <= '9' {
			_, err := s.number()
			return err
		}
		return s.errf("invalid character %q, want a value", c)
	}
}

// floats decodes the value at the cursor — an array of numbers, or null —
// into row[:0].
func (s *scanner) floats(row []float32) ([]float32, error) {
	if null, err := s.array("numbers"); null || err != nil {
		return nil, err
	}
	row = row[:0]
	err := s.elems(']', func() error {
		// encoding/json leaves a null element at its zero value.
		if null, err := s.isNull(); null {
			row = append(row, 0)
			return err
		}
		if c := s.b[s.i]; c != '-' && c-'0' > 9 {
			return s.errf("invalid character %q, want a number", c)
		}
		tok, err := s.number()
		if err != nil {
			return err
		}
		// The conversion does not escape ParseFloat, so a token of up to
		// 32 bytes — every float32 strconv prints — costs no allocation.
		f, err := strconv.ParseFloat(string(tok), 32)
		if err != nil {
			return fmt.Errorf("json: number %s does not fit float32", tok)
		}
		row = append(row, float32(f))
		return nil
	})
	return row, err
}

// vectors decodes the value at the cursor — an array of arrays of
// numbers, either level possibly null — into dst[:0], reusing the rows
// dst already holds.
func (s *scanner) vectors(dst [][]float32) ([][]float32, error) {
	if null, err := s.array("vectors"); null || err != nil {
		return nil, err
	}
	dst = dst[:0]
	err := s.elems(']', func() error {
		var row []float32
		if len(dst) < cap(dst) {
			row = dst[:len(dst)+1][len(dst)]
		}
		if cap(row) == 0 && len(dst) > 0 {
			// A cold row: the batch is almost always rectangular, so the
			// previous row's length saves the doubling.
			row = make([]float32, 0, len(dst[len(dst)-1]))
		}
		row, err := s.floats(row)
		dst = append(dst, row)
		return err
	})
	return dst, err
}

// integer decodes the value at the cursor — an integer literal or null —
// into *v.
func (s *scanner) integer(v *int) error {
	if null, err := s.isNull(); null {
		return err
	}
	if c := s.b[s.i]; c != '-' && (c < '0' || c > '9') {
		return s.errf("invalid character %q, want an integer", c)
	}
	tok, err := s.number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		return fmt.Errorf("json: number %s is not an integer that fits int", tok)
	}
	*v = int(n)
	return nil
}

// fold reports whether key names the field whose upper-cased ASCII name
// is upper, under encoding/json's rule: ASCII letters match either case
// and any other rune stands for the smallest rune it simple-folds to (so
// U+017F matches S and U+212A matches K).
func fold(key []byte, upper string) bool {
	j := 0
	for i := 0; i < len(key); j++ {
		if j >= len(upper) {
			return false
		}
		c := rune(key[i])
		n := 1
		if c >= utf8.RuneSelf {
			c, n = utf8.DecodeRune(key[i:])
			for {
				f := unicode.SimpleFold(c)
				if f <= c {
					c = f
					break
				}
				c = f
			}
		} else if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != rune(upper[j]) {
			return false
		}
		i += n
	}
	return j == len(upper)
}

func decodeSearchRequestJSON(req *SearchRequest, body []byte) error {
	qs := req.Queries
	*req = SearchRequest{Queries: qs[:0]}
	s := scanner{b: body}
	return s.object(func(key []byte) (err error) {
		switch {
		case fold(key, "QUERIES"):
			req.Queries, err = s.vectors(qs)
		case fold(key, "W"):
			err = s.integer(&req.W)
		case fold(key, "K"):
			err = s.integer(&req.K)
		case fold(key, "BACKEND"):
			err = s.backend(&req.Backend)
		default:
			err = s.skip()
		}
		return err
	})
}

// backend decodes the value at the cursor — a string or null — into *v,
// without allocating for the three values that mean something.
func (s *scanner) backend(v *string) error {
	if null, err := s.isNull(); null {
		return err
	}
	raw, simple, err := s.str()
	if err != nil {
		return err
	}
	if !simple {
		raw = unquote(raw)
	}
	for _, known := range backends {
		if string(raw) == known {
			*v = known
			return nil
		}
	}
	*v = string(raw)
	return nil
}

func decodeAddRequestJSON(req *AddRequest, body []byte) error {
	vs := req.Vectors
	req.Vectors = vs[:0]
	s := scanner{b: body}
	return s.object(func(key []byte) (err error) {
		if !fold(key, "VECTORS") {
			return s.skip()
		}
		req.Vectors, err = s.vectors(vs)
		return err
	})
}

// errNonFinite is what encoding/json's UnsupportedValueError amounts to:
// JSON has no NaN or Inf, so a reply holding one cannot be encoded.
var errNonFinite = errors.New("json: unsupported value: non-finite float")

// appendFloat appends f the way encoding/json formats a float of the
// given bit size: shortest digits that round-trip, 'f' notation except
// 'e' below 1e-6 and from 1e21 (compared at that precision), and
// two-digit exponents trimmed to one (e-07 → e-7).
func appendFloat(dst []byte, f float64, bits int) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 {
		if bits == 64 && (abs < 1e-6 || abs >= 1e21) || bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21) {
			format = 'e'
		}
	}
	dst = strconv.AppendFloat(dst, f, format, -1, bits)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendSearchReplyJSON appends what json.NewEncoder(w).Encode(rep)
// writes, trailing newline included. Like that encoder it produces
// nothing but an error when a score is NaN or ±Inf.
func appendSearchReplyJSON(dst []byte, rep *SearchReply) ([]byte, error) {
	start := len(dst)
	finite := func(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
	dst = append(dst, `{"results":`...)
	if rep.Results == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, row := range rep.Results {
			if i > 0 {
				dst = append(dst, ',')
			}
			if row == nil {
				dst = append(dst, "null"...)
				continue
			}
			dst = append(dst, '[')
			for j, r := range row {
				if j > 0 {
					dst = append(dst, ',')
				}
				if !finite(float64(r.Score)) {
					return dst[:start], errNonFinite
				}
				dst = append(dst, `{"id":`...)
				dst = strconv.AppendInt(dst, r.ID, 10)
				dst = append(dst, `,"score":`...)
				dst = appendFloat(dst, float64(r.Score), 32)
				dst = append(dst, '}')
			}
			dst = append(dst, ']')
		}
		dst = append(dst, ']')
	}
	if rep.Cycles != 0 {
		dst = strconv.AppendInt(append(dst, `,"cycles":`...), rep.Cycles, 10)
	}
	if rep.TrafficBytes != 0 {
		dst = strconv.AppendInt(append(dst, `,"traffic_bytes":`...), rep.TrafficBytes, 10)
	}
	if rep.ChipEnergyJ != 0 {
		if !finite(rep.ChipEnergyJ) {
			return dst[:start], errNonFinite
		}
		dst = appendFloat(append(dst, `,"chip_energy_j":`...), rep.ChipEnergyJ, 64)
	}
	return append(dst, '}', '\n'), nil
}

// appendAddReplyJSON appends what json.NewEncoder(w).Encode(rep) writes.
func appendAddReplyJSON(dst []byte, rep AddReply) []byte {
	dst = strconv.AppendInt(append(dst, `{"first_id":`...), rep.FirstID, 10)
	dst = strconv.AppendInt(append(dst, `,"count":`...), int64(rep.Count), 10)
	return append(dst, '}', '\n')
}
