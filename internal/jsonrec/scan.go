package jsonrec

import (
	"bytes"
	"fmt"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth bounds the nesting of a skipped value, far below
// encoding/json's own limit, so every value this package accepts is
// one encoding/json accepts too.
const maxDepth = 1000

// scanner walks one JSON text. Every method skips leading whitespace,
// consumes exactly one token or value, and reports malformed input
// with its byte offset.
type scanner struct {
	b   []byte
	i   int
	buf *[]byte // unescape scratch, owned by the Decoder
}

func (s *scanner) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: "+format, append([]any{s.i}, args...)...)
}

// next skips whitespace and returns the byte there, or 0 at the end
// (which a NUL byte also returns: callers that must tell the two apart
// compare the position with the input length).
func (s *scanner) next() byte {
	for s.i < len(s.b) {
		switch c := s.b[s.i]; c {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return c
		}
	}
	return 0
}

func (s *scanner) expect(c byte) error {
	if s.next() != c {
		return s.errorf("expected %q", c)
	}
	s.i++
	return nil
}

// more consumes the separator after an object member or array element
// and reports whether another one follows.
func (s *scanner) more(end byte) (bool, error) {
	switch s.next() {
	case ',':
		s.i++
		return true, nil
	case end:
		s.i++
		return false, nil
	}
	return false, s.errorf("expected ',' or %q", end)
}

// str reads a string and returns its decoded bytes exactly as
// encoding/json unquotes them: invalid UTF-8 and unpaired surrogate
// escapes become U+FFFD. The result aliases the input when the string
// holds no escapes and the scratch buffer otherwise; it is valid until
// the next str call.
func (s *scanner) str() ([]byte, error) {
	if s.next() != '"' {
		return nil, s.errorf("expected string")
	}
	s.i++
	start := s.i
	for s.i < len(s.b) {
		c := s.b[s.i]
		switch {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], nil
		case c == '\\' || c < ' ':
			return s.unquote(start)
		case c < utf8.RuneSelf:
			s.i++
		default:
			r, n := utf8.DecodeRune(s.b[s.i:])
			if r == utf8.RuneError && n == 1 {
				return s.unquote(start)
			}
			s.i += n
		}
	}
	return nil, s.errorf("unterminated string")
}

// unquote is str's slow path, entered at the first byte that needs
// rewriting.
func (s *scanner) unquote(start int) ([]byte, error) {
	out := append((*s.buf)[:0], s.b[start:s.i]...)
	defer func() { *s.buf = out[:0] }()
	for s.i < len(s.b) {
		c := s.b[s.i]
		switch {
		case c == '"':
			s.i++
			return out, nil
		case c < ' ':
			return nil, s.errorf("control character in string")
		case c == '\\':
			if s.i+1 >= len(s.b) {
				return nil, s.errorf("unterminated string")
			}
			switch e := s.b[s.i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(s.b[s.i:])
				if r < 0 {
					return nil, s.errorf("invalid \\u escape")
				}
				s.i += 6
				if utf16.IsSurrogate(r) {
					if dec := utf16.DecodeRune(r, hex4(s.b[s.i:])); dec != utf8.RuneError {
						s.i += 6
						out = utf8.AppendRune(out, dec)
						continue
					}
					r = utf8.RuneError
				}
				out = utf8.AppendRune(out, r)
				continue
			default:
				return nil, s.errorf("invalid escape %q", e)
			}
			s.i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			s.i++
		default:
			r, n := utf8.DecodeRune(s.b[s.i:])
			if r == utf8.RuneError && n == 1 {
				out = utf8.AppendRune(out, utf8.RuneError)
			} else {
				out = append(out, s.b[s.i:s.i+n]...)
			}
			s.i += n
		}
	}
	return nil, s.errorf("unterminated string")
}

// hex4 decodes the `\uXXXX` escape at the start of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[2:6] {
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

// int reads an integer that fits in bits bits, rejecting fractions and
// exponents as encoding/json does for an integer field.
func (s *scanner) int(bits uint) (int64, error) {
	s.next()
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	digits := s.b[start:s.i]
	if len(digits) == 0 || digits[0] == '0' && len(digits) > 1 {
		return 0, s.errorf("expected integer")
	}
	if s.i < len(s.b) {
		switch s.b[s.i] {
		case '.', 'e', 'E':
			return 0, s.errorf("expected integer")
		}
	}
	limit := uint64(1) << (bits - 1) // magnitude of the most negative value
	var u uint64
	for _, c := range digits {
		d := uint64(c - '0')
		if u > (limit-d)/10 {
			return 0, s.errorf("integer overflow")
		}
		u = u*10 + d
	}
	if neg {
		return -int64(u), nil
	}
	if u == limit {
		return 0, s.errorf("integer overflow")
	}
	return int64(u), nil
}

func (s *scanner) bool() (bool, error) {
	s.next()
	rest := s.b[s.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		s.i += 4
		return true, nil
	case bytes.HasPrefix(rest, []byte("false")):
		s.i += 5
		return false, nil
	}
	return false, s.errorf("expected boolean")
}

// skip validates and consumes one value of any type.
func (s *scanner) skip(depth int) error {
	if depth > maxDepth {
		return s.errorf("nesting too deep")
	}
	switch c := s.next(); {
	case c == '"':
		_, err := s.str()
		return err
	case c == '{' || c == '[':
		end := byte('}')
		if c == '[' {
			end = ']'
		}
		s.i++
		if s.next() == end {
			s.i++
			return nil
		}
		for more := true; more; {
			if c == '{' {
				if _, err := s.str(); err != nil {
					return err
				}
				if err := s.expect(':'); err != nil {
					return err
				}
			}
			if err := s.skip(depth + 1); err != nil {
				return err
			}
			var err error
			if more, err = s.more(end); err != nil {
				return err
			}
		}
		return nil
	case c == 't' || c == 'f':
		_, err := s.bool()
		return err
	case c == 'n':
		if !bytes.HasPrefix(s.b[s.i:], []byte("null")) {
			return s.errorf("invalid literal")
		}
		s.i += 4
		return nil
	case c == '-' || '0' <= c && c <= '9':
		return s.number()
	}
	return s.errorf("expected value")
}

// number consumes a number of any form the JSON grammar allows.
func (s *scanner) number() error {
	digits := func() int {
		start := s.i
		for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
			s.i++
		}
		return s.i - start
	}
	if s.b[s.i] == '-' {
		s.i++
	}
	lead := s.i
	if n := digits(); n == 0 || s.b[lead] == '0' && n > 1 {
		return s.errorf("invalid number")
	}
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		if digits() == 0 {
			return s.errorf("invalid number")
		}
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if digits() == 0 {
			return s.errorf("invalid number")
		}
	}
	return nil
}

// key reads an object key and its colon and returns the index of the
// name it selects, or -1. Matching follows encoding/json: an exact
// match first, then a case-insensitive one. hint is the index tried
// first, so keys in writer order cost one comparison each.
func (s *scanner) key(names []string, hint int) (int, error) {
	k, err := s.str()
	if err != nil {
		return 0, err
	}
	if err := s.expect(':'); err != nil {
		return 0, err
	}
	if hint < len(names) && string(k) == names[hint] {
		return hint, nil
	}
	for i, n := range names {
		if string(k) == n {
			return i, nil
		}
	}
	for i, n := range names {
		if bytes.EqualFold(k, []byte(n)) {
			return i, nil
		}
	}
	return -1, nil
}
