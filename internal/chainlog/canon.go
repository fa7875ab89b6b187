package chainlog

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"unicode/utf8"
)

// The canonical codec. A format writes a hot record's members by hand,
// each exactly as encoding/json's Marshal would, and reads the record
// back with a Scanner that takes only those bytes. Decoding the
// canonical form through encoding/json gives the same values, so the
// formats keep one wire form however a line is decoded.

const hexDigits = "0123456789abcdef"

// plain reports whether Marshal writes the ASCII byte c inside a string
// as itself: anything but a control byte, a quote, a backslash or one
// of the HTML-unsafe <, > and &.
func plain(c byte) bool {
	return c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// AppendString appends s as the JSON string encoding/json's Marshal
// writes: \b \f \n \r \t and the other control bytes, <, > and &
// escaped; each invalid UTF-8 byte as \ufffd; U+2028 and U+2029
// escaped.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if plain(c) {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// strictBase64 decodes only base64 whose padding bits are zero.
var strictBase64 = base64.StdEncoding.Strict()

// Scanner reads the members of a line prefix (see Prefix) that must be
// in exactly the form the format writes: fixed literals, then numbers,
// strings and byte slices as Marshal writes them. Whitespace, another
// key order, a leading zero, an upper-case hex digit or an escape
// Marshal would not write fails the scan. After a failure every method
// returns a zero value and consumes nothing; Done reports it.
type Scanner struct {
	b   []byte // the unread rest
	n   int    // the prefix length, to report where a scan failed
	bad bool
}

// NewScanner scans prefix.
func NewScanner(prefix []byte) Scanner { return Scanner{b: prefix, n: len(prefix)} }

// Want fails the scan unless ok: a member the format leaves out when it
// is zero is not canonical when present and zero.
func (s *Scanner) Want(ok bool) {
	if !ok {
		s.bad = true
	}
}

// Opt consumes lit if the rest starts with it, and reports whether it
// did.
func (s *Scanner) Opt(lit string) bool {
	if s.bad || !bytes.HasPrefix(s.b, []byte(lit)) {
		return false
	}
	s.b = s.b[len(lit):]
	return true
}

// Lit consumes lit, or fails the scan.
func (s *Scanner) Lit(lit string) { s.Want(s.Opt(lit)) }

// magnitude reads a run of decimal digits with no leading zero that
// fits a uint64.
func (s *Scanner) magnitude() uint64 {
	var v uint64
	i := 0
	for ; i < len(s.b) && '0' <= s.b[i] && s.b[i] <= '9'; i++ {
		d := uint64(s.b[i] - '0')
		if v > (math.MaxUint64-d)/10 {
			s.bad = true
			return 0
		}
		v = v*10 + d
	}
	if s.bad || i == 0 || (i > 1 && s.b[0] == '0') {
		s.bad = true
		return 0
	}
	s.b = s.b[i:]
	return v
}

// Uint64 reads an unsigned decimal integer.
func (s *Scanner) Uint64() uint64 { return s.magnitude() }

// Uint32 reads an unsigned decimal integer that fits a uint32.
func (s *Scanner) Uint32() uint32 {
	v := s.magnitude()
	s.Want(v <= math.MaxUint32)
	return uint32(v)
}

// Bool reads true or false.
func (s *Scanner) Bool() bool {
	if s.Opt("true") {
		return true
	}
	s.Lit("false")
	return false
}

// Int64 reads a decimal integer: no "-0", nothing outside an int64.
func (s *Scanner) Int64() int64 {
	rest := s.b
	neg := s.Opt("-")
	v := s.magnitude()
	if s.bad || neg && (v == 0 || v > 1<<63) || !neg && v > math.MaxInt64 {
		s.b, s.bad = rest, true
		return 0
	}
	if neg {
		return -int64(v)
	}
	return int64(v)
}

// Int reads a decimal integer that fits an int.
func (s *Scanner) Int() int {
	v := s.Int64()
	s.Want(int64(int(v)) == v)
	return int(v)
}

// Hex16 reads a quoted digest as AppendHex16 writes it.
func (s *Scanner) Hex16() uint64 {
	if s.bad || len(s.b) < 18 || s.b[0] != '"' || s.b[17] != '"' {
		s.bad = true
		return 0
	}
	var v uint64
	for _, c := range s.b[1:17] {
		switch {
		case '0' <= c && c <= '9':
			v = v<<4 | uint64(c-'0')
		case 'a' <= c && c <= 'f':
			v = v<<4 | uint64(c-'a'+10)
		default:
			s.bad = true
			return 0
		}
	}
	s.b = s.b[18:]
	return v
}

// Str reads a string as AppendString writes it. The value of a string
// of plain ASCII shares the line's bytes; copy it to keep it. A string
// with escapes or non-ASCII bytes, which no hot record holds in
// practice, is decoded by encoding/json and taken only if AppendString
// writes its bytes back.
func (s *Scanner) Str() []byte {
	if s.bad || len(s.b) == 0 || s.b[0] != '"' {
		s.bad = true
		return nil
	}
	plainOnly := true
	i := 1
	for ; i < len(s.b) && s.b[i] != '"'; i++ {
		if c := s.b[i]; c >= utf8.RuneSelf || !plain(c) {
			plainOnly = false
			if c == '\\' {
				i++
			}
		}
	}
	if i >= len(s.b) {
		s.bad = true
		return nil
	}
	tok := s.b[:i+1]
	if plainOnly {
		s.b = s.b[i+1:]
		return tok[1:i]
	}
	var v string
	if json.Unmarshal(tok, &v) != nil || !bytes.Equal(AppendString(nil, v), tok) {
		s.bad = true
		return nil
	}
	s.b = s.b[i+1:]
	return []byte(v)
}

// Base64 reads a []byte as Marshal writes it: a quoted, padded standard
// base64 string. The value is freshly allocated.
func (s *Scanner) Base64() []byte {
	end := -1
	if !s.bad && len(s.b) > 0 && s.b[0] == '"' {
		end = bytes.IndexByte(s.b[1:], '"') + 1
	}
	if end <= 0 {
		s.bad = true
		return nil
	}
	enc := s.b[1:end]
	v := make([]byte, strictBase64.DecodedLen(len(enc)))
	// Decode skips CR and LF; the length check refuses them.
	n, err := strictBase64.Decode(v, enc)
	if err != nil || strictBase64.EncodedLen(n) != len(enc) {
		s.bad = true
		return nil
	}
	s.b = s.b[end+1:]
	return v[:n]
}

// Done reports a scan that failed or left bytes unread as element
// elem's unparseable-line *Error.
func (s *Scanner) Done(elem int) error {
	if !s.bad && len(s.b) == 0 {
		return nil
	}
	return &Error{Elem: elem, Reason: fmt.Sprintf("unparseable line: not in canonical form at byte %d", s.n-len(s.b))}
}
