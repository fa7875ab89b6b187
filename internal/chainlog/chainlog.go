// Package chainlog is the line framing shared by vmsh's replay logs and
// snapshot files: newline-separated JSON objects whose checksums form
// one FNV-64a chain.
//
//	{"magic":M,"v":V,...}           header; seeds the chain
//	{...,"ck":"<hex16>"}            every later line
//
// A line's "ck" folds the previous checksum (the header's for the first
// line) with the line's prefix, its bytes up to and excluding the
// ,"ck" field: ck = faults.NewDigest().U64(prev).Str(prefix), where the
// header's own checksum is the fold of its whole line onto 0. Any
// flipped, dropped or reordered line breaks the chain at the first bad
// line. The formats on top own their record schemas, render their lines
// canonically, and say which line is the footer that ends the stream.
// Their hot records are written and read field by field with this
// package's canonical codec (AppendString, AppendHex16, Scanner), which
// accepts only the exact bytes it writes.
package chainlog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

	"vmsh/internal/faults"
)

// Error is a framing failure: the stream is damaged at element Elem
// (1-based, counting non-blank lines after the header; 0 is the header
// itself). Magic and version mismatches are not Errors — the stream is
// the wrong kind of file, not a damaged one.
type Error struct {
	Elem   int
	Reason string
}

// Error implements error.
func (e *Error) Error() string { return fmt.Sprintf("element %d: %s", e.Elem, e.Reason) }

// Hex16 formats a digest as fixed-width lowercase hex.
func Hex16(v uint64) string {
	var buf [16]byte
	return string(AppendHex16(buf[:0], v))
}

// AppendHex16 appends Hex16(v) to b.
func AppendHex16(b []byte, v uint64) []byte {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, digits[v>>shift&0xf])
	}
	return b
}

// ParseHex16 is the inverse of Hex16.
func ParseHex16(s string) (uint64, error) {
	if len(s) != 16 {
		return 0, fmt.Errorf("digest %q is not 16 hex digits", s)
	}
	return strconv.ParseUint(s, 16, 64)
}

// fold chains one line's content onto the previous checksum.
func fold(prev uint64, content []byte) uint64 {
	return uint64(faults.NewDigest().U64(prev).Bytes(content))
}

// ckField opens the checksum field every chained line ends with:
// `,"ck":"` + 16 hex digits + `"}`.
const ckField = `,"ck":"`

// ckSuffixLen is the length of a line's whole ,"ck":"…"} tail.
const ckSuffixLen = len(ckField) + 16 + 2

// Writer emits a chained stream. Errors are sticky: after the first
// failed write every call is a no-op and Flush reports it.
type Writer struct {
	bw   *bufio.Writer
	ck   uint64
	n    int64
	err  error
	tail [ckSuffixLen + 1]byte // the current line's ,"ck":"…"} and newline
}

// NewWriter writes the header {"magic":magic,"v":version<fields>} to w.
// fields is the format's own header members, each with its leading
// comma (e.g. `,"label":"x"`), or "".
func NewWriter(w io.Writer, magic string, version int, fields string) *Writer {
	cw := &Writer{bw: bufio.NewWriter(w)}
	m, _ := json.Marshal(magic) // a string always marshals
	hdr := fmt.Appendf(nil, `{"magic":%s,"v":%d%s}`+"\n", m, version, fields)
	cw.ck = fold(0, hdr[:len(hdr)-1])
	cw.write(hdr)
	return cw
}

// Line appends one chained line. prefix is the line's JSON object
// without its closing brace; Line adds the "ck" field and the brace.
func (w *Writer) Line(prefix []byte) {
	w.ck = fold(w.ck, prefix)
	tail := AppendHex16(append(w.tail[:0], ckField...), w.ck)
	w.write(prefix)
	w.write(append(tail, '"', '}', '\n'))
}

func (w *Writer) write(b []byte) {
	if w.err != nil {
		return
	}
	m, err := w.bw.Write(b)
	w.n += int64(m)
	w.err = err
}

// Flush flushes the stream and returns the bytes written and the first
// error met.
func (w *Writer) Flush() (int64, error) {
	if w.err == nil {
		w.err = w.bw.Flush()
	}
	return w.n, w.err
}

// Prefix returns a line Read handed over without its "ck" member and
// closing brace: the bytes Writer.Line was given, which the chain
// covers.
func Prefix(line []byte) []byte { return line[:len(line)-ckSuffixLen] }

// Unmarshal decodes a line Read handed over with encoding/json, for a
// format's cold records. A failure is element elem's unparseable-line
// *Error.
func Unmarshal(elem int, line []byte, v any) error {
	if err := json.Unmarshal(line, v); err != nil {
		return &Error{Elem: elem, Reason: "unparseable line: " + err.Error()}
	}
	return nil
}

// Read checks the framing of a chained stream. It decodes the header
// into hdr (when non-nil) after checking its magic and version, then
// hands every later non-blank line, checksum verified, to fn with its
// element number. The line is the whole JSON object, its "ck" member
// included, and is valid only until fn returns; fn decodes it and
// reports a line it cannot take as an unparseable-line *Error. fn
// returns end=true for the footer, after which only blank lines may
// follow. Framing damage — empty input, a bad header, a line without a
// "ck" member, a broken chain, truncation before the footer, trailing
// data after it — is an *Error; a magic or version mismatch is a plain
// error; an error from fn is returned unchanged.
func Read(r io.Reader, magic string, version int, hdr any, fn func(elem int, line []byte) (end bool, err error)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	scanErr := func(elem int) error {
		if err := sc.Err(); errors.Is(err, bufio.ErrTooLong) {
			return &Error{Elem: elem, Reason: "line too long"}
		} else if err != nil {
			return err
		}
		return nil
	}

	if !sc.Scan() {
		if err := scanErr(0); err != nil {
			return err
		}
		return &Error{Reason: "empty stream"}
	}
	line := sc.Bytes()
	var h struct {
		Magic *string `json:"magic"`
		V     int     `json:"v"`
	}
	if err := json.Unmarshal(line, &h); err != nil || h.Magic == nil {
		return &Error{Reason: "bad header"}
	}
	if *h.Magic != magic {
		return fmt.Errorf("not a %s stream (magic %q)", magic, *h.Magic)
	}
	if h.V != version {
		return fmt.Errorf("%s version skew: stream is v%d, this reader understands v%d", magic, h.V, version)
	}
	if hdr != nil {
		if err := json.Unmarshal(line, hdr); err != nil {
			return &Error{Reason: "bad header: " + err.Error()}
		}
	}
	ck := fold(0, line)

	elem, ended := 0, false
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		elem++
		if ended {
			return &Error{Elem: elem, Reason: "trailing data after footer"}
		}
		n := len(line) - ckSuffixLen
		if n < 1 || !bytes.HasPrefix(line[n:], []byte(ckField)) || !bytes.HasSuffix(line, []byte(`"}`)) {
			return &Error{Elem: elem, Reason: "unparseable line: no trailing \"ck\" field"}
		}
		lineCk, err := strconv.ParseUint(string(line[n+len(ckField):len(line)-2]), 16, 64)
		if err != nil {
			return &Error{Elem: elem, Reason: "bad checksum field: " + err.Error()}
		}
		if ck = fold(ck, line[:n]); ck != lineCk {
			return &Error{Elem: elem, Reason: fmt.Sprintf("checksum chain mismatch (want %s, line has %s)", Hex16(ck), Hex16(lineCk))}
		}
		if ended, err = fn(elem, line); err != nil {
			return err
		}
	}
	if err := scanErr(elem + 1); err != nil {
		return err
	}
	if !ended {
		return &Error{Elem: elem + 1, Reason: "truncated stream (no footer)"}
	}
	return nil
}
