// Package chainlogtest helps test the formats built on chainlog: it
// re-links an edited stream's checksum chain, lists a stream's elements
// as chainlog.Read numbers them, and draws strings that need every
// escape encoding/json writes.
package chainlogtest

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"

	"vmsh/internal/faults"
)

const ckField = `,"ck":"`

// lines splits a stream as chainlog.Read's scanner does.
func lines(data []byte) [][]byte {
	ls := bytes.Split(data, []byte("\n"))
	for i, l := range ls {
		ls[i] = bytes.TrimSuffix(l, []byte("\r"))
	}
	return ls
}

// Rechain recomputes every checksum of a chained stream, so that an
// edited line reaches the format's line decoder instead of stopping at
// the chain. A line without a well-formed "ck" member is left as it is.
func Rechain(data []byte) []byte {
	ls := lines(data)
	ck := uint64(faults.NewDigest().U64(0).Bytes(ls[0]))
	for i, l := range ls[1:] {
		n := len(l) - len(ckField) - 16 - 2
		if len(bytes.TrimSpace(l)) == 0 || n < 1 || !bytes.HasPrefix(l[n:], []byte(ckField)) || !bytes.HasSuffix(l, []byte(`"}`)) {
			continue
		}
		ck = uint64(faults.NewDigest().U64(ck).Bytes(l[:n]))
		ls[i+1] = fmt.Appendf(l[:n:n], `%s%016x"}`, ckField, ck)
	}
	return bytes.Join(ls, []byte("\n"))
}

// Elems returns a stream's elements, the non-blank lines after the
// header: chainlog.Read's element n is Elems(data)[n-1].
func Elems(data []byte) [][]byte {
	var out [][]byte
	for _, l := range lines(data)[1:] {
		if len(bytes.TrimSpace(l)) > 0 {
			out = append(out, l)
		}
	}
	return out
}

// RandString draws strings that need every escape json.Marshal writes:
// HTML-unsafe bytes, quotes, control bytes, non-ASCII, U+2028 and
// U+2029, and invalid UTF-8.
func RandString(rng *rand.Rand) string {
	pieces := []string{"", "a", "vda", "procvm:readv", "<", ">", "&", `"`, `\`, "/",
		"\b", "\f", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "\u00e9", "\u65e5\u672c",
		"\u2028", "\u2029", "\ufffd", "\xff", "\xe2\x80"}
	var b strings.Builder
	for i, n := 0, rng.Intn(5); i < n; i++ {
		b.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return b.String()
}
