// Package ksym encodes and recovers Linux kernel export tables
// (.ksymtab / .ksymtab_strings).
//
// The guest kernel writes these sections into its image at boot using
// the layout its version actually used; the VMSH sideloader, which has
// no a-priori knowledge of the version, recovers the exported symbol
// addresses by scanning the image bytes with the consistency-check
// approach described in the paper (§4.2, §6.2): every candidate layout
// is validated in parallel by checking whether name references resolve
// to valid strings.
package ksym

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"vmsh/internal/mem"
)

// Layout enumerates the on-disk ksymtab entry encodings that shipped
// in the LTS kernels the paper tests. The layout changed twice across
// the 4.4 - 5.10 span.
type Layout int

const (
	// LayoutAbsolute: struct kernel_symbol { u64 value; u64 name; }
	// (v4.4, v4.9, v4.14).
	LayoutAbsolute Layout = iota
	// LayoutPosRel: { s32 value_offset; s32 name_offset; } with
	// PREL32 relocations (v4.19).
	LayoutPosRel
	// LayoutPosRelNS: { s32 value_offset; s32 name_offset;
	// s32 namespace_offset; } (v5.4, v5.10+).
	LayoutPosRelNS
)

// String implements fmt.Stringer.
func (l Layout) String() string {
	switch l {
	case LayoutAbsolute:
		return "absolute"
	case LayoutPosRel:
		return "prel32"
	case LayoutPosRelNS:
		return "prel32-ns"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// EntrySize returns the byte size of one table entry in this layout.
func (l Layout) EntrySize() int {
	switch l {
	case LayoutAbsolute:
		return 16
	case LayoutPosRel:
		return 8
	case LayoutPosRelNS:
		return 12
	default:
		panic("ksym: unknown layout")
	}
}

// Symbol is one exported kernel symbol.
type Symbol struct {
	Name  string
	Value mem.GVA
}

// Sections holds the encoded bytes plus the in-image offsets chosen by
// the builder; the guest kernel copies them into its image.
type Sections struct {
	Layout     Layout
	Tab        []byte // .ksymtab
	Strings    []byte // .ksymtab_strings
	TabGVA     mem.GVA
	StringsGVA mem.GVA
}

// Build encodes syms for the given layout. tabGVA and stringsGVA are
// the virtual addresses the sections will occupy in the guest image
// (needed because two of the layouts store position-relative offsets
// and one stores absolute addresses). Symbols are emitted sorted by
// name, matching the kernel's export sorting.
func Build(layout Layout, syms []Symbol, tabGVA, stringsGVA mem.GVA) (*Sections, error) {
	sorted := make([]Symbol, len(syms))
	copy(sorted, syms)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })

	strOff := make(map[string]uint64, len(sorted))
	var sb []byte
	for _, s := range sorted {
		if s.Name == "" || strings.ContainsRune(s.Name, 0) {
			return nil, fmt.Errorf("ksym: invalid symbol name %q", s.Name)
		}
		if _, dup := strOff[s.Name]; dup {
			return nil, fmt.Errorf("ksym: duplicate symbol %q", s.Name)
		}
		strOff[s.Name] = uint64(len(sb))
		sb = append(sb, s.Name...)
		sb = append(sb, 0)
	}

	es := layout.EntrySize()
	tab := make([]byte, es*len(sorted))
	for i, s := range sorted {
		e := tab[i*es:]
		entryGVA := tabGVA + mem.GVA(i*es)
		nameGVA := stringsGVA + mem.GVA(strOff[s.Name])
		switch layout {
		case LayoutAbsolute:
			binary.LittleEndian.PutUint64(e[0:], uint64(s.Value))
			binary.LittleEndian.PutUint64(e[8:], uint64(nameGVA))
		case LayoutPosRel:
			binary.LittleEndian.PutUint32(e[0:], uint32(int32(int64(s.Value)-int64(entryGVA))))
			binary.LittleEndian.PutUint32(e[4:], uint32(int32(int64(nameGVA)-int64(entryGVA)-4)))
		case LayoutPosRelNS:
			binary.LittleEndian.PutUint32(e[0:], uint32(int32(int64(s.Value)-int64(entryGVA))))
			binary.LittleEndian.PutUint32(e[4:], uint32(int32(int64(nameGVA)-int64(entryGVA)-4)))
			binary.LittleEndian.PutUint32(e[8:], 0) // no namespace
		}
	}
	return &Sections{Layout: layout, Tab: tab, Strings: sb, TabGVA: tabGVA, StringsGVA: stringsGVA}, nil
}

// Anchors are exported names the scanner searches for first; they are
// stable across every kernel version VMSH supports, so finding any of
// them pins down .ksymtab_strings.
var Anchors = []string{"filp_open", "kernel_read", "wake_up_process"}

// ScanResult is the outcome of recovering the export table from raw
// image bytes.
type ScanResult struct {
	Layout     Layout
	Symbols    map[string]mem.GVA
	StringsGVA mem.GVA
	TabGVA     mem.GVA
	TabLen     int // bytes
}

// Scan recovers the symbol table from an image window. img holds the
// raw bytes of the kernel image as read out of guest memory and base
// is the GVA of img[0]. Scan locates .ksymtab_strings via the anchor
// names, then tries every layout in parallel, keeping the one whose
// candidate table has the most consecutively valid entries — the
// "checking whether a kernel symbol name points to a valid string"
// consistency check from the paper.
func Scan(img []byte, base mem.GVA) (*ScanResult, error) {
	strStart, strEnd := findStrings(img)
	if strStart < 0 {
		return nil, fmt.Errorf("ksym: no .ksymtab_strings anchor found in %d-byte window", len(img))
	}
	type cand struct {
		layout Layout
		start  int
		count  int
	}
	var best *cand
	for _, layout := range []Layout{LayoutAbsolute, LayoutPosRel, LayoutPosRelNS} {
		start, count := findTable(img, base, layout, strStart, strEnd)
		if count == 0 {
			continue
		}
		if best == nil || count > best.count {
			best = &cand{layout: layout, start: start, count: count}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("ksym: strings section found at +%#x but no ksymtab matches any layout", strStart)
	}
	res := &ScanResult{
		Layout:     best.layout,
		Symbols:    make(map[string]mem.GVA, best.count),
		StringsGVA: base + mem.GVA(strStart),
		TabGVA:     base + mem.GVA(best.start),
		TabLen:     best.count * best.layout.EntrySize(),
	}
	es := best.layout.EntrySize()
	for i := 0; i < best.count; i++ {
		off := best.start + i*es
		name, value, ok := decodeEntry(img, base, best.layout, off, strStart, strEnd)
		if !ok {
			return nil, fmt.Errorf("ksym: entry %d became invalid during decode", i)
		}
		res.Symbols[name] = value
	}
	return res, nil
}

// findStrings locates a plausible [start, end) window of the strings
// section: the region of consecutive printable C strings surrounding
// the first anchor hit.
func findStrings(img []byte) (int, int) {
	return stringsAround(img, anchorHit(img))
}

// anchorHit returns the offset of the first anchor found, trying the
// anchors in order, each NUL-delimited first and then at the very
// start of the section; -1 when img holds none.
func anchorHit(img []byte) int {
	for _, a := range Anchors {
		needle := append(append([]byte{0}, a...), 0)
		if i := bytes.Index(img, needle); i >= 0 {
			return i + 1
		}
		if i := bytes.Index(img, needle[1:]); i >= 0 {
			return i
		}
	}
	return -1
}

// stringsAround grows the window of whole NUL-terminated strings
// around the anchor at hit; hit < 0 yields (-1, -1).
func stringsAround(img []byte, hit int) (int, int) {
	if hit < 0 {
		return -1, -1
	}
	start := hit
	for start > 0 && isStringByte(img[start-1]) {
		start--
	}
	// Extend backwards over whole NUL-terminated strings.
	for start > 0 {
		p := start - 1
		if img[p] != 0 {
			break
		}
		q := p
		for q > 0 && isStringByte(img[q-1]) {
			q--
		}
		if q == p { // empty string: treat as section edge
			break
		}
		start = q
	}
	end := hit
	for end < len(img) {
		q := end
		for q < len(img) && isStringByte(img[q]) {
			q++
		}
		if q == end || q >= len(img) || img[q] != 0 {
			break
		}
		end = q + 1
	}
	return start, end
}

func isStringByte(b byte) bool {
	return b == '_' || b == '.' || b == '-' ||
		(b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || (b >= '0' && b <= '9')
}

// findTable scans img for the longest run of entries in the given
// layout whose name references land on string starts inside the
// strings window. Candidates are the aligned offsets nameInWindow
// passes; only those pay for a full decodeEntry.
func findTable(img []byte, base mem.GVA, layout Layout, strStart, strEnd int) (start, count int) {
	es := layout.EntrySize()
	align := 4
	if layout == LayoutAbsolute {
		align = 8
	}
	bestStart, bestCount := 0, 0
	i := nameInWindow(img, base, layout, 0, strStart, strEnd)
	for i+es <= len(img) {
		runStart, run := i, 0
		for i+es <= len(img) {
			if _, _, ok := decodeEntry(img, base, layout, i, strStart, strEnd); !ok {
				break
			}
			run++
			i += es
		}
		if run > bestCount {
			bestStart, bestCount = runStart, run
		}
		// Empty or not, a run resumes the search one step past where
		// it stopped.
		i = nameInWindow(img, base, layout, i+align, strStart, strEnd)
	}
	return bestStart, bestCount
}

// nameInWindow returns the first offset from i on, stepping by the
// layout's alignment, whose whole entry lies in img and whose name
// reference lands in [strStart, strEnd): decodeEntry's first test,
// run as a tight loop. It returns an offset whose entry overruns img
// when there is none.
func nameInWindow(img []byte, base mem.GVA, layout Layout, i, strStart, strEnd int) int {
	// decodeEntry's nameOff is taken mod 2^64, so lo <= nameOff < hi
	// is one unsigned comparison against the window's span.
	lo, span := uint64(strStart), uint64(strEnd-strStart)
	switch layout {
	case LayoutAbsolute:
		// nameOff = name - base.
		b := uint64(base) + lo
		for ; i+16 <= len(img); i += 8 {
			if binary.LittleEndian.Uint64(img[i+8:i+16])-b < span {
				return i
			}
		}
	default:
		// nameOff = i + 4 + sign-extended s32 at i+4.
		es := layout.EntrySize()
		for ; i+es <= len(img); i += 4 {
			rel := int64(int32(binary.LittleEndian.Uint32(img[i+4 : i+8])))
			if uint64(int64(i)+4+rel)-lo < span {
				return i
			}
		}
	}
	return i
}

// decodeEntry validates and decodes one candidate entry at img[off:].
func decodeEntry(img []byte, base mem.GVA, layout Layout, off, strStart, strEnd int) (string, mem.GVA, bool) {
	es := layout.EntrySize()
	if off+es > len(img) {
		return "", 0, false
	}
	var nameGVA, valueGVA mem.GVA
	switch layout {
	case LayoutAbsolute:
		valueGVA = mem.GVA(binary.LittleEndian.Uint64(img[off:]))
		nameGVA = mem.GVA(binary.LittleEndian.Uint64(img[off+8:]))
	case LayoutPosRel, LayoutPosRelNS:
		entryGVA := base + mem.GVA(off)
		valueGVA = entryGVA + mem.GVA(int64(int32(binary.LittleEndian.Uint32(img[off:]))))
		nameGVA = entryGVA + 4 + mem.GVA(int64(int32(binary.LittleEndian.Uint32(img[off+4:]))))
	}
	nameOff := int64(nameGVA) - int64(base)
	if nameOff < int64(strStart) || nameOff >= int64(strEnd) {
		return "", 0, false
	}
	// Must be the *start* of a string: preceded by NUL or section start.
	if nameOff > int64(strStart) && img[nameOff-1] != 0 {
		return "", 0, false
	}
	end := nameOff
	for end < int64(strEnd) && img[end] != 0 {
		if !isStringByte(img[end]) {
			return "", 0, false
		}
		end++
	}
	if end == nameOff || end >= int64(strEnd) {
		return "", 0, false
	}
	// Value must point somewhere plausible: canonical high-half.
	if uint64(valueGVA)>>47 != 0x1ffff {
		return "", 0, false
	}
	return string(img[nameOff:end]), valueGVA, true
}
