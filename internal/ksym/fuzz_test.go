package ksym

import (
	"strings"
	"testing"

	"vmsh/internal/mem"
)

// FuzzKsymtabParse feeds the ksymtab scanner arbitrary image windows —
// the bytes it reads are plucked out of guest memory by KASLR-range
// probing, so in the worst case they are attacker-chosen. Whatever it
// sees, Scan must return an error or an internally coherent result:
// non-empty NUL-free names, values in the canonical kernel half, a
// table window that lies inside the image. Never a panic. And always
// the same answer as refScan.
func FuzzKsymtabParse(f *testing.F) {
	// Seed with a real built image per layout (truncated to keep the
	// corpus small: the strings+table area is what matters).
	for _, layout := range []Layout{LayoutAbsolute, LayoutPosRel, LayoutPosRelNS} {
		syms := testSymbols()
		sec, err := Build(layout, syms, imgBase+mem.GVA(0x800), imgBase+mem.GVA(0x4000))
		if err != nil {
			f.Fatal(err)
		}
		img := make([]byte, 0x4000+len(sec.Strings)+64)
		copy(img[0x800:], sec.Tab)
		copy(img[0x4000:], sec.Strings)
		f.Add(img)
	}
	f.Add([]byte("kernel_read\x00filp_open\x00"))
	f.Add(make([]byte, 64))

	f.Fuzz(func(t *testing.T, img []byte) {
		checkSameScan(t, "fuzz input", img)
		res, err := Scan(img, imgBase)
		if err != nil {
			return
		}
		if len(res.Symbols) == 0 {
			t.Fatal("Scan succeeded with zero symbols")
		}
		if res.TabLen <= 0 || res.TabLen != len(res.Symbols)*res.Layout.EntrySize() {
			// Duplicate names can legally collapse map entries, so only
			// a table shorter than the map is impossible.
			if res.TabLen < len(res.Symbols)*res.Layout.EntrySize() {
				t.Fatalf("table %dB cannot hold %d entries of %dB",
					res.TabLen, len(res.Symbols), res.Layout.EntrySize())
			}
		}
		tabOff := int(res.TabGVA - imgBase)
		if tabOff < 0 || tabOff+res.TabLen > len(img) {
			t.Fatalf("claimed table [%d,+%d) outside %d-byte image", tabOff, res.TabLen, len(img))
		}
		strOff := int(res.StringsGVA - imgBase)
		if strOff < 0 || strOff >= len(img) {
			t.Fatalf("claimed strings at %d outside %d-byte image", strOff, len(img))
		}
		for name, gva := range res.Symbols {
			if name == "" || strings.ContainsRune(name, 0) {
				t.Fatalf("invalid symbol name %q", name)
			}
			if uint64(gva)>>47 != 0x1ffff {
				t.Fatalf("symbol %q outside the canonical kernel half: %#x", name, uint64(gva))
			}
		}
	})
}
