package ksym

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"

	"vmsh/internal/mem"
)

// refScan is the plain statement of what Scan computes: the anchor
// search runs over a string copy of the image, and the table search
// calls decodeEntry at every aligned offset. Scan must agree with it
// on every input.
func refScan(img []byte, base mem.GVA) (*ScanResult, error) {
	strStart, strEnd := refFindStrings(img)
	if strStart < 0 {
		return nil, fmt.Errorf("ksym: no .ksymtab_strings anchor found in %d-byte window", len(img))
	}
	bestLayout, bestStart, bestCount := Layout(0), 0, 0
	for _, layout := range []Layout{LayoutAbsolute, LayoutPosRel, LayoutPosRelNS} {
		if start, count := refFindTable(img, base, layout, strStart, strEnd); count > bestCount {
			bestLayout, bestStart, bestCount = layout, start, count
		}
	}
	if bestCount == 0 {
		return nil, fmt.Errorf("ksym: strings section found at +%#x but no ksymtab matches any layout", strStart)
	}
	es := bestLayout.EntrySize()
	res := &ScanResult{
		Layout:     bestLayout,
		Symbols:    make(map[string]mem.GVA, bestCount),
		StringsGVA: base + mem.GVA(strStart),
		TabGVA:     base + mem.GVA(bestStart),
		TabLen:     bestCount * es,
	}
	for i := 0; i < bestCount; i++ {
		name, value, ok := decodeEntry(img, base, bestLayout, bestStart+i*es, strStart, strEnd)
		if !ok {
			return nil, fmt.Errorf("ksym: entry %d became invalid during decode", i)
		}
		res.Symbols[name] = value
	}
	return res, nil
}

func refFindStrings(img []byte) (int, int) {
	s := string(img)
	for _, a := range Anchors {
		if i := strings.Index(s, "\x00"+a+"\x00"); i >= 0 {
			return stringsAround(img, i+1)
		}
		if i := strings.Index(s, a+"\x00"); i >= 0 {
			return stringsAround(img, i)
		}
	}
	return -1, -1
}

func refFindTable(img []byte, base mem.GVA, layout Layout, strStart, strEnd int) (start, count int) {
	es := layout.EntrySize()
	align := 4
	if layout == LayoutAbsolute {
		align = 8
	}
	i := 0
	for i+es <= len(img) {
		if _, _, ok := decodeEntry(img, base, layout, i, strStart, strEnd); !ok {
			i += align
			continue
		}
		runStart, run := i, 0
		for i+es <= len(img) {
			if _, _, ok := decodeEntry(img, base, layout, i, strStart, strEnd); !ok {
				break
			}
			run++
			i += es
		}
		if run > count {
			start, count = runStart, run
		}
		i += align
	}
	return start, count
}

// checkSameScan fails unless Scan and refScan agree on img: the same
// error, or the same layout, strings and table position, table length
// and symbols.
func checkSameScan(t *testing.T, what string, img []byte) {
	t.Helper()
	got, gotErr := Scan(img, imgBase)
	want, wantErr := refScan(img, imgBase)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: Scan error %v, reference %v", what, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Scan = %+v, reference %+v", what, got, want)
	}
}

var layouts = []Layout{LayoutAbsolute, LayoutPosRel, LayoutPosRelNS}

// TestScanMatchesReferenceAtOffsets: every layout, embedded at aligned
// and unaligned offsets of a random 4 MiB image, strings before or
// after the table, either section at an image edge.
func TestScanMatchesReferenceAtOffsets(t *testing.T) {
	for _, layout := range layouts {
		tabLen := len(kernelNames) * layout.EntrySize()
		for i, off := range [][2]int{
			{kernelTabOff, kernelStrOff},
			{0, 0x1000},
			{0x200000, 0x100000},
			{0x100000, 0},
			{kernelImageSize - tabLen, 0x200000},
			{0x123454, 0x2abcd3},
			{0x300002, 0x340001},
			{0x0ffffc, kernelImageSize - 0x300},
		} {
			img := randomImage(kernelImageSize, int64(i))
			embed(t, img, layout, off[0], off[1])
			checkSameScan(t, fmt.Sprintf("%v tab %#x strings %#x", layout, off[0], off[1]), img)
		}
	}
}

// TestScanMatchesReferenceOnRandomImages: random bytes around an
// anchor, then images whose aligned slots point into a strings window
// often enough to drive every test of decodeEntry.
func TestScanMatchesReferenceOnRandomImages(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		img := randomImage(1024+rnd.Intn(256<<10), seed)
		copy(img[rnd.Intn(len(img)-32):], "\x00kernel_read\x00")
		checkSameScan(t, fmt.Sprintf("random seed %d", seed), img)
	}
	for seed := int64(0); seed < 60; seed++ {
		checkSameScan(t, fmt.Sprintf("dense seed %d", seed), denseImage(seed))
	}
}

// denseImage is a random image in one layout's encoding: a strings
// window of random names, some with a byte that is not a string byte,
// and runs of entries, broken by junk and shifted by alignment steps,
// that name string starts or points in and around the window, with
// canonical and non-canonical values.
func denseImage(seed int64) []byte {
	rnd := rand.New(rand.NewSource(seed))
	layout := layouts[rnd.Intn(len(layouts))]
	es, align := layout.EntrySize(), 4
	if layout == LayoutAbsolute {
		align = 8
	}
	img := randomImage(8<<10+rnd.Intn(56<<10), seed)
	strOff := rnd.Intn(len(img) / 2)
	p := strOff
	copy(img[p:], "\x00filp_open\x00")
	p += len("\x00filp_open\x00")
	starts := []int{strOff + 1}
	for p < strOff+512 && p < len(img)-64 {
		n := 1 + rnd.Intn(12)
		for k := 0; k < n; k++ {
			img[p+k] = "abcxyz_09.-"[rnd.Intn(11)]
		}
		if rnd.Intn(8) == 0 {
			img[p+rnd.Intn(n)] = '!'
		}
		img[p+n] = 0
		starts = append(starts, p)
		p += n + 1
	}
	strEnd := p
	for i := align * rnd.Intn(4); i+es <= len(img); i += es {
		if rnd.Intn(8) == 0 {
			i += align * (1 + rnd.Intn(3))
		}
		if i+es > len(img) || i+es > strOff-64 && i < strEnd+64 || rnd.Intn(4) == 0 {
			continue
		}
		name := starts[rnd.Intn(len(starts))]
		if rnd.Intn(3) == 0 {
			name = strOff - 2 + rnd.Intn(strEnd-strOff+4)
		}
		value := uint64(imgBase) + uint64(rnd.Intn(1<<20))
		if rnd.Intn(6) == 0 {
			value = uint64(rnd.Int63())
		}
		switch layout {
		case LayoutAbsolute:
			binary.LittleEndian.PutUint64(img[i:], value)
			binary.LittleEndian.PutUint64(img[i+8:], uint64(imgBase)+uint64(name))
		default:
			binary.LittleEndian.PutUint32(img[i:], uint32(int32(int64(value)-int64(uint64(imgBase)+uint64(i)))))
			binary.LittleEndian.PutUint32(img[i+4:], uint32(int32(name-i-4)))
		}
	}
	return img
}

// TestScanMatchesReferenceAtEdges: a run that ends at the image end,
// an entry that straddles the image end, a run that starts one
// alignment step after another stops, and name references one byte
// before and one after the strings window.
func TestScanMatchesReferenceAtEdges(t *testing.T) {
	const size = 64 << 10
	for _, layout := range layouts {
		es := layout.EntrySize()
		tabLen := len(kernelNames) * es

		img := randomImage(size, 1)
		embed(t, img, layout, size-tabLen, 0x1000)
		checkSameScan(t, fmt.Sprintf("%v run ends at image end", layout), img)
		checkSameScan(t, fmt.Sprintf("%v last entry straddles the end", layout), img[:size-es/2])
		checkSameScan(t, fmt.Sprintf("%v last entry cut to one byte", layout), img[:size-es+1])
		// Only the entry in the image's last slot stays valid.
		clear(img[size-tabLen : size-es])
		checkSameScan(t, fmt.Sprintf("%v one-entry run in the last slot", layout), img)

		// A longer run starts one alignment step past where a 5-entry
		// run stops, so the search must resume exactly there.
		align := 4
		if layout == LayoutAbsolute {
			align = 8
		}
		img = randomImage(size, 3)
		embed(t, img, layout, 0x4000, 0x8000)
		second := 0x4000 + 5*es + align
		copy(img[second:], build(t, layout, second, 0x8000).Tab)
		checkSameScan(t, fmt.Sprintf("%v run resuming one step after another", layout), img)

		for _, k := range []int{0, 7, len(kernelNames) - 1} {
			img := randomImage(size, 2)
			sec := embed(t, img, layout, 0x4000, 0x8000)
			strStart, strEnd := findStrings(img)
			if strStart != 0x8000 || strEnd != 0x8000+len(sec.Strings) {
				t.Fatalf("%v: strings window [%#x,%#x), built at [%#x,%#x)",
					layout, strStart, strEnd, 0x8000, 0x8000+len(sec.Strings))
			}
			for _, name := range []int{strStart - 1, strEnd, strEnd - 1} {
				off := 0x4000 + k*es
				switch layout {
				case LayoutAbsolute:
					binary.LittleEndian.PutUint64(img[off+8:], uint64(imgBase)+uint64(name))
				default:
					binary.LittleEndian.PutUint32(img[off+4:], uint32(int32(name-off-4)))
				}
				checkSameScan(t, fmt.Sprintf("%v entry %d names +%#x", layout, k, name), img)
			}
		}
	}
}

// heapAllocBytes returns the bytes allocated on the heap so far. The
// GC first flushes every P's allocation cache into the runtime's
// counters, so the figure includes the caller's latest allocations.
func heapAllocBytes() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestScanAllocs: scanning a 4 MiB kernel image allocates the result,
// not a copy of the image.
func TestScanAllocs(t *testing.T) {
	for _, layout := range layouts {
		img := kernelImage(t, layout, 1)
		const runs = 4
		before := heapAllocBytes()
		for i := 0; i < runs; i++ {
			if _, err := Scan(img, imgBase); err != nil {
				t.Fatal(err)
			}
		}
		if per := (heapAllocBytes() - before) / runs; per >= 64<<10 {
			t.Errorf("%v: one Scan of a %d-byte image allocates %d B, want under 64 KiB", layout, len(img), per)
		}
	}
}
