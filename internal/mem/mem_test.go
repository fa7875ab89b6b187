package mem

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
	"testing/quick"
)

// The guest's own slab view is a guest-memory view.
var _ PhysIO = SlabIO{}

func TestPhysRoundTrip(t *testing.T) {
	p := NewPhys(0x1000, 0x4000)
	data := []byte("hello guest memory")
	p.WriteAt(0x2000, data)
	got := make([]byte, len(data))
	p.ReadAt(0x2000, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip got %q", got)
	}
}

func TestPhysOutOfRangePanics(t *testing.T) {
	p := NewPhys(0x1000, 0x1000)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range access did not panic")
		}
	}()
	p.ReadAt(0x1ff0, make([]byte, 32))
}

func TestPhysBelowBasePanics(t *testing.T) {
	p := NewPhys(0x1000, 0x1000)
	defer func() {
		if recover() == nil {
			t.Fatal("below-base access did not panic")
		}
	}()
	p.ReadAt(0xfff, make([]byte, 2))
}

func TestSlabIOErrors(t *testing.T) {
	io := SlabIO{Phys: NewPhys(0, 0x1000)}
	buf := make([]byte, 16)
	if err := io.ReadPhys(0xfff8, buf); err == nil {
		t.Fatal("expected error reading past slab")
	}
	if err := io.WritePhys(0x2000, buf); err == nil {
		t.Fatal("expected error writing past slab")
	}
	if err := io.WritePhys(0x10, buf); err != nil {
		t.Fatalf("in-range write failed: %v", err)
	}
	// A range whose end wraps past 2^64 is outside the slab too.
	if err := io.ReadPhys(^GPA(7), buf); err == nil {
		t.Fatal("expected error reading a range that wraps the address space")
	}
	if io.Contains(^GPA(7), len(buf)) || !io.Contains(0x10, len(buf)) || io.Size() != 0x1000 {
		t.Fatal("the view's Contains or Size disagrees with the slab's extent")
	}
}

func TestReadWriteU64Helpers(t *testing.T) {
	io := SlabIO{Phys: NewPhys(0, 0x1000)}
	if err := WriteU64(io, 0x100, 42); err != nil {
		t.Fatal(err)
	}
	v, err := ReadU64(io, 0x100)
	if err != nil || v != 42 {
		t.Fatalf("ReadU64 = %d, %v", v, err)
	}
	if _, err := ReadU64(io, 0xfffa); err == nil {
		t.Fatal("expected straddling read to fail")
	}
}

func TestPageAlign(t *testing.T) {
	cases := map[uint64]uint64{0: 0, 1: 4096, 4095: 4096, 4096: 4096, 4097: 8192}
	for in, want := range cases {
		if got := PageAlign(in); got != want {
			t.Errorf("PageAlign(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestBumpAlloc(t *testing.T) {
	a := NewBumpAlloc(0x1001, 0x5000) // unaligned start rounds up
	g1, err := a.AllocPages(1)
	if err != nil || g1 != 0x2000 {
		t.Fatalf("first alloc = %#x, %v", g1, err)
	}
	g2, err := a.AllocPages(2)
	if err != nil || g2 != 0x3000 {
		t.Fatalf("second alloc = %#x, %v", g2, err)
	}
	if _, err := a.AllocPages(1); err == nil {
		t.Fatal("expected exhaustion")
	}
}

func TestBumpAllocDisjoint(t *testing.T) {
	// Property: allocations never overlap and stay in the window.
	f := func(sizes []uint8) bool {
		a := NewBumpAlloc(0, 1<<20)
		var prevEnd GPA
		for _, s := range sizes {
			n := int(s%8) + 1
			g, err := a.AllocPages(n)
			if err != nil {
				return true // exhaustion is fine
			}
			if g < prevEnd {
				return false
			}
			prevEnd = g + GPA(n*PageSize)
			if uint64(prevEnd) > 1<<20 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPhysHash pins the guest-RAM hash to FNV-64a over exactly the
// slab bytes asked for: snapshots, replay footers and the E9 digest
// compare hashes taken at different sites, so they must agree. The
// slab mixes materialized pages with absent ones (and a partial last
// page), and the ranges start and end mid-page and span absent pages.
func TestPhysHash(t *testing.T) {
	const size = 6*PageSize + 100
	p := NewPhys(0x1000, size)
	dense := make([]byte, size)
	for _, pg := range []int{1, 4, 6} {
		for i := pg * PageSize; i < min((pg+1)*PageSize, size); i++ {
			dense[i] = byte(i*7 + 1)
		}
	}
	p.WriteAt(0x1000, dense)
	fnvOf := func(b []byte) uint64 {
		h := fnv.New64a()
		h.Write(b)
		return h.Sum64()
	}
	if got, want := p.Hash(), fnvOf(dense); got != want {
		t.Fatalf("Hash %016x, want %016x", got, want)
	}
	for _, c := range []struct{ off, end, wantOff, wantEnd uint64 }{
		{PageSize, 2 * PageSize, PageSize, 2 * PageSize},
		{PageSize, 9 * PageSize, PageSize, size},
		{9 * PageSize, 10 * PageSize, size, size},
		{100, 3*PageSize + 5, 100, 3*PageSize + 5},                   // absent, present, absent, absent
		{PageSize + 7, 5*PageSize - 9, PageSize + 7, 5*PageSize - 9}, // mid-page across an absent run
		{2*PageSize + 1, 4*PageSize - 1, 2*PageSize + 1, 4*PageSize - 1},
		{6*PageSize + 3, size, 6*PageSize + 3, size},
	} {
		if got, want := p.HashRange(c.off, c.end), fnvOf(dense[c.wantOff:c.wantEnd]); got != want {
			t.Errorf("HashRange(%#x, %#x) = %016x, want %016x", c.off, c.end, got, want)
		}
	}
}

// TestHashMemoModel holds the remembered RAM hash to a dense model:
// random stores through the slab (WriteAt of runs and of 2-, 4- and
// 8-byte integers) and through its page store (WriteAt, SetPage,
// Clear) interleave with HashRange
// and Hash over ranges drawn from a small set, so the same range is
// asked again both with and without a store in between. Every answer
// must be FNV-64a over the model's bytes.
func TestHashMemoModel(t *testing.T) {
	const base, size = 0x10000, 10*PageSize + 123
	rng := rand.New(rand.NewSource(1))
	p := NewPhys(base, size)
	dense := make([]byte, size)
	fnvOf := func(b []byte) uint64 {
		h := fnv.New64a()
		h.Write(b)
		return h.Sum64()
	}
	// data is n random bytes, all zero one time in four: a zero store
	// into an absent page materializes nothing but must still count.
	data := func(n int) []byte {
		b := make([]byte, n)
		if rng.Intn(4) != 0 {
			rng.Read(b)
		}
		return b
	}
	var ranges [][2]uint64
	for i := 0; i < 6; i++ {
		off := uint64(rng.Intn(size + PageSize))
		ranges = append(ranges, [2]uint64{off, off + uint64(rng.Intn(size))})
	}
	ranges = append(ranges, [2]uint64{0, size}, [2]uint64{PageSize, 2 * PageSize})
	hits := 0
	for step := 0; step < 20000; step++ {
		off := uint64(rng.Intn(size))
		switch c := rng.Intn(12); c {
		case 0:
			b := data(1 + rng.Intn(min(2*PageSize, size-int(off))))
			p.WriteAt(GPA(base+off), b)
			copy(dense[off:], b)
		case 1, 2, 3:
			// An 8-, 4- or 2-byte little-endian store.
			n := uint64(16 >> c)
			off = min(off, size-n)
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], rng.Uint64())
			p.WriteAt(GPA(base+off), b[:n])
			copy(dense[off:], b[:n])
		case 4:
			b := data(1 + rng.Intn(min(PageSize, size-int(off))))
			p.Pages().WriteAt(b, off)
			copy(dense[off:], b)
		case 5:
			idx := off / PageSize
			pg := dense[idx*PageSize : min((idx+1)*PageSize, size)]
			var b []byte
			if rng.Intn(3) != 0 {
				b = data(len(pg))
			}
			p.Pages().SetPage(idx, b)
			clear(pg[copy(pg, b):])
		case 6:
			if rng.Intn(20) == 0 {
				p.Pages().Clear()
				clear(dense)
			}
		case 7:
			if got, want := p.Hash(), fnvOf(dense); got != want {
				t.Fatalf("step %d: Hash %016x, want %016x", step, got, want)
			}
		default:
			r := ranges[rng.Intn(len(ranges))]
			end := min(r[1], size)
			start := min(r[0], end)
			if p.memo.ok && p.memo.off == start && p.memo.end == end && p.memo.gen == p.pages.gen {
				hits++
			}
			if got, want := p.HashRange(r[0], r[1]), fnvOf(dense[start:end]); got != want {
				t.Fatalf("step %d: HashRange(%#x, %#x) = %016x, want %016x", step, r[0], r[1], got, want)
			}
		}
	}
	if hits < 100 {
		t.Fatalf("only %d remembered hashes were reused", hits)
	}
}

// TestPagesSparse checks the store's page accounting: zero stores into
// absent pages materialize nothing, a non-zero store materializes only
// the pages it touches, every page reads back what was stored, and the
// dirty log sees zero stores too.
func TestPagesSparse(t *testing.T) {
	p := NewPhys(0, 8*PageSize)
	p.SetDirtyLog(true)
	p.WriteAt(0, make([]byte, 8*PageSize))
	p.WriteAt(3*PageSize, make([]byte, 8))
	if n := materialized(p.Pages()); n != 0 {
		t.Fatalf("zero stores materialized %d pages", n)
	}
	if got := p.DirtyPages(true); len(got) != 8 {
		t.Fatalf("zero stores dirtied %v, want all 8 pages", got)
	}
	msg := []byte("straddles a page boundary")
	p.WriteAt(2*PageSize-5, msg)
	if n := materialized(p.Pages()); n != 2 {
		t.Fatalf("straddling store materialized %d pages, want 2", n)
	}
	got := make([]byte, len(msg)+10)
	p.ReadAt(2*PageSize-10, got)
	if want := append(append(make([]byte, 5), msg...), make([]byte, 5)...); !bytes.Equal(got, want) {
		t.Fatalf("read back %q, want %q", got, want)
	}
	// A zero store into a materialized page overwrites it.
	p.WriteAt(2*PageSize-5, make([]byte, len(msg)))
	p.ReadAt(2*PageSize-10, got)
	if !bytes.Equal(got, make([]byte, len(got))) || p.Pages().Page(1) != nil {
		t.Fatal("zeroed bytes still read as data")
	}
	pg := p.Pages()
	pg.SetPage(5, []byte{9})
	if b := pg.Page(5); len(b) != PageSize || b[0] != 9 || !bytes.Equal(b[1:], make([]byte, PageSize-1)) {
		t.Fatal("SetPage did not store a zero-padded page")
	}
	pg.SetPage(5, nil)
	if pg.Page(5) != nil || materialized(pg) != 2 {
		t.Fatal("SetPage(nil) did not drop the page")
	}
	pg.Clear()
	p.ReadAt(2*PageSize-10, got)
	if materialized(pg) != 0 || !bytes.Equal(got, make([]byte, len(got))) {
		t.Fatal("Clear left data behind")
	}
}

// materialized counts the pages the store holds.
func materialized(s *Pages) int {
	n := 0
	for _, p := range s.pages {
		if p != nil {
			n++
		}
	}
	return n
}
