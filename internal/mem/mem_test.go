package mem

import (
	"bytes"
	"hash/fnv"
	"testing"
	"testing/quick"
)

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

func TestPhysIntegers(t *testing.T) {
	p := NewPhys(0, 64)
	p.PutU64(0, 0x1122334455667788)
	if p.U64(0) != 0x1122334455667788 {
		t.Fatal("u64 round trip")
	}
	if p.U32(0) != 0x55667788 {
		t.Fatalf("little-endian low half = %#x", p.U32(0))
	}
	p.PutU32(8, 0xdeadbeef)
	if p.U32(8) != 0xdeadbeef {
		t.Fatal("u32 round trip")
	}
	p.PutU16(16, 0xabcd)
	if p.U16(16) != 0xabcd {
		t.Fatal("u16 round trip")
	}
}

func TestPhysOutOfRangePanics(t *testing.T) {
	p := NewPhys(0x1000, 0x1000)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range access did not panic")
		}
	}()
	p.Slice(0x1ff0, 32)
}

func TestPhysBelowBasePanics(t *testing.T) {
	p := NewPhys(0x1000, 0x1000)
	defer func() {
		if recover() == nil {
			t.Fatal("below-base access did not panic")
		}
	}()
	p.Slice(0xfff, 1)
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
// compare hashes taken at different sites, so they must agree.
func TestPhysHash(t *testing.T) {
	p := NewPhys(0x1000, 3*PageSize)
	for i := range p.Data {
		p.Data[i] = byte(i * 7)
	}
	fnvOf := func(b []byte) uint64 {
		h := fnv.New64a()
		h.Write(b)
		return h.Sum64()
	}
	if got, want := p.Hash(), fnvOf(p.Data); got != want {
		t.Fatalf("Hash %016x, want %016x", got, want)
	}
	for _, c := range []struct{ off, end, wantOff, wantEnd uint64 }{
		{PageSize, 2 * PageSize, PageSize, 2 * PageSize},
		{PageSize, 9 * PageSize, PageSize, 3 * PageSize},
		{4 * PageSize, 9 * PageSize, 3 * PageSize, 3 * PageSize},
	} {
		if got, want := p.HashRange(c.off, c.end), fnvOf(p.Data[c.wantOff:c.wantEnd]); got != want {
			t.Errorf("HashRange(%#x, %#x) = %016x, want %016x", c.off, c.end, got, want)
		}
	}
}
