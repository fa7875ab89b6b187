package hostsim

import (
	"bytes"
	"testing"

	"vmsh/internal/mem"
)

func TestAddrSpaceOverlapRejected(t *testing.T) {
	as := NewAddrSpace()
	if _, err := as.MapPhys(0x1000, mem.NewPhys(0, 0x2000), "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := as.MapPhys(0x2000, mem.NewPhys(0, 0x1000), "b"); err == nil {
		t.Fatal("overlapping mapping accepted")
	}
	// Adjacent is fine.
	if _, err := as.MapPhys(0x3000, mem.NewPhys(0, 0x1000), "c"); err != nil {
		t.Fatal(err)
	}
}

func TestAddrSpaceUnmap(t *testing.T) {
	as := NewAddrSpace()
	m, _ := as.MapPhys(0x1000, mem.NewPhys(0, 0x1000), "a")
	if err := as.Unmap(m.HVA); err != nil {
		t.Fatal(err)
	}
	if _, ok := as.Find(0x1800); ok {
		t.Fatal("mapping still found after unmap")
	}
	if err := as.Unmap(0x9999); err == nil {
		t.Fatal("unmapped a nonexistent region")
	}
}

func TestAddrSpaceCrossMappingIO(t *testing.T) {
	// Reads/writes spanning two adjacent mappings work byte-exactly.
	as := NewAddrSpace()
	a := mem.NewPhys(0, 0x1000)
	b := mem.NewPhys(0, 0x1000)
	if _, err := as.MapPhys(0x10000, a, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := as.MapPhys(0x11000, b, "b"); err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte("boundary"), 300) // 2400 bytes
	if err := as.write(0x10f00, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := as.read(0x10f00, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("straddling IO corrupted")
	}
	// The tail really lives in the second slab.
	tail := make([]byte, 4)
	b.ReadAt(0, tail)
	if !bytes.Equal(tail, msg[0x100:0x104]) {
		t.Fatal("second mapping does not hold the tail")
	}
}

func TestAddrSpaceFaultOnGap(t *testing.T) {
	as := NewAddrSpace()
	_, _ = as.MapPhys(0x10000, mem.NewPhys(0, 0x1000), "a")
	_, _ = as.MapPhys(0x12000, mem.NewPhys(0, 0x1000), "gap-after") // hole at 0x11000
	buf := make([]byte, 0x2000)
	if err := as.read(0x10800, buf); err == nil {
		t.Fatal("read across a hole succeeded")
	}
}

func TestMapAnonAddressesDistinct(t *testing.T) {
	as := NewAddrSpace()
	m1, _ := as.MapAnon(4096, "x")
	m2, _ := as.MapAnon(1<<20, "y")
	m3, _ := as.MapAnon(4096, "z")
	if m1.HVA == m2.HVA || m2.HVA == m3.HVA {
		t.Fatal("anonymous mappings collide")
	}
	if m2.End() > m3.HVA && m3.HVA >= m2.HVA {
		t.Fatal("anon mappings overlap")
	}
}
