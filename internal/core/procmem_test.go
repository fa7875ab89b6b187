package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"vmsh/internal/hostsim"
	"vmsh/internal/kvm"
	"vmsh/internal/mem"
	"vmsh/internal/obs"
)

// VMSH's view over process_vm_readv/writev is a guest-memory view.
var _ mem.PhysIO = (*procMem)(nil)

// testProcMem builds a procMem over a synthetic hypervisor process
// with three memslots: two GPA-adjacent but HVA-disjoint (the layout
// real hypervisors produce, since every region is mmapped
// independently) and a third after a one-page hole.
//
//	GPA [0x0000,0x2000)  -> HVA 0x100000
//	GPA [0x2000,0x3000)  -> HVA 0x900000   (not HVA-adjacent!)
//	GPA [0x4000,0x5000)  -> HVA 0x500000   (hole at 0x3000)
func testProcMem(t *testing.T) (*procMem, *hostsim.Process) {
	t.Helper()
	h := hostsim.NewHost()
	hyp := h.NewProcess("hyp", hostsim.Creds{UID: 1000})
	self := h.NewProcess("vmsh", hostsim.Creds{UID: 0, Caps: hostsim.Caps(hostsim.CapSysPtrace)})
	var slots []kvm.MemSlotInfo
	for i, r := range []struct {
		gpa  mem.GPA
		hva  mem.HVA
		size uint64
	}{
		{0x0000, 0x100000, 0x2000},
		{0x2000, 0x900000, 0x1000},
		{0x4000, 0x500000, 0x1000},
	} {
		if _, err := hyp.AS.MapPhys(r.hva, mem.NewPhys(0, r.size), fmt.Sprintf("ram%d", i)); err != nil {
			t.Fatal(err)
		}
		slots = append(slots, kvm.MemSlotInfo{Slot: uint32(i), GPA: r.gpa, HVA: r.hva, Size: r.size})
	}
	return newProcMem(h, self, hyp.PID, slots, obs.NewRegistry()), hyp
}

// fillGuest writes a deterministic byte pattern over the mapped GPA
// ranges through the kernel-side (uncharged, uncounted) path.
func fillGuest(t *testing.T, pm *procMem, hyp *hostsim.Process) {
	t.Helper()
	for _, s := range pm.slots {
		buf := make([]byte, s.Size)
		for i := range buf {
			buf[i] = byte((uint64(s.GPA) + uint64(i)) * 7)
		}
		if err := hyp.WriteMem(s.HVA, buf); err != nil {
			t.Fatal(err)
		}
	}
}

// TestProcMemStraddlingAccess is the regression test for the fast-path
// bugfix: an access crossing from one memslot into a GPA-adjacent one
// used to be rejected ("straddles memslot boundary"); it must now be
// split into per-slot iovecs and succeed.
func TestProcMemStraddlingAccess(t *testing.T) {
	pm, hyp := testProcMem(t)
	fillGuest(t, pm, hyp)

	got := make([]byte, 64)
	if err := pm.ReadPhys(0x2000-32, got); err != nil {
		t.Fatalf("straddling read: %v", err)
	}
	// The fill pattern is GPA-based, continuous across the boundary.
	want := make([]byte, 64)
	for i := range want {
		want[i] = byte(uint64(0x2000-32+i) * 7)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("straddling read corrupted: %x != %x", got[:8], want[:8])
	}

	msg := bytes.Repeat([]byte("straddle"), 8)
	if err := pm.WritePhys(0x2000-32, msg); err != nil {
		t.Fatalf("straddling write: %v", err)
	}
	// The tail must land in the second slot's (distant) HVA range.
	tail := make([]byte, 32)
	if err := hyp.ReadMem(0x900000, tail); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tail, msg[32:]) {
		t.Fatalf("tail not in second slot: %q", tail)
	}
}

// TestProcMemGapRejected: ranges touching unmapped GPA space fail, for
// both scalar and vectored entry points.
func TestProcMemGapRejected(t *testing.T) {
	pm, _ := testProcMem(t)
	buf := make([]byte, 0x100)
	if err := pm.ReadPhys(0x3000, buf); err == nil {
		t.Fatal("read from hole succeeded")
	}
	if err := pm.ReadPhys(0x2f80, buf); err == nil {
		t.Fatal("read running into hole succeeded")
	}
	err := pm.ReadPhysVec([]mem.Vec{
		{GPA: 0x0000, Buf: make([]byte, 16)},
		{GPA: 0x3000, Buf: buf},
	})
	if err == nil {
		t.Fatal("vectored read with a bad segment succeeded")
	}
}

// TestProcMemVectoredEqualsScalar is the property test: for randomized
// vector shapes — including slot-straddling segments — one vectored
// read returns exactly what a loop of scalar reads returns, and one
// vectored write leaves guest memory exactly as a loop of scalar
// writes does. Shapes touching unmapped space must fail both ways.
func TestProcMemVectoredEqualsScalar(t *testing.T) {
	rnd := rand.New(rand.NewSource(12345))
	for iter := 0; iter < 200; iter++ {
		pm, hyp := testProcMem(t)
		fillGuest(t, pm, hyp)

		nvec := 1 + rnd.Intn(5)
		vecsA := make([]mem.Vec, nvec) // for the vectored call
		vecsB := make([]mem.Vec, nvec) // for the scalar loop
		bad := false
		for i := range vecsA {
			var gpa mem.GPA
			n := 1 + rnd.Intn(0x180)
			switch rnd.Intn(4) {
			case 0: // straddle the 0x2000 slot boundary
				gpa = 0x2000 - mem.GPA(1+rnd.Intn(n))
			case 1: // possibly run into the hole at 0x3000
				gpa = 0x3000 - mem.GPA(rnd.Intn(2*n))
				if uint64(gpa)+uint64(n) > 0x3000 {
					bad = true
				}
			default: // anywhere in the first two slots
				gpa = mem.GPA(rnd.Intn(0x3000 - n))
			}
			vecsA[i] = mem.Vec{GPA: gpa, Buf: make([]byte, n)}
			vecsB[i] = mem.Vec{GPA: gpa, Buf: make([]byte, n)}
		}

		errV := pm.ReadPhysVec(vecsA)
		var errS error
		for _, v := range vecsB {
			if err := pm.ReadPhys(v.GPA, v.Buf); err != nil {
				errS = err
				break
			}
		}
		if (errV == nil) != (errS == nil) {
			t.Fatalf("iter %d: vectored err %v, scalar err %v", iter, errV, errS)
		}
		if bad && errV == nil {
			t.Fatalf("iter %d: read over hole succeeded", iter)
		}
		if errV == nil {
			for i := range vecsA {
				if !bytes.Equal(vecsA[i].Buf, vecsB[i].Buf) {
					t.Fatalf("iter %d vec %d: vectored != scalar", iter, i)
				}
			}
		}

		// Writes: apply the same shapes with fresh payloads to two
		// identically-seeded guests and compare final memory.
		if errV != nil {
			continue
		}
		for i := range vecsA {
			rnd.Read(vecsA[i].Buf)
			copy(vecsB[i].Buf, vecsA[i].Buf)
		}
		pm2, hyp2 := testProcMem(t)
		fillGuest(t, pm2, hyp2)
		if err := pm.WritePhysVec(vecsA); err != nil {
			t.Fatalf("iter %d: vectored write: %v", iter, err)
		}
		for _, v := range vecsB {
			if err := pm2.WritePhys(v.GPA, v.Buf); err != nil {
				t.Fatalf("iter %d: scalar write: %v", iter, err)
			}
		}
		for si := range pm.slots {
			a := make([]byte, pm.slots[si].Size)
			b := make([]byte, pm2.slots[si].Size)
			if err := hyp.ReadMem(pm.slots[si].HVA, a); err != nil {
				t.Fatal(err)
			}
			if err := hyp2.ReadMem(pm2.slots[si].HVA, b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("iter %d: slot %d differs after vectored vs scalar writes", iter, si)
			}
		}
	}
}

// TestProcMemVectoredCallCount: a vectored access is one process_vm
// call no matter how many segments it resolves to; the equivalent
// scalar loop pays one per element.
func TestProcMemVectoredCallCount(t *testing.T) {
	pm, hyp := testProcMem(t)
	fillGuest(t, pm, hyp)

	vecs := make([]mem.Vec, 8)
	for i := range vecs {
		// Every vec straddles the boundary: 16 iovec segments total.
		vecs[i] = mem.Vec{GPA: 0x2000 - 8, Buf: make([]byte, 16)}
	}
	before := pm.calls.Value()
	if err := pm.ReadPhysVec(vecs); err != nil {
		t.Fatal(err)
	}
	if got := pm.calls.Value() - before; got != 1 {
		t.Fatalf("vectored read issued %d calls, want 1", got)
	}
	before = pm.calls.Value()
	for _, v := range vecs {
		if err := pm.ReadPhys(v.GPA, v.Buf); err != nil {
			t.Fatal(err)
		}
	}
	if got := pm.calls.Value() - before; got != int64(len(vecs)) {
		t.Fatalf("scalar loop issued %d calls, want %d", got, len(vecs))
	}
	if r := pm.bytesRead.Value(); r != int64(2*8*16) {
		t.Fatalf("bytesRead %d, want %d", r, 2*8*16)
	}
}

// TestProcMemSlotLookup exercises the sorted-slot binary search edges
// and the addSlot sorted insert.
func TestProcMemSlotLookup(t *testing.T) {
	pm, _ := testProcMem(t)
	cases := []struct {
		gpa  mem.GPA
		want int
	}{
		{0x0000, 0}, {0x1fff, 0}, {0x2000, 1}, {0x2fff, 1},
		{0x3000, -1}, {0x3fff, -1}, {0x4000, 2}, {0x4fff, 2}, {0x5000, -1},
	}
	for _, c := range cases {
		if got := pm.slotFor(c.gpa); got != c.want {
			t.Fatalf("slotFor(%#x) = %d, want %d", c.gpa, got, c.want)
		}
	}
	// Repeat in reverse to exercise the last-hit cache being wrong.
	for i := len(cases) - 1; i >= 0; i-- {
		if got := pm.slotFor(cases[i].gpa); got != cases[i].want {
			t.Fatalf("reverse slotFor(%#x) = %d, want %d", cases[i].gpa, got, cases[i].want)
		}
	}
	// Inserting into the hole keeps the table sorted and resolvable.
	pm.addSlot(kvm.MemSlotInfo{Slot: 9, GPA: 0x3000, HVA: 0x700000, Size: 0x1000})
	for i := 1; i < len(pm.slots); i++ {
		if pm.slots[i-1].GPA >= pm.slots[i].GPA {
			t.Fatal("slots not sorted after addSlot")
		}
	}
	if got := pm.slotFor(0x3800); got < 0 || pm.slots[got].Slot != 9 {
		t.Fatalf("new slot not found: idx %d", got)
	}
}

// TestProcMemReadPhysAllocs: an 8-byte read inside one memslot, the
// sideloader's most frequent crossing, allocates nothing on the host.
func TestProcMemReadPhysAllocs(t *testing.T) {
	pm, _ := crossingFixture(t)
	buf := make([]byte, 8)
	allocs := testing.AllocsPerRun(200, func() {
		if err := pm.ReadPhys(0x80000, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("8-byte ReadPhys allocates %v times per call, want 0", allocs)
	}
}

// TestWalkerTranslateAllocs: a page-table walk through the procMem
// allocates nothing, however many entries it reads.
func TestWalkerTranslateAllocs(t *testing.T) {
	_, w := crossingFixture(t)
	allocs := testing.AllocsPerRun(200, func() {
		gpa, _, ok, err := w.Translate(kernelGVA + 0x123)
		if !ok || err != nil || gpa != 0x80123 {
			t.Fatalf("translate: gpa=%#x ok=%v err=%v", gpa, ok, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Translate allocates %v times per walk, want 0", allocs)
	}
}
