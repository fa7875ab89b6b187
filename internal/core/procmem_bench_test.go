package core

import (
	"bytes"
	"fmt"
	"testing"

	"vmsh/internal/hostsim"
	"vmsh/internal/kvm"
	"vmsh/internal/mem"
	"vmsh/internal/obs"
	"vmsh/internal/pagetable"
)

// kernelGVA is where crossingFixture maps its one kernel page.
const kernelGVA = mem.GVA(0xffffffff81000000)

// crossingFixture is a hypervisor process whose 1 MiB of guest RAM is
// one memslot, VMSH's procMem over that slot, and a walker over
// four-level page tables in that RAM that map kernelGVA to GPA
// 0x80000. Every byte the walker reads crosses through the procMem.
func crossingFixture(tb testing.TB) (*procMem, *pagetable.Walker) {
	tb.Helper()
	h := hostsim.NewHost()
	hyp := h.NewProcess("hyp", hostsim.Creds{UID: 1000})
	self := h.NewProcess("vmsh", hostsim.Creds{UID: 0, Caps: hostsim.Caps(hostsim.CapSysPtrace)})
	const ramHVA, ramSize = mem.HVA(0x7f0000000000), 1 << 20
	ram := mem.NewPhys(0, ramSize)
	if _, err := hyp.AS.MapPhys(ramHVA, ram, "ram"); err != nil {
		tb.Fatal(err)
	}
	ram.WriteAt(0x80000, bytes.Repeat([]byte{0xa5}, mem.PageSize))
	m, err := pagetable.NewMapper(mem.SlabIO{Phys: ram}, mem.NewBumpAlloc(0x1000, 0x80000))
	if err != nil {
		tb.Fatal(err)
	}
	if err := m.Map(kernelGVA, 0x80000, pagetable.FlagWrite); err != nil {
		tb.Fatal(err)
	}
	slots := []kvm.MemSlotInfo{{Slot: 0, GPA: 0, HVA: ramHVA, Size: ramSize}}
	pm := newProcMem(h, self, hyp.PID, slots, obs.NewRegistry())
	return pm, &pagetable.Walker{R: pm, Root: m.Root}
}

// BenchmarkProcMemReadPhys is one full crossing: a guest-physical read
// translated through the memslot table into one process_vm_readv.
func BenchmarkProcMemReadPhys(b *testing.B) {
	for _, n := range []int{8, 4096} {
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) {
			pm, _ := crossingFixture(b)
			buf := make([]byte, n)
			b.ReportAllocs()
			b.SetBytes(int64(n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := pm.ReadPhys(0x80000, buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWalkerTranslate is one four-level page-table walk through
// the procMem: four 8-byte crossings, as the sideloader's KASLR scan
// makes for every mapped page of the window.
func BenchmarkWalkerTranslate(b *testing.B) {
	_, w := crossingFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok, err := w.Translate(kernelGVA); !ok || err != nil {
			b.Fatalf("translate: ok=%v err=%v", ok, err)
		}
	}
}
