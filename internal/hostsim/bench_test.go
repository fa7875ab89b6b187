package hostsim

import (
	"bytes"
	"fmt"
	"testing"

	"vmsh/internal/mem"
)

// BenchmarkProcessVMReadv is one single-segment process_vm_readv from
// a privileged caller out of a target's mapped, materialized memory:
// the crossing under every guest-memory read the sideloader and the
// hosted devices make.
func BenchmarkProcessVMReadv(b *testing.B) {
	for _, n := range []int{8, 4096} {
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) {
			h := NewHost()
			target := h.NewProcess("qemu", user(1000))
			const hva = mem.HVA(0x10000)
			if _, err := target.AS.MapPhys(hva, mem.NewPhys(0, 0x4000), "ram"); err != nil {
				b.Fatal(err)
			}
			if err := target.WriteMem(hva, bytes.Repeat([]byte{0xa5}, 0x4000)); err != nil {
				b.Fatal(err)
			}
			caller := h.NewProcess("vmsh", root())
			iov := []IoVec{{HVA: hva + 0x800, Buf: make([]byte, n)}}
			b.ReportAllocs()
			b.SetBytes(int64(n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := h.ProcessVMReadv(caller, target.PID, iov); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
