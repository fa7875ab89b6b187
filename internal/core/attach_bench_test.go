package core

import (
	"testing"

	"vmsh/internal/fsimage"
	"vmsh/internal/hostsim"
	"vmsh/internal/hypervisor"
)

// BenchmarkAttach is the attach transaction: sideloading VMSH into a
// freshly launched 32 MiB QEMU guest with the tool image, from the
// ptrace attach to the overlay mount. Each iteration launches its own
// guest and builds its image with the timer stopped, and detaches
// after it.
func BenchmarkAttach(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := hostsim.NewHost()
		inst, err := hypervisor.Launch(h, hypervisor.Config{
			Kind:          hypervisor.QEMU,
			KernelVersion: "5.10",
			RAMSize:       32 << 20,
			RootFS:        fsimage.GuestRoot("bench"),
			Seed:          int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		img := h.CreateFile("tools.img", 96<<20, false)
		if err := fsimage.Build(hostsim.NewHostFileDevice(img), fsimage.ToolImage()); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		sess, err := New(h).Attach(inst.Proc.PID, Options{Image: img})
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if err := sess.Detach(); err != nil {
			b.Fatal(err)
		}
		h.Exit(inst.Proc)
		b.StartTimer()
	}
}
