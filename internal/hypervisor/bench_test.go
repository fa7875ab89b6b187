package hypervisor

import (
	"testing"

	"vmsh/internal/fsimage"
	"vmsh/internal/hostsim"
)

// BenchmarkLaunch is guest boot: a QEMU process with 32 MiB of RAM, its
// root filesystem image built and served by the hypervisor's own
// virtio-blk device, and the guest kernel booted on it. Each iteration
// boots on a fresh host, created with the timer stopped.
func BenchmarkLaunch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := hostsim.NewHost()
		b.StartTimer()
		inst, err := Launch(h, Config{
			Kind:          QEMU,
			KernelVersion: "5.10",
			RAMSize:       32 << 20,
			RootFS:        fsimage.GuestRoot("bench"),
			Seed:          int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		h.Exit(inst.Proc)
		b.StartTimer()
	}
}
