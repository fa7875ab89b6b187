package lifecycle

import (
	"bytes"
	"io"
	"testing"

	"vmsh/internal/fsimage"
	"vmsh/internal/hostsim"
	"vmsh/internal/hypervisor"
)

// benchSnapshot takes a snapshot of a freshly booted 32 MiB VM: about
// a thousand non-zero pages, nearly all of them the kernel image.
func benchSnapshot(b *testing.B) *Snapshot {
	b.Helper()
	inst, err := hypervisor.Launch(hostsim.NewHost(), hypervisor.Config{
		Kind: hypervisor.QEMU, Name: "bench", KernelVersion: "5.10",
		RootFS: fsimage.GuestRoot("bench"), Seed: 1, RAMSize: 32 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	snap, err := Take(inst, TakeOpts{Label: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	return snap
}

func BenchmarkSnapshotWriteTo(b *testing.B) {
	snap := benchSnapshot(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snap.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(snap.Pages)), "pages")
}

func BenchmarkSnapshotRead(b *testing.B) {
	var buf bytes.Buffer
	if _, err := benchSnapshot(b).WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
