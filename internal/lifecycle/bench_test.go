package lifecycle

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"vmsh/internal/fsimage"
	"vmsh/internal/hostsim"
	"vmsh/internal/hypervisor"
	"vmsh/internal/mem"
)

// benchVM boots a 32 MiB QEMU guest with the GuestRoot manifest on a
// fresh host.
func benchVM(b *testing.B) *hypervisor.Instance {
	b.Helper()
	inst, err := hypervisor.Launch(hostsim.NewHost(), hypervisor.Config{
		Kind: hypervisor.QEMU, Name: "bench", KernelVersion: "5.10",
		RootFS: fsimage.GuestRoot("bench"), Seed: 1, RAMSize: 32 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// benchSnapshot takes a snapshot of a freshly booted 32 MiB VM: about
// a thousand non-zero pages, nearly all of them the kernel image.
func benchSnapshot(b *testing.B) *Snapshot {
	b.Helper()
	snap, err := Take(benchVM(b), TakeOpts{Label: "bench"})
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

// BenchmarkRestore restores a booted 32 MiB VM's snapshot onto a fresh
// host: the relaunch, the page and block writes and the RAM hash
// cross-check.
func BenchmarkRestore(b *testing.B) {
	snap := benchSnapshot(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Restore(hostsim.NewHost(), snap, RestoreOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMigrate times one migration round of a freshly booted 32 MiB
// VM to a fresh host: two pre-copy rounds in each of which the guest
// rewrites 0 or 256 pages, a stop-and-copy or post-copy cutover, and
// Verify, which drains what post-copy left pending and compares the
// RAM hashes. The source boots with the timer stopped.
func BenchmarkMigrate(b *testing.B) {
	for _, postCopy := range []bool{false, true} {
		for _, dirty := range []int{0, 256} {
			mode := "stopcopy"
			if postCopy {
				mode = "postcopy"
			}
			b.Run(fmt.Sprintf("%s/dirty=%d", mode, dirty), func(b *testing.B) {
				page := make([]byte, dirty*mem.PageSize)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					src := benchVM(b)
					scratch, err := src.Kernel.AllocPages(dirty)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					var werr error
					res, err := Migrate(src, hostsim.NewHost(), MigrateOpts{
						PrecopyRounds: 2, PostCopy: postCopy,
						Workload: func(round int) {
							for j := range page {
								page[j] = byte(round*31 + j)
							}
							if werr == nil {
								werr = src.VM.GuestMem().WritePhys(scratch, page)
							}
						},
					})
					if err != nil || werr != nil {
						b.Fatal(err, werr)
					}
					if err := res.Verify(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
