// Substrate micro-benchmarks under the evaluation: one vmsh-blk
// request, one console command, plain guest filesystem operations and
// one Phoronix workload. Every experiment number (E1-E11 and the
// D1-D4 ablations) is a ledger row that `go run ./cmd/vmsh-bench`
// computes and CI gates against BENCH_vtime.json; the per-layer host
// costs are the benchmarks of the internal packages.
//
//	go test -bench=. -benchmem
package vmsh_test

import (
	"strings"
	"testing"

	"vmsh"
	"vmsh/internal/workloads"
)

// bootBench boots a guest named name on a fresh lab and, if attach,
// attaches VMSH to it with the tool image and opts.
func bootBench(b *testing.B, name string, attach bool, opts ...vmsh.Option) (*vmsh.Lab, *vmsh.VM, *vmsh.Session) {
	lab := vmsh.NewLab()
	vm, err := lab.LaunchVM(vmsh.WithRootFS(vmsh.GuestRoot(name)))
	var sess *vmsh.Session
	if err == nil && attach {
		var img *vmsh.Image
		if img, err = lab.BuildImage(name+".img", vmsh.ToolImage()); err == nil {
			sess, err = lab.Attach(vm, append([]vmsh.Option{vmsh.WithImage(img)}, opts...)...)
		}
	}
	if err != nil {
		b.Fatal(err)
	}
	return lab, vm, sess
}

// BenchmarkVirtqueueRoundTrip is the microbenchmark underneath
// everything: one 4 KiB request through the full vmsh-blk path.
func BenchmarkVirtqueueRoundTrip(b *testing.B) {
	lab, vm, _ := bootBench(b, "vq", true, vmsh.WithoutShell())
	dev, ok := vm.Kernel.BlockDevByName("vmshblk0")
	if !ok {
		b.Fatal("vmshblk0 missing")
	}
	buf := make([]byte, 4096)
	before := lab.Clock().Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dev.ReadAt(0, buf); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	vus := float64((lab.Clock().Now() - before).Microseconds()) / float64(b.N)
	b.ReportMetric(vus, "virtual-us/op")
}

// BenchmarkConsoleExec measures one shell command round trip over the
// injected console.
func BenchmarkConsoleExec(b *testing.B) {
	_, _, sess := bootBench(b, "exec", true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := sess.Exec("echo bench")
		if err != nil || !strings.Contains(out, "bench") {
			b.Fatalf("%q %v", out, err)
		}
	}
}

// BenchmarkGuestFSOps measures plain guest filesystem operations over
// qemu-blk (the substrate the evaluation rests on).
func BenchmarkGuestFSOps(b *testing.B) {
	_, vm, _ := bootBench(b, "fsops", false)
	p := vm.NewGuestProc("bench")
	if err := p.Mkdir("/bench", 0o755); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := "/bench/f"
		if err := p.WriteFile(path, []byte("benchmark data"), 0o644); err != nil {
			b.Fatal(err)
		}
		if _, err := p.Stat(path); err != nil {
			b.Fatal(err)
		}
		if err := p.Unlink(path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPhoronixSingle runs one representative Phoronix workload
// natively in the guest (not comparative) as a substrate microbench.
func BenchmarkPhoronixSingle(b *testing.B) {
	_, vm, _ := bootBench(b, "pts", false)
	var bench workloads.PhoronixBench
	for _, w := range workloads.PhoronixDiskSuite() {
		if w.Name == "PostMark: Disk transactions" {
			bench = w
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := vm.NewGuestProc("pts")
		d, err := workloads.RunPhoronix(bench, p, "/postmark")
		if err != nil {
			b.Fatal(err)
		}
		if err := p.RemoveAll("/postmark"); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(d.Microseconds()), "virtual-us")
	}
}
