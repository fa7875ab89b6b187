// Benchmarks regenerating every table and figure of the paper's
// evaluation (§6), one testing.B target per artifact, plus ablation
// benches for the design decisions DESIGN.md calls out (D1-D4).
//
// Reported custom metrics carry the experiment's headline numbers in
// *virtual* time/ratios (the simulation's clock), so they are
// deterministic across machines; ns/op reflects real host effort only.
//
//	go test -bench=. -benchmem
package vmsh_test

import (
	"strings"
	"testing"

	"vmsh"
	"vmsh/internal/core"
	"vmsh/internal/debloat"
	"vmsh/internal/eval"
	"vmsh/internal/hypervisor"
	"vmsh/internal/ksym"
	"vmsh/internal/mem"
	"vmsh/internal/workloads"
)

// BenchmarkE1Xfstests — §6.1, robustness: 619 tests on native,
// qemu-blk and vmsh-blk.
func BenchmarkE1Xfstests(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := eval.RunXfstests()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Native.Failed), "native-failures")
		b.ReportMetric(float64(res.QemuBlk.Failed), "qemublk-failures")
		b.ReportMetric(float64(res.VmshBlk.Failed), "vmshblk-failures")
		b.ReportMetric(float64(res.Native.Passed), "passed")
	}
}

// BenchmarkE2HypervisorMatrix — Table 1 (hypervisors): attach across
// the five personalities.
func BenchmarkE2HypervisorMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := eval.RunHypervisorMatrix()
		supported := 0
		for _, r := range rows {
			if r.Supported {
				supported++
			}
		}
		b.ReportMetric(float64(supported), "supported-of-5")
	}
}

// BenchmarkE3KernelMatrix — Table 1 (kernels): attach across the six
// LTS versions.
func BenchmarkE3KernelMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := eval.RunKernelMatrix()
		supported := 0
		for _, r := range rows {
			if r.Supported {
				supported++
			}
		}
		b.ReportMetric(float64(supported), "supported-of-6")
	}
}

// BenchmarkE4Phoronix — Figure 5: the 32-row disk suite, vmsh-blk
// relative to qemu-blk.
func BenchmarkE4Phoronix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunPhoronix()
		if err != nil {
			b.Fatal(err)
		}
		mean, _, worst, _ := eval.PhoronixStats(rows)
		b.ReportMetric(mean, "avg-slowdown-x")
		b.ReportMetric(worst, "worst-slowdown-x")
	}
}

// BenchmarkE5Fio — Figure 6a/6b: fio throughput and IOPS across
// native, qemu-blk, vmsh-blk, both traps, and the file-IO panel.
func BenchmarkE5Fio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		direct, err := eval.RunFioDirect()
		if err != nil {
			b.Fatal(err)
		}
		file, err := eval.RunFioFileIO()
		if err != nil {
			b.Fatal(err)
		}
		get := func(setups []eval.FioSetup, name, rw string, bs int) float64 {
			for _, s := range setups {
				if s.Name != name {
					continue
				}
				for _, r := range s.Results {
					if r.Spec.RW == rw && r.Spec.BS == bs {
						if bs == 4096 {
							return r.IOPS
						}
						return r.MBps
					}
				}
			}
			return 0
		}
		b.ReportMetric(get(direct, "native", "read", 256*1024), "native-MBps")
		b.ReportMetric(get(direct, "qemu-blk", "read", 256*1024), "qemublk-MBps")
		b.ReportMetric(get(direct, "ioregionfd vmsh-blk", "read", 256*1024), "vmshblk-MBps")
		b.ReportMetric(get(direct, "qemu-blk", "read", 4096)/1000, "qemublk-kIOPS")
		b.ReportMetric(get(direct, "wrap_syscall qemu-blk", "read", 4096)/1000, "wrap-qemublk-kIOPS")
		b.ReportMetric(get(direct, "ioregionfd vmsh-blk", "read", 4096)/1000, "vmshblk-kIOPS")
		b.ReportMetric(get(file, "qemu-9p file", "read", 4096)/1000, "9p-kIOPS")
	}
}

// BenchmarkE5FastPath — the batched fast path vs the legacy per-chain
// service on the Figure 6 jobs: crossing/interrupt reduction ratios
// and virtual-time totals for both modes.
func BenchmarkE5FastPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		modes, err := eval.RunFioFastPath()
		if err != nil {
			b.Fatal(err)
		}
		fast, legacy := modes[0], modes[1]
		b.ReportMetric(float64(legacy.ProcVMCalls)/float64(fast.ProcVMCalls), "procvm-reduction-x")
		b.ReportMetric(float64(legacy.Interrupts)/float64(fast.Interrupts), "irq-reduction-x")
		b.ReportMetric(fast.VirtualTime.Seconds()*1000, "fast-vtime-ms")
		b.ReportMetric(legacy.VirtualTime.Seconds()*1000, "legacy-vtime-ms")
	}
}

// BenchmarkE6Console — Figure 7: echo round-trip latency.
func BenchmarkE6Console(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lat, err := eval.RunConsoleLatency()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(lat.Native.Microseconds()), "native-us")
		b.ReportMetric(float64(lat.SSH.Microseconds()), "ssh-us")
		b.ReportMetric(float64(lat.VMSH.Microseconds()), "vmsh-us")
	}
}

// BenchmarkE7Debloat — Figure 8: top-40 image trace-and-strip.
func BenchmarkE7Debloat(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := debloat.RunAll()
		if err != nil {
			b.Fatal(err)
		}
		avg, _, max, under10 := debloat.Stats(rs)
		b.ReportMetric(avg*100, "avg-reduction-%")
		b.ReportMetric(max*100, "max-reduction-%")
		b.ReportMetric(float64(under10), "static-outliers")
	}
}

// BenchmarkAttachLatency measures one full attach (sideload + devices
// + overlay + shell) in virtual and real time.
func BenchmarkAttachLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := vmsh.NewLab()
		vm, err := lab.LaunchVM(vmsh.WithRootFS(vmsh.GuestRoot("bench")))
		if err != nil {
			b.Fatal(err)
		}
		img, err := lab.BuildImage("tools.img", vmsh.ToolImage())
		if err != nil {
			b.Fatal(err)
		}
		before := lab.Clock().Now()
		sess, err := lab.Attach(vm, vmsh.WithImage(img))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64((lab.Clock().Now() - before).Milliseconds()), "attach-vms")
		if err := sess.Detach(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTrap — D1: the two MMIO trap mechanisms, measured
// by the damage they do to *unrelated* qemu-blk IO while attached.
func BenchmarkAblationTrap(b *testing.B) {
	run := func(b *testing.B, trap core.TrapMode) {
		for i := 0; i < b.N; i++ {
			direct, err := eval.RunFioDirect()
			if err != nil {
				b.Fatal(err)
			}
			var alone, attached float64
			for _, s := range direct {
				for _, r := range s.Results {
					if r.Spec.RW != "read" || r.Spec.BS != 4096 {
						continue
					}
					if s.Name == "qemu-blk" {
						alone = r.IOPS
					}
					if s.Name == trap.String()+" qemu-blk" {
						attached = r.IOPS
					}
				}
			}
			b.ReportMetric(alone/attached, "qemublk-penalty-x")
		}
	}
	b.Run("wrap_syscall", func(b *testing.B) { run(b, core.TrapWrapSyscall) })
	b.Run("ioregionfd", func(b *testing.B) { run(b, core.TrapIoregionfd) })
}

// BenchmarkAblationCopy — D2: the direct process_vm data path against
// the unoptimised bounce-buffer copies (§5 claims the direct path
// doubled Phoronix results).
func BenchmarkAblationCopy(b *testing.B) {
	run := func(b *testing.B, bounce bool) {
		for i := 0; i < b.N; i++ {
			rows, err := eval.RunPhoronixOpts(core.Options{BounceCopy: bounce})
			if err != nil {
				b.Fatal(err)
			}
			mean, _, _, _ := eval.PhoronixStats(rows)
			b.ReportMetric(mean, "avg-slowdown-x")
		}
	}
	b.Run("direct", func(b *testing.B) { run(b, false) })
	b.Run("bounce", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationKsymLayouts — D3: ksymtab recovery across the three
// on-disk layouts the LTS span used.
func BenchmarkAblationKsymLayouts(b *testing.B) {
	syms := make([]ksym.Symbol, 0, 24)
	base := mem.GVA(0xffffffff81000000)
	for i, n := range []string{"filp_open", "filp_close", "kernel_read", "kernel_write",
		"wake_up_process", "kthread_stop", "do_exit", "printk",
		"platform_device_register", "platform_device_unregister",
		"kthread_create_on_node", "call_usermodehelper"} {
		syms = append(syms, ksym.Symbol{Name: n, Value: base + mem.GVA(0x1000+i*0x80)})
	}
	for _, layout := range []ksym.Layout{ksym.LayoutAbsolute, ksym.LayoutPosRel, ksym.LayoutPosRelNS} {
		layout := layout
		b.Run(layout.String(), func(b *testing.B) {
			img := make([]byte, 1<<20)
			sec, err := ksym.Build(layout, syms, base+0x80000, base+0xc0000)
			if err != nil {
				b.Fatal(err)
			}
			copy(img[0x80000:], sec.Tab)
			copy(img[0xc0000:], sec.Strings)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := ksym.Scan(img, base)
				if err != nil {
					b.Fatal(err)
				}
				if res.Layout != layout {
					b.Fatalf("detected %v", res.Layout)
				}
			}
		})
	}
}

// BenchmarkAblationMemslotPlacement — D4: VMSH's top-of-memory memslot
// never collides with guest RAM across personalities and RAM sizes.
func BenchmarkAblationMemslotPlacement(b *testing.B) {
	kinds := []hypervisor.Kind{hypervisor.QEMU, hypervisor.Kvmtool, hypervisor.Crosvm}
	rams := []uint64{128 << 20, 256 << 20, 384 << 20}
	for i := 0; i < b.N; i++ {
		collisions := 0
		for _, kind := range kinds {
			for _, ram := range rams {
				lab := vmsh.NewLab()
				vm, err := lab.LaunchVM(vmsh.WithHypervisor(kind), vmsh.WithMemMiB(ram>>20),
					vmsh.WithRootFS(vmsh.GuestRoot("d4")), vmsh.WithVMSeed(int64(ram)+int64(kind)))
				if err != nil {
					b.Fatal(err)
				}
				img, err := lab.BuildImage("t.img", vmsh.ToolImage())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := lab.Attach(vm, vmsh.WithImage(img)); err != nil {
					collisions++
				}
			}
		}
		b.ReportMetric(float64(collisions), "collisions")
	}
}

// BenchmarkVirtqueueRoundTrip is the microbenchmark underneath
// everything: one 4 KiB request through the full vmsh-blk path.
func BenchmarkVirtqueueRoundTrip(b *testing.B) {
	lab := vmsh.NewLab()
	vm, err := lab.LaunchVM(vmsh.WithRootFS(vmsh.GuestRoot("vq")))
	if err != nil {
		b.Fatal(err)
	}
	img, err := lab.BuildImage("vq.img", vmsh.ToolImage())
	if err != nil {
		b.Fatal(err)
	}
	lab2 := lab // same lab; attach minimal
	sess, err := lab2.Attach(vm, vmsh.WithImage(img), vmsh.WithoutShell())
	if err != nil {
		b.Fatal(err)
	}
	_ = sess
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
	lab := vmsh.NewLab()
	vm, err := lab.LaunchVM(vmsh.WithRootFS(vmsh.GuestRoot("exec")))
	if err != nil {
		b.Fatal(err)
	}
	img, err := lab.BuildImage("exec.img", vmsh.ToolImage())
	if err != nil {
		b.Fatal(err)
	}
	sess, err := lab.Attach(vm, vmsh.WithImage(img))
	if err != nil {
		b.Fatal(err)
	}
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
	lab := vmsh.NewLab()
	vm, err := lab.LaunchVM(vmsh.WithRootFS(vmsh.GuestRoot("fsops")))
	if err != nil {
		b.Fatal(err)
	}
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

// BenchmarkSideloadScan isolates the introspection half of attach:
// page-table walk, banner parse, ksymtab scan (no devices).
func BenchmarkSideloadScan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := vmsh.NewLab()
		vm, err := lab.LaunchVM(vmsh.WithRootFS(vmsh.GuestRoot("scan")), vmsh.WithVMSeed(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		img, err := lab.BuildImage("s.img", vmsh.ToolImage())
		if err != nil {
			b.Fatal(err)
		}
		before := lab.Clock().Now()
		sess, err := lab.Attach(vm, vmsh.WithImage(img), vmsh.WithoutShell())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64((lab.Clock().Now() - before).Milliseconds()), "attach-vms")
		_ = sess
	}
}

// BenchmarkPhoronixSingle runs one representative Phoronix workload
// natively in the guest (not comparative) as a substrate microbench.
func BenchmarkPhoronixSingle(b *testing.B) {
	lab := vmsh.NewLab()
	vm, err := lab.LaunchVM(vmsh.WithRootFS(vmsh.GuestRoot("pts")))
	if err != nil {
		b.Fatal(err)
	}
	suite := workloads.PhoronixDiskSuite()
	var bench workloads.PhoronixBench
	for _, w := range suite {
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
