package core

import (
	"strings"
	"testing"

	"vmsh/internal/arch"
	"vmsh/internal/fsimage"
	"vmsh/internal/guestos"
	"vmsh/internal/hostsim"
	"vmsh/internal/hypervisor"
	"vmsh/internal/mem"
)

func launchARM64(t *testing.T, kernel string) (*hostsim.Host, *hypervisor.Instance) {
	t.Helper()
	h := hostsim.NewHost()
	inst, err := hypervisor.Launch(h, hypervisor.Config{
		Kind:          hypervisor.QEMU,
		Arch:          arch.ARM64,
		KernelVersion: kernel,
		RootFS:        fsimage.GuestRoot("arm-guest"),
		Seed:          4242,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h, inst
}

// TestARM64AttachEndToEnd exercises the full arm64 port: X8/X0-X5
// syscall injection, TTBR0-rooted VMSAv8 page-table walking in the
// arm64 KASLR window, user_pt_regs hijacking via PC, and the overlay
// console on top.
func TestARM64AttachEndToEnd(t *testing.T) {
	h, inst := launchARM64(t, "5.10")
	if inst.Kernel.Arch != arch.ARM64 {
		t.Fatal("guest not arm64")
	}
	// The kernel landed in the arm64 window.
	if inst.Kernel.KernelBase < guestos.ARM64KASLRBase ||
		inst.Kernel.KernelBase >= guestos.ARM64KASLREnd {
		t.Fatalf("kernel at %#x, outside the arm64 KASLR window", inst.Kernel.KernelBase)
	}
	// The vCPU runs with TTBR0, not CR3.
	vcpu := inst.VM.VCPUs()[0]
	if vcpu.GetSregs().TTBR0 == 0 || vcpu.GetSregs().CR3 != 0 {
		t.Fatalf("sregs: %+v", vcpu.GetSregs())
	}

	sess := attach(t, h, inst, Options{})
	if sess.KernelBase() != inst.Kernel.KernelBase {
		t.Fatalf("sideloader found %#x, kernel at %#x", sess.KernelBase(), inst.Kernel.KernelBase)
	}
	out, err := sess.Exec("uname")
	if err != nil || !strings.Contains(out, "Linux") {
		t.Fatalf("%q %v", out, err)
	}
	out, _ = sess.Exec("cat /var/lib/vmsh/etc/hostname")
	if !strings.Contains(out, "arm-guest") {
		t.Fatalf("guest root: %q", out)
	}
	// After the trampoline returned, the vCPU is back at the idle PC.
	if mem.GVA(vcpu.GetRegs().PC) != inst.Kernel.KernelBase+0x1000 {
		t.Fatalf("PC after attach = %#x", vcpu.GetRegs().PC)
	}
	if err := sess.Detach(); err != nil {
		t.Fatal(err)
	}
}

// TestARM64AllKernels runs the kernel matrix on arm64 too.
func TestARM64AllKernels(t *testing.T) {
	for _, ver := range guestos.LTSVersions {
		t.Run(ver, func(t *testing.T) {
			h, inst := launchARM64(t, ver)
			sess := attach(t, h, inst, Options{})
			out, err := sess.Exec("uname -r")
			if err != nil || !strings.Contains(out, ver) {
				t.Fatalf("%q %v (log %v)", out, err, inst.Kernel.Log)
			}
		})
	}
}

// TestARM64SyscallInjectionABI pins the register convention.
func TestARM64SyscallInjectionABI(t *testing.T) {
	h := hostsim.NewHost()
	target := h.NewProcess("hyp", hostsim.Creds{UID: 1000})
	target.Arch = arch.ARM64
	tid := target.MainThread()
	tid.Regs.X[8], tid.Regs.X[0], tid.Regs.PC = 1, 2, 3

	vmsh := h.NewProcess("vmsh", hostsim.Creds{UID: 0,
		Caps: hostsim.Caps(hostsim.CapSysPtrace)})
	tr, _ := vmsh.Attach(target)
	_ = tr.InterruptAll()
	pid, err := tr.InjectSyscall(tid, hostsim.SysGetpid)
	if err != nil || int(pid) != target.PID {
		t.Fatalf("%d %v", pid, err)
	}
	// Registers restored exactly.
	if tid.Regs.X[8] != 1 || tid.Regs.X[0] != 2 || tid.Regs.PC != 3 {
		t.Fatalf("regs clobbered: %+v", tid.Regs.X[:9])
	}
}
