package core

import (
	"strings"
	"testing"

	"vmsh/internal/faults"
	"vmsh/internal/fsimage"
	"vmsh/internal/guestos"
	"vmsh/internal/hostsim"
	"vmsh/internal/hypervisor"
	"vmsh/internal/mem"
)

// TestAttachFailsOnStrippedKsymtab: if the guest kernel's exported
// symbol strings are unrecognisable (a stripped or exotic build), the
// scan fails cleanly instead of side-loading garbage.
func TestAttachFailsOnStrippedKsymtab(t *testing.T) {
	h, inst := launch(t, hypervisor.QEMU, "5.10")
	// Corrupt the anchor strings in guest memory before attaching,
	// as a build without the expected exports would look.
	base, _ := inst.Kernel.SymbolAddr("printk")
	_ = base
	img := make([]byte, 4<<20)
	if err := inst.VM.GuestMem().ReadPhys(mem.GPA(16<<20), img); err != nil {
		t.Fatal(err)
	}
	for _, anchor := range []string{"filp_open", "kernel_read", "wake_up_process"} {
		for {
			idx := strings.Index(string(img), anchor)
			if idx < 0 {
				break
			}
			copy(img[idx:], strings.Repeat("#", len(anchor)))
		}
	}
	if err := inst.VM.GuestMem().WritePhys(mem.GPA(16<<20), img); err != nil {
		t.Fatal(err)
	}

	v := New(h)
	tools := buildToolImage(t, h, "t.img")
	_, err := v.Attach(inst.Proc.PID, Options{Image: tools})
	if err == nil {
		t.Fatal("attach succeeded against a stripped kernel")
	}
	if !strings.Contains(err.Error(), "ksymtab") && !strings.Contains(err.Error(), "anchor") {
		t.Fatalf("unexpected failure: %v", err)
	}
	// The hypervisor was left untraced and the guest unpanicked.
	if inst.Proc.Traced() {
		t.Fatal("tracer leaked after failed attach")
	}
	if inst.Kernel.Panicked != nil {
		t.Fatalf("failed attach panicked the guest: %v", inst.Kernel.Panicked)
	}
}

// TestAttachFailsOnGarbageImage: an attached image that is not a
// filesystem makes the overlay mount fail inside the guest; the error
// surfaces through the sync page and the guest log, and attach
// returns an error.
func TestAttachFailsOnGarbageImage(t *testing.T) {
	h, inst := launch(t, hypervisor.QEMU, "5.10")
	junk := h.CreateFile("junk.img", 16<<20, false) // never mkfs'd
	v := New(h)
	_, err := v.Attach(inst.Proc.PID, Options{Image: junk})
	if err == nil {
		t.Fatal("attach succeeded with a garbage image")
	}
	log := strings.Join(inst.Kernel.Log, "\n")
	if !strings.Contains(log, "vmsh-lib: aborted") {
		t.Fatalf("guest log does not show the library abort:\n%s", log)
	}
	if inst.Kernel.Panicked != nil {
		t.Fatal("a bad image must not panic the guest")
	}
}

// TestMultiVCPUAttach: the sideloader discovers all vCPU fds and the
// attach works on an SMP guest (it hijacks vCPU 0).
func TestMultiVCPUAttach(t *testing.T) {
	h := hostsim.NewHost()
	inst, err := hypervisor.Launch(h, hypervisor.Config{
		Kind:   hypervisor.QEMU,
		VCPUs:  4,
		RootFS: fsimage.GuestRoot("smp"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(inst.VCPUFDs); got != 4 {
		t.Fatalf("%d vcpu fds", got)
	}
	sess := attach(t, h, inst, Options{})
	if _, err := sess.Exec("echo smp"); err != nil {
		t.Fatal(err)
	}
}

// TestTwoVMsTwoSessions: one VMSH process drives sessions into two
// different VMs on the same host simultaneously.
func TestTwoVMsTwoSessions(t *testing.T) {
	h := hostsim.NewHost()
	launchOne := func(name string) *hypervisor.Instance {
		inst, err := hypervisor.Launch(h, hypervisor.Config{
			Kind: hypervisor.QEMU, Name: name,
			RootFS: fsimage.GuestRoot(name),
		})
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	a, b := launchOne("vm-a"), launchOne("vm-b")
	// Each attach runs as its own vmsh process (the real CLI forks
	// per invocation): the post-probe privilege drop makes a vmsh
	// process single-attach by design.
	imgA := buildToolImage(t, h, "a.img")
	imgB := buildToolImage(t, h, "b.img")
	sa, err := New(h).Attach(a.Proc.PID, Options{Image: imgA})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := New(h).Attach(b.Proc.PID, Options{Image: imgB})
	if err != nil {
		t.Fatal(err)
	}
	outA, _ := sa.Exec("cat /var/lib/vmsh/etc/hostname")
	outB, _ := sb.Exec("cat /var/lib/vmsh/etc/hostname")
	if !strings.Contains(outA, "vm-a") || !strings.Contains(outB, "vm-b") {
		t.Fatalf("sessions crossed: %q / %q", outA, outB)
	}
	if err := sa.Detach(); err != nil {
		t.Fatal(err)
	}
	// The second session is unaffected by the first's detach.
	if _, err := sb.Exec("echo still-here"); err != nil {
		t.Fatal(err)
	}
}

// TestRawConsoleBytes drives the console with partial lines like a
// human typing.
func TestRawConsoleBytes(t *testing.T) {
	h, inst := launch(t, hypervisor.QEMU, "5.10")
	sess := attach(t, h, inst, Options{})
	mark := len(sess.Output())
	sess.SendConsole([]byte("ec"))
	sess.SendConsole([]byte("ho typed-in-"))
	sess.SendConsole([]byte("pieces\n"))
	out := sess.Output()[mark:]
	if !strings.Contains(out, "typed-in-pieces") || !strings.HasSuffix(out, guestos.Prompt) {
		t.Fatalf("console output: %q", out)
	}
	_ = inst
}

// TestPersistentBlkFaultFailsExec: once the vmsh-blk device fails every
// request, a command reading the overlay gets an I/O error; the guest
// kernel does not panic reading the mount's root inode.
func TestPersistentBlkFaultFailsExec(t *testing.T) {
	h, inst := launch(t, hypervisor.QEMU, "5.10")
	rule, err := faults.ParseRule("vq:blk:nth=2,err=eio,persistent")
	if err != nil {
		t.Fatal(err)
	}
	sess := attach(t, h, inst, Options{Fault: faults.NewPlan(1, rule)})
	out, err := sess.Exec("cat /var/lib/vmsh/etc/hostname")
	if err == nil && strings.Contains(out, "guest-under-test") {
		t.Fatalf("read the file through a failed device: %q", out)
	}
	if h.Faults.Injected() == 0 {
		t.Fatal("the plan never failed a vmsh-blk request")
	}
}
