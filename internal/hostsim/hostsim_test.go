package hostsim

import (
	"testing"

	"vmsh/internal/mem"
)

func root() Creds {
	return Creds{UID: 0, Caps: Caps(CapSysPtrace, CapBPF)}
}

func user(uid int) Creds { return Creds{UID: uid} }

func TestProcessLifecycle(t *testing.T) {
	h := NewHost()
	p := h.NewProcess("qemu", user(1000))
	if _, ok := h.Process(p.PID); !ok {
		t.Fatal("process not registered")
	}
	if len(h.Pids()) != 1 {
		t.Fatalf("pids = %v", h.Pids())
	}
	h.Exit(p)
	if _, ok := h.Process(p.PID); ok {
		t.Fatal("exited process still visible")
	}
}

func TestMmapSyscall(t *testing.T) {
	h := NewHost()
	p := h.NewProcess("p", user(1000))
	hva, err := p.Syscall(SysMmap, 0, 8192, ProtRead|ProtWrite, MapAnonymous|MapPrivate, ^uint64(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("through the mapping")
	if err := p.WriteMem(mem.HVA(hva), msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := p.ReadMem(mem.HVA(hva), got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatal("mmap memory did not round trip")
	}
	if _, err := p.Syscall(SysMunmap, hva, 8192); err != nil {
		t.Fatal(err)
	}
	if err := p.ReadMem(mem.HVA(hva), got); err == nil {
		t.Fatal("read of unmapped memory succeeded")
	}
}

func TestProcessVMPermissions(t *testing.T) {
	h := NewHost()
	target := h.NewProcess("qemu", user(1000))
	hva, _ := target.Syscall(SysMmap, 0, 4096, 3, MapAnonymous|MapPrivate, ^uint64(0), 0)
	_ = target.WriteMem(mem.HVA(hva), []byte("secret"))

	stranger := h.NewProcess("stranger", user(2000))
	buf := make([]byte, 6)
	if err := h.ProcessVMRead(stranger, target.PID, mem.HVA(hva), buf); err == nil {
		t.Fatal("cross-uid read without CAP_SYS_PTRACE succeeded")
	}
	vmsh := h.NewProcess("vmsh", root())
	if err := h.ProcessVMRead(vmsh, target.PID, mem.HVA(hva), buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "secret" {
		t.Fatalf("read %q", buf)
	}
	if err := h.ProcessVMWrite(vmsh, target.PID, mem.HVA(hva), []byte("REPLAC")); err != nil {
		t.Fatal(err)
	}
	_ = target.ReadMem(mem.HVA(hva), buf)
	if string(buf) != "REPLAC" {
		t.Fatalf("target sees %q after write", buf)
	}
}

func TestProcessVMChargesClock(t *testing.T) {
	h := NewHost()
	target := h.NewProcess("qemu", user(1000))
	hva, _ := target.Syscall(SysMmap, 0, 1<<20, 3, MapAnonymous|MapPrivate, ^uint64(0), 0)
	vmsh := h.NewProcess("vmsh", root())
	before := h.Clock.Now()
	buf := make([]byte, 1<<20)
	if err := h.ProcessVMRead(vmsh, target.PID, mem.HVA(hva), buf); err != nil {
		t.Fatal(err)
	}
	if h.Clock.Since(before) < h.Costs.ProcessVMBase {
		t.Fatal("bulk copy did not advance the clock")
	}
}

func TestPtraceAttachAndRegs(t *testing.T) {
	h := NewHost()
	target := h.NewProcess("qemu", user(1000))
	tid := target.MainThread()
	vmsh := h.NewProcess("vmsh", root())

	tr, err := vmsh.Attach(target)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.GetRegs(tid); err == nil {
		t.Fatal("GetRegs on a running thread succeeded")
	}
	if err := tr.InterruptAll(); err != nil {
		t.Fatal(err)
	}
	if !tr.Stopped() {
		t.Fatal("threads not stopped after InterruptAll")
	}
	r, err := tr.GetRegs(tid)
	if err != nil {
		t.Fatal(err)
	}
	r.RIP = 0xdeadbeef
	if err := tr.SetRegs(tid, r); err != nil {
		t.Fatal(err)
	}
	if got, _ := tr.GetRegs(tid); got.RIP != 0xdeadbeef {
		t.Fatal("SetRegs did not stick")
	}
	if err := tr.Detach(); err != nil {
		t.Fatal(err)
	}
	if target.Traced() {
		t.Fatal("still traced after detach")
	}
}

func TestPtracePermissionDenied(t *testing.T) {
	h := NewHost()
	target := h.NewProcess("qemu", user(1000))
	stranger := h.NewProcess("stranger", user(2000))
	if _, err := stranger.Attach(target); err == nil {
		t.Fatal("cross-uid attach without cap succeeded")
	}
	// Same uid is fine without caps.
	peer := h.NewProcess("peer", user(1000))
	if _, err := peer.Attach(target); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleAttachRejected(t *testing.T) {
	h := NewHost()
	target := h.NewProcess("qemu", user(1000))
	a := h.NewProcess("a", root())
	b := h.NewProcess("b", root())
	if _, err := a.Attach(target); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Attach(target); err == nil {
		t.Fatal("second tracer attached")
	}
}

func TestInjectSyscallRestoresRegs(t *testing.T) {
	h := NewHost()
	target := h.NewProcess("qemu", user(1000))
	tid := target.MainThread()
	tid.Regs.RAX, tid.Regs.RDI, tid.Regs.RIP = 1, 2, 3

	vmsh := h.NewProcess("vmsh", root())
	tr, _ := vmsh.Attach(target)
	_ = tr.InterruptAll()

	pid, err := tr.InjectSyscall(tid, SysGetpid)
	if err != nil {
		t.Fatal(err)
	}
	if int(pid) != target.PID {
		t.Fatalf("injected getpid = %d, want %d", pid, target.PID)
	}
	if tid.Regs.RAX != 1 || tid.Regs.RDI != 2 || tid.Regs.RIP != 3 {
		t.Fatalf("registers not restored: %+v", tid.Regs)
	}
}

func TestInjectMmapVisibleToTarget(t *testing.T) {
	h := NewHost()
	target := h.NewProcess("qemu", user(1000))
	vmsh := h.NewProcess("vmsh", root())
	tr, _ := vmsh.Attach(target)
	_ = tr.InterruptAll()

	hva, err := tr.InjectSyscall(target.MainThread(), SysMmap, 0, 4096, 3, MapAnonymous|MapPrivate, ^uint64(0))
	if err != nil {
		t.Fatal(err)
	}
	// VMSH writes into the injected allocation via process_vm_writev.
	if err := h.ProcessVMWrite(vmsh, target.PID, mem.HVA(hva), []byte("payload")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 7)
	if err := target.ReadMem(mem.HVA(hva), got); err != nil || string(got) != "payload" {
		t.Fatalf("target view = %q, %v", got, err)
	}
}

func TestSeccompBlocksInjection(t *testing.T) {
	h := NewHost()
	fc := h.NewProcess("firecracker", user(1000))
	fc.Seccomp = &SeccompPolicy{Allowed: map[uint64]bool{SysIoctl: true, SysRead: true, SysWrite: true}}
	vmsh := h.NewProcess("vmsh", root())
	tr, _ := vmsh.Attach(fc)
	_ = tr.InterruptAll()

	if _, err := tr.InjectSyscall(fc.MainThread(), SysMmap, 0, 4096, 3, MapAnonymous|MapPrivate, ^uint64(0)); err == nil {
		t.Fatal("seccomp-filtered injection succeeded")
	}
	if !fc.Seccomp.Violated {
		t.Fatal("violation not latched")
	}
}

func TestEventFD(t *testing.T) {
	h := NewHost()
	p := h.NewProcess("p", user(1000))
	fdnum, err := p.Syscall(SysEventfd2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	fd, _ := p.FD(int(fdnum))
	ev := fd.(*EventFD)
	fired := 0
	ev.Subscribe(func() { fired++ })

	// write(2) with an 8-byte little-endian count.
	hva, _ := p.Syscall(SysMmap, 0, 4096, 3, MapAnonymous|MapPrivate, ^uint64(0), 0)
	_ = p.WriteMem(mem.HVA(hva), EncodeU64s(1))
	if _, err := p.Syscall(SysWrite, fdnum, hva, 8); err != nil {
		t.Fatal(err)
	}
	if fired != 1 || ev.Drain() != 1 {
		t.Fatalf("fired=%d", fired)
	}
}

func TestUnixFDPassing(t *testing.T) {
	h := NewHost()
	hyp := h.NewProcess("qemu", user(1000))
	vmsh := h.NewProcess("vmsh", root())
	listener, err := h.BindUnix(vmsh, "@vmsh-ipc")
	if err != nil {
		t.Fatal(err)
	}

	// Hypervisor side (as if injected): create an eventfd, connect to
	// the vmsh socket and pass the fd via SCM_RIGHTS.
	evfd, _ := hyp.Syscall(SysEventfd2, 0, 0)
	sock, _ := hyp.Syscall(SysSocket, 1, 1, 0)
	pathHVA, _ := hyp.Syscall(SysMmap, 0, 4096, 3, MapAnonymous|MapPrivate, ^uint64(0), 0)
	path := "@vmsh-ipc"
	_ = hyp.WriteMem(mem.HVA(pathHVA), []byte(path))
	if _, err := hyp.Syscall(SysConnect, sock, pathHVA, uint64(len(path))); err != nil {
		t.Fatal(err)
	}
	if _, err := hyp.Syscall(SysSendmsg, sock, 0, 0, evfd); err != nil {
		t.Fatal(err)
	}

	conn, ok := listener.Accept()
	if !ok {
		t.Fatal("no connection queued")
	}
	_, fds, ok := conn.Recv()
	if !ok || len(fds) != 1 {
		t.Fatalf("rights not passed: ok=%v fds=%d", ok, len(fds))
	}
	ev, isEv := fds[0].(*EventFD)
	if !isEv {
		t.Fatalf("passed fd has type %T", fds[0])
	}
	// vmsh can now signal the hypervisor-created eventfd directly.
	n := vmsh.InstallFD(ev)
	hva, _ := vmsh.Syscall(SysMmap, 0, 4096, 3, MapAnonymous|MapPrivate, ^uint64(0), 0)
	_ = vmsh.WriteMem(mem.HVA(hva), EncodeU64s(5))
	if _, err := vmsh.Syscall(SysWrite, uint64(n), hva, 8); err != nil {
		t.Fatal(err)
	}
	if ev.Drain() != 5 {
		t.Fatal("signal did not arrive")
	}
}

func TestKProbeRequiresCapBPF(t *testing.T) {
	h := NewHost()
	noCap := h.NewProcess("nocap", user(1000))
	if _, err := h.AttachKProbe(noCap, "kvm_vm_ioctl", func(any) {}); err == nil {
		t.Fatal("kprobe without CAP_BPF succeeded")
	}
	vmsh := h.NewProcess("vmsh", root())
	var got any
	kp, err := h.AttachKProbe(vmsh, "kvm_vm_ioctl", func(d any) { got = d })
	if err != nil {
		t.Fatal(err)
	}
	h.FireKProbe("kvm_vm_ioctl", 42)
	if got != 42 {
		t.Fatal("probe did not fire")
	}
	kp.Close()
	got = nil
	h.FireKProbe("kvm_vm_ioctl", 43)
	if got != nil {
		t.Fatal("closed probe fired")
	}
	// Privilege drop: re-attach must fail afterwards.
	vmsh.DropCapability(CapBPF)
	if _, err := h.AttachKProbe(vmsh, "kvm_vm_ioctl", func(any) {}); err == nil {
		t.Fatal("kprobe after privilege drop succeeded")
	}
}

func TestProcFDInfo(t *testing.T) {
	h := NewHost()
	hyp := h.NewProcess("qemu", user(1000))
	_, _ = hyp.Syscall(SysEventfd2, 0, 0)
	vmsh := h.NewProcess("vmsh", root())
	info, err := h.ProcFDInfo(vmsh, hyp.PID)
	if err != nil {
		t.Fatal(err)
	}
	if len(info) != 1 || info[0].Link != "anon_inode:[eventfd]" {
		t.Fatalf("fd info = %+v", info)
	}
	stranger := h.NewProcess("x", user(2000))
	if _, err := h.ProcFDInfo(stranger, hyp.PID); err == nil {
		t.Fatal("cross-uid /proc fd listing succeeded")
	}
}

func TestSyscallTax(t *testing.T) {
	h := NewHost()
	hyp := h.NewProcess("qemu", user(1000))
	vmsh := h.NewProcess("vmsh", root())
	tr, _ := vmsh.Attach(hyp)

	before := h.Clock.Now()
	_, _ = hyp.Syscall(SysGetpid)
	plain := h.Clock.Since(before)

	tr.SetSyscallTax(true)
	before = h.Clock.Now()
	_, _ = hyp.Syscall(SysGetpid)
	taxed := h.Clock.Since(before)

	if taxed != plain+2*h.Costs.PtraceStop {
		t.Fatalf("taxed=%v plain=%v", taxed, plain)
	}
	tr.SetSyscallTax(false)
	before = h.Clock.Now()
	_, _ = hyp.Syscall(SysGetpid)
	if h.Clock.Since(before) != plain {
		t.Fatal("tax not removed")
	}
}

func TestHostFileDirectVsBuffered(t *testing.T) {
	h := NewHost()
	direct := h.CreateFile("direct.img", 1<<20, true)
	buffered := h.CreateFile("buffered.img", 1<<20, false)
	buf := make([]byte, 4096)

	before := h.Clock.Now()
	_ = direct.ReadAt(buf, 0)
	_ = direct.ReadAt(buf, 0)
	directCost := h.Clock.Since(before)

	before = h.Clock.Now()
	_ = buffered.ReadAt(buf, 0)
	_ = buffered.ReadAt(buf, 0) // second read hits host page cache
	bufferedCost := h.Clock.Since(before)

	if bufferedCost >= directCost {
		t.Fatalf("buffered (%v) not cheaper than direct (%v)", bufferedCost, directCost)
	}
}

func TestHostFileFsyncWritesBack(t *testing.T) {
	h := NewHost()
	f := h.CreateFile("img", 1<<20, false)
	_ = f.WriteAt(make([]byte, 8192), 0)
	_, w0, _, _ := h.Disk.Stats()
	if w0 != 0 {
		t.Fatal("buffered write hit the device immediately")
	}
	_ = f.Fsync()
	_, w1, _, wb := h.Disk.Stats()
	if w1 == 0 || wb < 8192 {
		t.Fatalf("fsync wrote %d cmds / %d bytes", w1, wb)
	}
}

func TestHostFileBounds(t *testing.T) {
	h := NewHost()
	f := h.CreateFile("img", 4096, true)
	if err := f.ReadAt(make([]byte, 8), 4092); err == nil {
		t.Fatal("read past EOF succeeded")
	}
	if err := f.WriteAt(make([]byte, 8), -1); err == nil {
		t.Fatal("negative offset accepted")
	}
}
