package kvm

import (
	"bytes"
	"slices"
	"testing"

	"vmsh/internal/arch"
	"vmsh/internal/hostsim"
	"vmsh/internal/mem"
)

func newVM(t *testing.T) (*hostsim.Host, *hostsim.Process, *VM) {
	t.Helper()
	h := hostsim.NewHost()
	hyp := h.NewProcess("qemu", hostsim.Creds{UID: 1000})
	vm, _ := CreateVM(hyp, "vm0")
	// 16 MiB of guest RAM mapped into the hypervisor at a fixed HVA.
	ram := mem.NewPhys(0, 16<<20)
	m, err := hyp.AS.MapPhys(0x7f0000000000, ram, "guest-ram")
	if err != nil {
		t.Fatal(err)
	}
	vm.AddMemSlotDirect(0, 0, m.HVA, ram)
	return h, hyp, vm
}

func vmshProc(h *hostsim.Host) *hostsim.Process {
	return h.NewProcess("vmsh", hostsim.Creds{UID: 0,
		Caps: hostsim.Caps(hostsim.CapSysPtrace, hostsim.CapBPF)})
}

func TestGuestMemRouting(t *testing.T) {
	_, hyp, vm := newVM(t)
	g := vm.GuestMem()
	if err := g.WritePhys(0x1000, []byte("in guest ram")); err != nil {
		t.Fatal(err)
	}
	// The hypervisor sees the same bytes through its mapping.
	buf := make([]byte, 12)
	if err := hyp.ReadMem(0x7f0000001000, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "in guest ram" {
		t.Fatalf("hypervisor view = %q", buf)
	}
	if err := g.ReadPhys(17<<20, make([]byte, 1)); err == nil {
		t.Fatal("read outside all slots succeeded")
	}
	if err := g.ReadPhys(^mem.GPA(7), make([]byte, 16)); err == nil {
		t.Fatal("read of a range that wraps the address space succeeded")
	}
}

// The guest's view is a guest-memory view.
var _ mem.PhysIO = guestMem{}

// TestGuestMemVecMatchesScalar: the guest view's vectored pair moves
// the same bytes as per-segment ReadPhys/WritePhys, in both slots, and
// fails a vector with an unmapped segment with the scalar loop's error.
func TestGuestMemVecMatchesScalar(t *testing.T) {
	_, _, vm := newVM(t)
	vm.AddMemSlotDirect(1, 32<<20, 0x7f1000000000, mem.NewPhys(32<<20, 1<<20))
	g := vm.GuestMem()
	vecs := func(gpas []mem.GPA, fill byte) []mem.Vec {
		out := make([]mem.Vec, len(gpas))
		for i, gpa := range gpas {
			out[i] = mem.Vec{GPA: gpa, Buf: bytes.Repeat([]byte{fill + byte(i)}, 100+i)}
		}
		return out
	}
	scalar := func(vs []mem.Vec, move func(mem.GPA, []byte) error) error {
		for _, v := range vs {
			if err := move(v.GPA, v.Buf); err != nil {
				return err
			}
		}
		return nil
	}
	mapped := []mem.GPA{0x1000, 16<<20 - 101, 32 << 20, 0x2000}
	if err := g.WritePhysVec(vecs(mapped, 1)); err != nil {
		t.Fatal(err)
	}
	got := vecs(mapped, 0)
	if err := scalar(got, g.ReadPhys); err != nil {
		t.Fatal(err)
	}
	if err := scalar(vecs(mapped, 50), g.WritePhys); err != nil {
		t.Fatal(err)
	}
	got2 := vecs(mapped, 0)
	if err := g.ReadPhysVec(got2); err != nil {
		t.Fatal(err)
	}
	for i, want := range vecs(mapped, 1) {
		if !bytes.Equal(got[i].Buf, want.Buf) || !bytes.Equal(got2[i].Buf, vecs(mapped, 50)[i].Buf) {
			t.Fatalf("segment %d at %#x moved different bytes", i, want.GPA)
		}
	}
	hole := []mem.GPA{0x1000, 17 << 20, 32 << 20}
	for _, dir := range []struct {
		vec    func([]mem.Vec) error
		scalar func(mem.GPA, []byte) error
	}{{g.ReadPhysVec, g.ReadPhys}, {g.WritePhysVec, g.WritePhys}} {
		verr, serr := dir.vec(vecs(hole, 9)), scalar(vecs(hole, 9), dir.scalar)
		if verr == nil || serr == nil || verr.Error() != serr.Error() {
			t.Fatalf("unmapped segment: vectored %v, scalar %v", verr, serr)
		}
	}
}

// TestGuestMemAccessAllocs: a guest-memory access looks its memslot up
// in place; it copies no slot table and allocates nothing.
func TestGuestMemAccessAllocs(t *testing.T) {
	_, _, vm := newVM(t)
	vm.AddMemSlotDirect(1, 32<<20, 0x7f1000000000, mem.NewPhys(32<<20, 1<<20))
	g := vm.GuestMem()
	buf := make([]byte, 64)
	for _, gpa := range []mem.GPA{0x1000, 32<<20 + 0x80} {
		if n := testing.AllocsPerRun(100, func() {
			if err := g.WritePhys(gpa, buf); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("WritePhys at %#x: %v allocs, want 0", gpa, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := g.ReadPhys(gpa, buf); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("ReadPhys at %#x: %v allocs, want 0", gpa, n)
		}
	}
}

func TestMemSlotViaInjectedIoctl(t *testing.T) {
	h, hyp, vm := newVM(t)
	vmsh := vmshProc(h)
	tr, err := vmsh.Attach(hyp)
	if err != nil {
		t.Fatal(err)
	}
	_ = tr.InterruptAll()
	tid := hyp.MainThread()

	// 1. Inject an mmap for the new slot's backing memory.
	hva, err := tr.InjectSyscall(tid, hostsim.SysMmap, 0, 1<<20, 3, hostsim.MapAnonymous|hostsim.MapPrivate, ^uint64(0))
	if err != nil {
		t.Fatal(err)
	}
	// 2. Write the kvm_userspace_memory_region struct into hypervisor
	// memory (via a second scratch mapping) and inject the ioctl.
	scratch, err := tr.InjectSyscall(tid, hostsim.SysMmap, 0, 4096, 3, hostsim.MapAnonymous|hostsim.MapPrivate, ^uint64(0))
	if err != nil {
		t.Fatal(err)
	}
	topGPA := uint64(16 << 20)
	st := make([]byte, 32)
	copy(st, []byte{9, 0, 0, 0, 0, 0, 0, 0}) // slot=9, flags=0
	copy(st[8:], hostsim.EncodeU64s(topGPA, 1<<20, hva))
	if err := h.ProcessVMWrite(vmsh, hyp.PID, mem.HVA(scratch), st); err != nil {
		t.Fatal(err)
	}
	// Find the vm fd through /proc like the sideloader does.
	var vmfd int = -1
	info, _ := h.ProcFDInfo(vmsh, hyp.PID)
	for _, fi := range info {
		if fi.Link == "anon_inode:kvm-vm" {
			vmfd = fi.Num
		}
	}
	if vmfd < 0 {
		t.Fatal("kvm-vm fd not discoverable via /proc")
	}
	if _, err := tr.InjectSyscall(tid, hostsim.SysIoctl, uint64(vmfd), KVMSetUserMemoryRegion, scratch); err != nil {
		t.Fatal(err)
	}

	// The new slot is now guest-visible: write through process_vm into
	// the hypervisor mapping, read back through guest physical space.
	if err := h.ProcessVMWrite(vmsh, hyp.PID, mem.HVA(hva), []byte("sideloaded")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	if err := vm.GuestMem().ReadPhys(mem.GPA(topGPA), buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "sideloaded" {
		t.Fatalf("guest sees %q", buf)
	}
}

func TestMemSlotOverlapRejected(t *testing.T) {
	h, hyp, _ := newVM(t)
	vmsh := vmshProc(h)
	tr, _ := vmsh.Attach(hyp)
	_ = tr.InterruptAll()
	tid := hyp.MainThread()
	hva, _ := tr.InjectSyscall(tid, hostsim.SysMmap, 0, 1<<20, 3, hostsim.MapAnonymous|hostsim.MapPrivate, ^uint64(0))
	scratch, _ := tr.InjectSyscall(tid, hostsim.SysMmap, 0, 4096, 3, hostsim.MapAnonymous|hostsim.MapPrivate, ^uint64(0))
	st := make([]byte, 32)
	copy(st[8:], hostsim.EncodeU64s(0 /* overlaps RAM at 0 */, 1<<20, hva))
	_ = h.ProcessVMWrite(vmsh, hyp.PID, mem.HVA(scratch), st)
	var vmfd int
	info, _ := h.ProcFDInfo(vmsh, hyp.PID)
	for _, fi := range info {
		if fi.Link == "anon_inode:kvm-vm" {
			vmfd = fi.Num
		}
	}
	if _, err := tr.InjectSyscall(tid, hostsim.SysIoctl, uint64(vmfd), KVMSetUserMemoryRegion, scratch); err == nil {
		t.Fatal("overlapping memslot accepted")
	}
}

func TestVCPURegsIoctlRoundTrip(t *testing.T) {
	h, hyp, vm := newVM(t)
	vcpu, vcpufd := vm.NewVCPU()
	vcpu.SetRegs(hostsim.Regs{RIP: 0xffffffff81000000, RSP: 0x8000})
	vcpu.SetSregs(Sregs{CR3: 0x2000})

	vmsh := vmshProc(h)
	tr, _ := vmsh.Attach(hyp)
	_ = tr.InterruptAll()
	tid := hyp.MainThread()
	buf, _ := tr.InjectSyscall(tid, hostsim.SysMmap, 0, 4096, 3, hostsim.MapAnonymous|hostsim.MapPrivate, ^uint64(0))

	if _, err := tr.InjectSyscall(tid, hostsim.SysIoctl, uint64(vcpufd), KVMGetRegs, buf); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, RegsStructSize(arch.X86_64))
	_ = h.ProcessVMRead(vmsh, hyp.PID, mem.HVA(buf), raw)
	if hostsim.DecodeU64(raw, 16) != 0xffffffff81000000 {
		t.Fatalf("rip via ioctl = %#x", hostsim.DecodeU64(raw, 16))
	}

	if _, err := tr.InjectSyscall(tid, hostsim.SysIoctl, uint64(vcpufd), KVMGetSregs, buf); err != nil {
		t.Fatal(err)
	}
	sraw := make([]byte, SregsStructSize)
	_ = h.ProcessVMRead(vmsh, hyp.PID, mem.HVA(buf), sraw)
	if hostsim.DecodeU64(sraw, PageTableRootOffset(arch.X86_64)/8) != 0x2000 {
		t.Fatal("cr3 not at the documented offset")
	}

	// SET_REGS: hijack RIP.
	raw2 := make([]byte, RegsStructSize(arch.X86_64))
	copy(raw2, raw)
	copy(raw2[16*8:], hostsim.EncodeU64s(0x4242))
	_ = h.ProcessVMWrite(vmsh, hyp.PID, mem.HVA(buf), raw2)
	if _, err := tr.InjectSyscall(tid, hostsim.SysIoctl, uint64(vcpufd), KVMSetRegs, buf); err != nil {
		t.Fatal(err)
	}
	if vcpu.GetRegs().RIP != 0x4242 {
		t.Fatalf("rip after SET_REGS = %#x", vcpu.GetRegs().RIP)
	}
}

func TestIrqfdViaInjectedIoctl(t *testing.T) {
	h, hyp, vm := newVM(t)
	var delivered []uint32
	vm.SetIRQHandler(func(gsi uint32) { delivered = append(delivered, gsi) })

	vmsh := vmshProc(h)
	tr, _ := vmsh.Attach(hyp)
	_ = tr.InterruptAll()
	tid := hyp.MainThread()

	evfd, _ := tr.InjectSyscall(tid, hostsim.SysEventfd2, 0, 0)
	scratch, _ := tr.InjectSyscall(tid, hostsim.SysMmap, 0, 4096, 3, hostsim.MapAnonymous|hostsim.MapPrivate, ^uint64(0))
	st := make([]byte, 16)
	copy(st, []byte{byte(evfd), 0, 0, 0, 7, 0, 0, 0}) // fd, gsi=7
	_ = h.ProcessVMWrite(vmsh, hyp.PID, mem.HVA(scratch), st)
	var vmfd int
	info, _ := h.ProcFDInfo(vmsh, hyp.PID)
	for _, fi := range info {
		if fi.Link == "anon_inode:kvm-vm" {
			vmfd = fi.Num
		}
	}
	if _, err := tr.InjectSyscall(tid, hostsim.SysIoctl, uint64(vmfd), KVMIrqfd, scratch); err != nil {
		t.Fatal(err)
	}

	// Signal the eventfd from the hypervisor context: interrupt fires.
	fd, _ := hyp.FD(int(evfd))
	fd.(*hostsim.EventFD).Signal(1)
	if len(delivered) != 1 || delivered[0] != 7 {
		t.Fatalf("delivered = %v", delivered)
	}
}

type recordingHandler struct {
	calls []mem.GPA
	ret   uint64
}

func (r *recordingHandler) MMIO(gpa mem.GPA, size int, write bool, value uint64) uint64 {
	r.calls = append(r.calls, gpa)
	return r.ret
}

func TestMMIODispatchHypervisorRegion(t *testing.T) {
	h, _, vm := newVM(t)
	dev := &recordingHandler{ret: 0x55}
	vm.RegisterMMIO(0xd0000000, 0x200, dev, "qemu-blk")
	if got := vm.MMIORead(0xd0000010, 4); got != 0x55 {
		t.Fatalf("read = %#x", got)
	}
	vm.MMIOWrite(0xd0000050, 4, 1)
	if len(dev.calls) != 2 {
		t.Fatalf("handler called %d times", len(dev.calls))
	}
	if vm.ExitsTotal != 2 || vm.ExitsToExternal != 0 {
		t.Fatalf("exit counters: %d/%d", vm.ExitsTotal, vm.ExitsToExternal)
	}
	// Unclaimed MMIO floats high.
	if got := vm.MMIORead(0xe0000000, 4); got != ^uint64(0) {
		t.Fatalf("unclaimed read = %#x", got)
	}
	_ = h
}

func TestMMIODispatchIoregionfd(t *testing.T) {
	h, hyp, vm := newVM(t)
	// Build the socketpair inside the hypervisor as the sideloader
	// would, register one end as an ioregion and serve the other.
	vmsh := vmshProc(h)
	tr, _ := vmsh.Attach(hyp)
	_ = tr.InterruptAll()
	tid := hyp.MainThread()
	scratch, _ := tr.InjectSyscall(tid, hostsim.SysMmap, 0, 4096, 3, hostsim.MapAnonymous|hostsim.MapPrivate, ^uint64(0))
	if _, err := tr.InjectSyscall(tid, hostsim.SysSocketpair, 1, 1, 0, scratch); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 8)
	_ = h.ProcessVMRead(vmsh, hyp.PID, mem.HVA(scratch), raw)
	rfd := uint64(uint32(raw[0]) | uint32(raw[1])<<8 | uint32(raw[2])<<16 | uint32(raw[3])<<24)

	st := make([]byte, 40)
	copy(st, hostsim.EncodeU64s(0xd1000000, 0x200, 0))
	st[24] = byte(rfd)
	_ = h.ProcessVMWrite(vmsh, hyp.PID, mem.HVA(scratch+64), st)
	var vmfd int
	info, _ := h.ProcFDInfo(vmsh, hyp.PID)
	for _, fi := range info {
		if fi.Link == "anon_inode:kvm-vm" {
			vmfd = fi.Num
		}
	}
	if _, err := tr.InjectSyscall(tid, hostsim.SysIoctl, uint64(vmfd), KVMSetIoregion, scratch+64); err != nil {
		t.Fatal(err)
	}
	// The peer end would be passed back over the unix socket; here we
	// grab it directly for the dispatch test and attach a handler.
	fd, _ := hyp.FD(int(rfd))
	peer := fd.(*hostsim.SockPairFD).Peer
	dev := &recordingHandler{ret: 0x99}
	peer.SetHandler(kvmHandler{dev})
	_ = tr.Detach()

	if got := vm.MMIORead(0xd1000004, 4); got != 0x99 {
		t.Fatalf("ioregion read = %#x", got)
	}
	if vm.ExitsToExternal != 1 {
		t.Fatalf("external exits = %d", vm.ExitsToExternal)
	}
}

// kvmHandler adapts recordingHandler to the MMIOHandler interface for
// the socket peer (interface value stored as any).
type kvmHandler struct{ h MMIOHandler }

func (k kvmHandler) MMIO(gpa mem.GPA, size int, write bool, value uint64) uint64 {
	return k.h.MMIO(gpa, size, write, value)
}

func TestWrapTrapTaxesAllExits(t *testing.T) {
	h, hyp, vm := newVM(t)
	qemuDev := &recordingHandler{}
	vm.RegisterMMIO(0xd0000000, 0x200, qemuDev, "qemu-blk")

	before := h.Clock.Now()
	vm.MMIORead(0xd0000000, 4)
	plain := h.Clock.Since(before)

	vmshDev := &recordingHandler{}
	vmsh := vmshProc(h)
	tr, _ := vmsh.Attach(hyp)
	tr.SetSyscallTax(true)
	vm.SetWrapTrap(0xd1000000, 0x200, vmshDev)

	// The hypervisor's own device now pays ptrace stops on its exits.
	before = h.Clock.Now()
	vm.MMIORead(0xd0000000, 4)
	taxed := h.Clock.Since(before)
	if taxed != plain+2*h.Costs.PtraceStop {
		t.Fatalf("qemu-blk exit under wrap trap: %v vs %v", taxed, plain)
	}
	// And the trapped region is routed to the external handler.
	vm.MMIORead(0xd1000008, 4)
	if len(vmshDev.calls) != 1 {
		t.Fatal("wrap trap did not route")
	}
	if vm.ExitsToExternal != 1 {
		t.Fatalf("external exits = %d", vm.ExitsToExternal)
	}
}

func TestKprobeSeesMemslots(t *testing.T) {
	h, hyp, vm := newVM(t)
	_ = vm
	vmsh := vmshProc(h)
	var snap []MemSlotInfo
	_, err := h.AttachKProbe(vmsh, "kvm_vm_ioctl", func(d any) {
		if s, ok := d.([]MemSlotInfo); ok {
			snap = s
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := vmsh.Attach(hyp)
	_ = tr.InterruptAll()
	var vmfd int
	info, _ := h.ProcFDInfo(vmsh, hyp.PID)
	for _, fi := range info {
		if fi.Link == "anon_inode:kvm-vm" {
			vmfd = fi.Num
		}
	}
	if _, err := tr.InjectSyscall(hyp.MainThread(), hostsim.SysIoctl, uint64(vmfd), KVMCheckExtension, 0); err != nil {
		t.Fatal(err)
	}
	if len(snap) != 1 || snap[0].HVA != 0x7f0000000000 || snap[0].Size != 16<<20 {
		t.Fatalf("kprobe snapshot = %+v", snap)
	}
}

// setMemRegion issues KVM_SET_USER_MEMORY_REGION as the hypervisor
// does: slot of size bytes at gpa backed by the mapping at hva, or with
// size 0 the deletion of slot.
func setMemRegion(t *testing.T, hyp *hostsim.Process, vm *VM, slot uint32, gpa, size, hva uint64) {
	t.Helper()
	const arg = 0x7e0000000000
	if _, ok := hyp.AS.Find(arg); !ok {
		if _, err := hyp.AS.MapPhys(arg, mem.NewPhys(0, mem.PageSize), "ioctl-arg"); err != nil {
			t.Fatal(err)
		}
	}
	st := append([]byte{byte(slot), 0, 0, 0, 0, 0, 0, 0}, hostsim.EncodeU64s(gpa, size, hva)...)
	if err := hyp.WriteMem(arg, st); err != nil {
		t.Fatal(err)
	}
	if _, err := (&VMFD{VM: vm}).Ioctl(hyp, KVMSetUserMemoryRegion, arg); err != nil {
		t.Fatal(err)
	}
}

func TestDirtyLog(t *testing.T) {
	_, hyp, vm := newVM(t)
	ram := vm.MemSlots()[0].Phys
	if vm.DirtyLog(false) != nil {
		t.Fatal("dirty log present before tracking started")
	}
	vm.StartDirtyTracking()

	const pg = mem.PageSize
	one := []byte{1, 0, 0, 0, 0, 0, 0, 0}    // a little-endian 1
	ram.WriteAt(2*pg+10, []byte("x"))        // page 2
	ram.WriteAt(5*pg, one[:2])               // page 5
	ram.WriteAt(8*pg-2, one[:4])             // straddles pages 7 and 8
	ram.WriteAt(11*pg+8, one)                // page 11
	ram.WriteAt(13*pg-1, make([]byte, pg+2)) // pages 12, 13 and 14
	ram.ReadAt(20*pg, make([]byte, 3*pg))    // loads mark nothing
	ram.ReadAt(30*pg, make([]byte, 8))
	want := []uint64{2, 5, 7, 8, 11, 12, 13, 14}
	if got := vm.DirtyLog(false)[0]; !slices.Equal(got, want) {
		t.Fatalf("dirty pages %v, want %v", got, want)
	}
	if got := vm.DirtyLog(true)[0]; !slices.Equal(got, want) {
		t.Fatalf("DirtyLog(false) consumed the log: %v, want %v", got, want)
	}
	if got := vm.DirtyLog(true)[0]; len(got) != 0 {
		t.Fatalf("DirtyLog(true) left %v in the log", got)
	}

	// A slot added while logging is logged from its first store.
	lib := mem.NewPhys(0, 1<<20)
	if _, err := hyp.AS.MapPhys(0x7f8000000000, lib, "lib"); err != nil {
		t.Fatal(err)
	}
	setMemRegion(t, hyp, vm, 9, 16<<20, 1<<20, 0x7f8000000000)
	if err := vm.GuestMem().WritePhys(16<<20+3*pg, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if got := vm.DirtyLog(true)[9]; !slices.Equal(got, []uint64{3}) {
		t.Fatalf("new slot dirty pages %v, want [3]", got)
	}

	// A deleted slot drops out of the log and stops logging.
	lib.WriteAt(4*pg, one)
	setMemRegion(t, hyp, vm, 9, 0, 0, 0)
	if _, ok := vm.DirtyLog(false)[9]; ok {
		t.Fatal("deleted slot still in the dirty log")
	}
	if lib.DirtyPages(false) != nil {
		t.Fatal("deleted slot's slab still logging")
	}

	vm.StopDirtyTracking()
	ram.WriteAt(0, one)
	if vm.DirtyLog(false) != nil || ram.DirtyPages(false) != nil {
		t.Fatal("dirty log survives StopDirtyTracking")
	}
}
