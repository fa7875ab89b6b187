package kvm

import (
	"encoding/binary"
	"fmt"

	"vmsh/internal/arch"
	"vmsh/internal/hostsim"
	"vmsh/internal/mem"
)

// VMFD is the /dev/kvm VM file descriptor.
type VMFD struct{ VM *VM }

// ProcLink implements hostsim.FD; the sideloader greps for this.
func (f *VMFD) ProcLink() string { return "anon_inode:kvm-vm" }

// Ioctl implements hostsim.IoctlFD for the VM fd. Structs are
// exchanged as packed little-endian bytes through the calling
// process's memory, like the real API.
func (f *VMFD) Ioctl(p *hostsim.Process, cmd uint64, arg uint64) (uint64, error) {
	vm := f.VM
	// The eBPF probe VMSH attaches to kvm_vm_ioctl sees every VM
	// ioctl along with the current memslot table.
	vm.host.FireKProbe("kvm_vm_ioctl", vm.slotInfo())

	switch cmd {
	case KVMCheckExtension:
		return 1, nil

	case KVMSetUserMemoryRegion:
		// struct kvm_userspace_memory_region:
		//   u32 slot; u32 flags; u64 guest_phys_addr;
		//   u64 memory_size; u64 userspace_addr;
		var buf [32]byte
		if err := p.ReadMem(mem.HVA(arg), buf[:]); err != nil {
			return 0, err
		}
		slot := binary.LittleEndian.Uint32(buf[0:])
		gpa := mem.GPA(binary.LittleEndian.Uint64(buf[8:]))
		size := binary.LittleEndian.Uint64(buf[16:])
		hva := mem.HVA(binary.LittleEndian.Uint64(buf[24:]))

		if size == 0 {
			// Real KVM semantics: memory_size 0 deletes the numbered
			// slot. VMSH's rollback path uses this to take its library
			// slot back out of the guest physical space.
			for i, s := range vm.memslots {
				if s.Slot == slot {
					vm.memslots = append(vm.memslots[:i], vm.memslots[i+1:]...)
					s.Phys.SetDirtyLog(false)
					return 0, nil
				}
			}
			return 0, fmt.Errorf("%w: no memslot %d to delete", hostsim.ErrInval, slot)
		}

		m, ok := p.AS.Find(hva)
		if !ok {
			return 0, fmt.Errorf("%w: userspace_addr %#x not mapped", hostsim.ErrFault, hva)
		}
		if m.HVA != hva || m.Size < size {
			return 0, fmt.Errorf("%w: memslot must cover a whole mapping", hostsim.ErrInval)
		}
		for _, s := range vm.memslots {
			if gpa < s.GPA+mem.GPA(s.Size) && s.GPA < gpa+mem.GPA(size) {
				return 0, fmt.Errorf("%w: memslot overlaps slot %d", hostsim.ErrInval, s.Slot)
			}
		}
		ns := &MemSlot{Slot: slot, GPA: gpa, Size: size, HVA: hva, Phys: m.Phys}
		vm.memslots = append(vm.memslots, ns)
		if vm.dirtyLog {
			ns.Phys.SetDirtyLog(true)
		}
		return 0, nil

	case KVMIrqfd:
		// struct kvm_irqfd: u32 fd; u32 gsi; u32 flags; u32 pad.
		var buf [16]byte
		if err := p.ReadMem(mem.HVA(arg), buf[:]); err != nil {
			return 0, err
		}
		fdnum := int(binary.LittleEndian.Uint32(buf[0:]))
		gsi := binary.LittleEndian.Uint32(buf[4:])
		flags := binary.LittleEndian.Uint32(buf[8:])
		if vm.IRQChipMSIXOnly && flags&IrqfdFlagMSI == 0 {
			// Cloud Hypervisor routes every interrupt through PCIe
			// MSI-X; legacy gsi lines do not exist (Table 1's
			// unsupported case). An MSI-routed registration works.
			return 0, fmt.Errorf("%w: gsi irqfd routing unavailable (MSI-X only irqchip)", hostsim.ErrInval)
		}
		fd, err := p.FD(fdnum)
		if err != nil {
			return 0, err
		}
		ev, ok := fd.(*hostsim.EventFD)
		if !ok {
			return 0, hostsim.ErrInval
		}
		ev.Subscribe(func() { vm.InjectIRQ(gsi) })
		return 0, nil

	case KVMSetIoregion:
		if vm.host.NoIoregionfd {
			// Host kernel without the ioregionfd patch (§5): the
			// ioctl number is simply unknown.
			return 0, fmt.Errorf("%w: KVM_SET_IOREGION", hostsim.ErrNoSys)
		}
		// Proposed struct kvm_ioregion: u64 guest_paddr; u64 memory_size;
		// u64 user_data; u32 rfd; u32 wfd; u32 flags; u32 pad.
		var buf [40]byte
		if err := p.ReadMem(mem.HVA(arg), buf[:]); err != nil {
			return 0, err
		}
		gpa := mem.GPA(binary.LittleEndian.Uint64(buf[0:]))
		size := binary.LittleEndian.Uint64(buf[8:])
		rfd := int(binary.LittleEndian.Uint32(buf[24:]))
		fd, err := p.FD(rfd)
		if err != nil {
			return 0, err
		}
		sock, ok := fd.(*hostsim.SockPairFD)
		if !ok {
			return 0, hostsim.ErrInval
		}
		vm.ioregions = append(vm.ioregions, &ioregion{start: gpa, size: size, sock: sock})
		return 0, nil

	default:
		return 0, fmt.Errorf("%w: vm ioctl %#x", hostsim.ErrNoSys, cmd)
	}
}

// VCPUFD is a vCPU file descriptor.
type VCPUFD struct{ VCPU *VCPU }

// ProcLink implements hostsim.FD.
func (f *VCPUFD) ProcLink() string {
	return fmt.Sprintf("anon_inode:kvm-vcpu:%d", f.VCPU.Index)
}

// packRegs encodes the architecture's kvm_regs struct: 18 u64 on
// x86-64 (field order of struct kvm_regs), 34 u64 on arm64 (struct
// user_pt_regs: x0..x30, sp, pc, pstate).
func packRegs(a arch.Arch, r hostsim.Regs) []byte {
	if a == arch.ARM64 {
		vals := make([]uint64, 34)
		copy(vals, r.X[:])
		vals[31], vals[32], vals[33] = r.SP, r.PC, r.PSTATE
		return hostsim.EncodeU64s(vals...)
	}
	return hostsim.EncodeU64s(
		r.RAX, r.RBX, r.RCX, r.RDX,
		r.RSI, r.RDI, r.RSP, r.RBP,
		r.R8, r.R9, r.R10, r.R11,
		r.R12, r.R13, r.R14, r.R15,
		r.RIP, r.RFLAGS,
	)
}

func unpackRegs(a arch.Arch, b []byte) hostsim.Regs {
	g := func(i int) uint64 { return hostsim.DecodeU64(b, i) }
	if a == arch.ARM64 {
		var r hostsim.Regs
		for i := 0; i < 31; i++ {
			r.X[i] = g(i)
		}
		r.SP, r.PC, r.PSTATE = g(31), g(32), g(33)
		return r
	}
	return hostsim.Regs{
		RAX: g(0), RBX: g(1), RCX: g(2), RDX: g(3),
		RSI: g(4), RDI: g(5), RSP: g(6), RBP: g(7),
		R8: g(8), R9: g(9), R10: g(10), R11: g(11),
		R12: g(12), R13: g(13), R14: g(14), R15: g(15),
		RIP: g(16), RFLAGS: g(17),
	}
}

// RegsStructSize is the byte size of the packed kvm_regs struct.
func RegsStructSize(a arch.Arch) int {
	if a == arch.ARM64 {
		return 34 * 8
	}
	return 18 * 8
}

// InstrPtrIndex is the u64 index of the instruction pointer inside the
// packed regs struct (RIP on x86-64, PC on arm64).
func InstrPtrIndex(a arch.Arch) int {
	if a == arch.ARM64 {
		return 32
	}
	return 16
}

// SregsStructSize is the byte size of the packed (reduced) kvm_sregs;
// both architectures pack into 7 u64 here.
const SregsStructSize = 7 * 8

// PageTableRootOffset is where the page-table base register sits in
// the packed sregs struct (CR3 on x86-64, TTBR0_EL1 on arm64); the
// sideloader reads it to find the guest page tables.
func PageTableRootOffset(a arch.Arch) int {
	if a == arch.ARM64 {
		return 8 // [SCTLR, TTBR0, TTBR1, TCR, MAIR, 0, 0]
	}
	return 16 // [CR0, CR2, CR3, CR4, CR8, EFER, ApicBase]
}

// Ioctl implements hostsim.IoctlFD for vCPU fds.
func (f *VCPUFD) Ioctl(p *hostsim.Process, cmd uint64, arg uint64) (uint64, error) {
	v := f.VCPU
	a := v.vm.Arch()
	switch cmd {
	case KVMGetRegs:
		return 0, p.WriteMem(mem.HVA(arg), packRegs(a, v.GetRegs()))
	case KVMSetRegs:
		buf := make([]byte, RegsStructSize(a))
		if err := p.ReadMem(mem.HVA(arg), buf); err != nil {
			return 0, err
		}
		v.SetRegs(unpackRegs(a, buf))
		return 0, nil
	case KVMGetSregs:
		s := v.GetSregs()
		if a == arch.ARM64 {
			return 0, p.WriteMem(mem.HVA(arg), hostsim.EncodeU64s(
				s.SCTLR, s.TTBR0, s.TTBR1, s.TCR, 0, 0, 0))
		}
		return 0, p.WriteMem(mem.HVA(arg), hostsim.EncodeU64s(
			s.CR0, s.CR2, s.CR3, s.CR4, s.CR8, s.EFER, s.ApicBase))
	case KVMRun:
		if v.vm.executor == nil {
			return 0, fmt.Errorf("%w: no guest executor", hostsim.ErrInval)
		}
		v.vm.executor.RunGuest(v)
		return 0, nil
	default:
		return 0, fmt.Errorf("%w: vcpu ioctl %#x", hostsim.ErrNoSys, cmd)
	}
}
