// Package kvm simulates the Linux KVM kernel API at the surface VMSH
// consumes: VM and vCPU file descriptors with binary ioctl structs,
// user memory slots aliasing hypervisor mappings, MMIO exit dispatch,
// irqfd interrupt routing and the (at paper time, proposed) ioregionfd
// fast MMIO path.
//
// The hypervisor personalities in internal/hypervisor own these fds;
// VMSH reaches them only through injected ioctls and /proc discovery.
package kvm

import (
	"fmt"

	"vmsh/internal/arch"
	"vmsh/internal/faults"
	"vmsh/internal/hostsim"
	"vmsh/internal/mem"
	"vmsh/internal/obs"
)

// ioctl command numbers. The values are stand-ins but the calling
// convention (binary structs through userspace pointers) matches the
// real API.
const (
	KVMCheckExtension      = 0xAE03
	KVMSetUserMemoryRegion = 0xAE46
	KVMIrqfd               = 0xAE76
	KVMSetIoregion         = 0xAE49 // the ioregionfd proposal
	KVMRun                 = 0xAE80
	KVMGetRegs             = 0xAE81
	KVMSetRegs             = 0xAE82
	KVMGetSregs            = 0xAE83
)

// IrqfdFlagMSI marks an irqfd registration as carrying an MSI message
// route rather than a legacy gsi line — the path PCIe MSI-X interrupt
// delivery uses, and the only one a Cloud Hypervisor VM accepts.
const IrqfdFlagMSI = 1 << 2

// Sregs is the simulated special register file: a reduced kvm_sregs
// on x86-64, and the translation-control system registers on arm64
// (TTBR0_EL1 plays CR3's role of pointing at the page table root).
type Sregs struct {
	// x86_64
	CR0, CR2, CR3, CR4, CR8 uint64
	EFER, ApicBase          uint64
	// arm64
	SCTLR, TTBR0, TTBR1, TCR uint64
}

// MemSlot is one guest physical memory slot.
type MemSlot struct {
	Slot uint32
	GPA  mem.GPA
	Size uint64
	HVA  mem.HVA
	Phys *mem.Phys
}

// MemSlotInfo is the kprobe payload VMSH's eBPF program reads from
// kvm_vm_ioctl's arguments.
type MemSlotInfo struct {
	Slot uint32
	GPA  mem.GPA
	Size uint64
	HVA  mem.HVA
}

// Executor runs guest code. internal/guestos installs one per VM; it
// is invoked from KVM_RUN and must return when the guest goes idle.
type Executor interface {
	// RunGuest executes from the vCPU's current register state,
	// handling any pending interrupts and hijacked RIP, until idle.
	RunGuest(v *VCPU)
}

// MMIOHandler serves device register accesses.
type MMIOHandler interface {
	// MMIO performs a register access of size bytes at gpa. For
	// reads the return value carries the data.
	MMIO(gpa mem.GPA, size int, write bool, value uint64) uint64
}

type mmioRegion struct {
	start mem.GPA
	size  uint64
	h     MMIOHandler
	name  string
}

func (r *mmioRegion) contains(gpa mem.GPA) bool {
	return gpa >= r.start && gpa < r.start+mem.GPA(r.size)
}

// VM is one virtual machine.
type VM struct {
	host  *hostsim.Host
	owner *hostsim.Process
	Name  string

	// IRQChipMSIXOnly models hypervisors (Cloud Hypervisor) that
	// route all interrupts through PCIe MSI-X: the gsi-based irqfd
	// registration VMSH's MMIO transport needs is unavailable, which
	// is exactly why Table 1 lists Cloud Hypervisor as unsupported.
	IRQChipMSIXOnly bool

	memslots   []*MemSlot
	vcpus      []*VCPU
	regions    []*mmioRegion // hypervisor-emulated devices
	ioregions  []*ioregion   // ioregionfd-routed regions (external)
	wrap       *wrapTrap     // ptrace-based external trap
	executor   Executor
	irqHandler func(gsi uint32)
	dirtyLog   bool // every memslot's slab is logging dirty pages

	// Counters for the evaluation harness.
	ExitsTotal      int64
	ExitsToExternal int64

	trVCPU     obs.Track // "vcpu:<name>" — exits and injected IRQs
	ctrExits   *obs.Counter
	ctrInjects *obs.Counter
}

// wrapTrap is installed by internal/trap when VMSH uses the ptrace
// MMIO path: the tracer inspects every KVM_RUN exit.
type wrapTrap struct {
	start mem.GPA
	size  uint64
	h     MMIOHandler
}

type ioregion struct {
	start mem.GPA
	size  uint64
	sock  *hostsim.SockPairFD // hypervisor-side end; handler lives on peer
}

// CreateVM makes a VM owned by proc and installs its fd.
func CreateVM(proc *hostsim.Process, name string) (*VM, int) {
	vm := &VM{host: proc.Host(), owner: proc, Name: name}
	vm.trVCPU = vm.host.Trace.Track("vcpu:" + name)
	vm.ctrExits = vm.host.Metrics.Counter("kvm.exits")
	vm.ctrInjects = vm.host.Metrics.Counter("kvm.irq_injects")
	fd := proc.InstallFD(&VMFD{VM: vm})
	return vm, fd
}

// Owner returns the hypervisor process.
func (vm *VM) Owner() *hostsim.Process { return vm.owner }

// Arch returns the VM's architecture (the hypervisor process's).
func (vm *VM) Arch() arch.Arch { return vm.owner.Arch }

// Host returns the host.
func (vm *VM) Host() *hostsim.Host { return vm.host }

// SetExecutor installs the guest executor (guestos).
func (vm *VM) SetExecutor(e Executor) { vm.executor = e }

// SetIRQHandler installs the guest interrupt entry point.
func (vm *VM) SetIRQHandler(fn func(gsi uint32)) { vm.irqHandler = fn }

// AddMemSlotDirect installs a memory slot without going through the
// ioctl path; hypervisors use it at construction time (they own the
// VM, no injection involved).
func (vm *VM) AddMemSlotDirect(slot uint32, gpa mem.GPA, hva mem.HVA, phys *mem.Phys) *MemSlot {
	s := &MemSlot{Slot: slot, GPA: gpa, Size: phys.Size(), HVA: hva, Phys: phys}
	vm.memslots = append(vm.memslots, s)
	if vm.dirtyLog {
		phys.SetDirtyLog(true)
	}
	return s
}

// StartDirtyTracking begins logging guest-physical stores: every write
// into any memslot's slab — guest kernel, device DMA, process_vm
// injection — marks its 4KiB page dirty in the slab's own log (the
// simulated KVM_MEM_LOG_DIRTY_PAGES). Slots added while tracking is
// active (the vmsh library slot, say) are tracked from their first
// byte. Idempotent; tracking adds no virtual-time cost.
func (vm *VM) StartDirtyTracking() {
	if vm.dirtyLog {
		return
	}
	vm.dirtyLog = true
	for _, s := range vm.memslots {
		s.Phys.SetDirtyLog(true)
	}
}

// DirtyLog snapshots the dirty page indices per slot, sorted ascending
// — the KVM_GET_DIRTY_LOG read-and-clear cycle when clear is true —
// which is what live migration's pre-copy rounds poll. Returns nil
// when tracking is off.
func (vm *VM) DirtyLog(clear bool) map[uint32][]uint64 {
	if !vm.dirtyLog {
		return nil
	}
	out := make(map[uint32][]uint64, len(vm.memslots))
	for _, s := range vm.memslots {
		out[s.Slot] = s.Phys.DirtyPages(clear)
	}
	return out
}

// StopDirtyTracking stops every slab's log and drops it.
func (vm *VM) StopDirtyTracking() {
	vm.dirtyLog = false
	for _, s := range vm.memslots {
		s.Phys.SetDirtyLog(false)
	}
}

// MemSlots snapshots the slot list.
func (vm *VM) MemSlots() []*MemSlot {
	out := make([]*MemSlot, len(vm.memslots))
	copy(out, vm.memslots)
	return out
}

// slotInfo builds the kprobe payload.
func (vm *VM) slotInfo() []MemSlotInfo {
	var out []MemSlotInfo
	for _, s := range vm.memslots {
		out = append(out, MemSlotInfo{Slot: s.Slot, GPA: s.GPA, Size: s.Size, HVA: s.HVA})
	}
	return out
}

// NewVCPU creates a vCPU and installs its fd in the owner's table.
func (vm *VM) NewVCPU() (*VCPU, int) {
	v := &VCPU{vm: vm, Index: len(vm.vcpus)}
	vm.vcpus = append(vm.vcpus, v)
	fd := vm.owner.InstallFD(&VCPUFD{VCPU: v})
	return v, fd
}

// VCPUs snapshots the vCPU list.
func (vm *VM) VCPUs() []*VCPU {
	out := make([]*VCPU, len(vm.vcpus))
	copy(out, vm.vcpus)
	return out
}

// RegisterMMIO adds a hypervisor-emulated device region.
func (vm *VM) RegisterMMIO(start mem.GPA, size uint64, h MMIOHandler, name string) {
	vm.regions = append(vm.regions, &mmioRegion{start: start, size: size, h: h, name: name})
}

// SetWrapTrap installs (or clears, with h == nil) the ptrace MMIO trap.
func (vm *VM) SetWrapTrap(start mem.GPA, size uint64, h MMIOHandler) {
	if h == nil {
		vm.wrap = nil
		return
	}
	vm.wrap = &wrapTrap{start: start, size: size, h: h}
}

// GuestMem returns a PhysIO view over all memory slots; this is what
// the guest kernel (and the library interpreter) use for physical
// access, so VMSH's top-of-memory slot is visible the moment the
// injected SET_USER_MEMORY_REGION lands.
func (vm *VM) GuestMem() mem.PhysIO { return guestMem{vm} }

type guestMem struct{ vm *VM }

// slotFor returns the memslot holding [gpa, gpa+n). It walks the
// table in place rather than copying it: every guest-memory access
// goes through it.
func (g guestMem) slotFor(gpa mem.GPA, n int) (*MemSlot, error) {
	for _, s := range g.vm.memslots {
		if off := uint64(gpa - s.GPA); gpa >= s.GPA && off <= s.Size && uint64(n) <= s.Size-off {
			return s, nil
		}
	}
	return nil, fmt.Errorf("kvm: gpa [%#x,+%d) not backed by any memslot", gpa, n)
}

// Contains implements mem.PhysIO.
func (g guestMem) Contains(gpa mem.GPA, n int) bool {
	_, err := g.slotFor(gpa, n)
	return err == nil
}

// Size implements mem.PhysIO: the bytes every memslot holds.
func (g guestMem) Size() uint64 {
	var n uint64
	for _, s := range g.vm.memslots {
		n += s.Size
	}
	return n
}

func (g guestMem) ReadPhys(gpa mem.GPA, buf []byte) error {
	s, err := g.slotFor(gpa, len(buf))
	if err != nil {
		return err
	}
	s.Phys.ReadAt(s.Phys.Base+mem.GPA(gpa-s.GPA), buf)
	return nil
}

func (g guestMem) WritePhys(gpa mem.GPA, buf []byte) error {
	s, err := g.slotFor(gpa, len(buf))
	if err != nil {
		return err
	}
	s.Phys.WriteAt(s.Phys.Base+mem.GPA(gpa-s.GPA), buf)
	return nil
}

// ReadPhysVec implements mem.PhysIO. The guest's own accesses make no
// crossing, so a vector is the per-segment loop.
func (g guestMem) ReadPhysVec(vecs []mem.Vec) error {
	for _, v := range vecs {
		if err := g.ReadPhys(v.GPA, v.Buf); err != nil {
			return err
		}
	}
	return nil
}

// WritePhysVec implements mem.PhysIO.
func (g guestMem) WritePhysVec(vecs []mem.Vec) error {
	for _, v := range vecs {
		if err := g.WritePhys(v.GPA, v.Buf); err != nil {
			return err
		}
	}
	return nil
}

// InjectIRQ delivers a guest interrupt on gsi (irqfd path).
func (vm *VM) InjectIRQ(gsi uint32) {
	vm.host.Clock.Advance(vm.host.Costs.IRQInject)
	vm.ctrInjects.Inc()
	vm.trVCPU.Event1("irq", "inject", "gsi", int64(gsi))
	if vm.irqHandler != nil {
		vm.irqHandler(gsi)
	}
}

// MMIORead performs a guest-initiated MMIO load, paying the full exit
// dispatch path; MMIOWrite is the store counterpart.
func (vm *VM) MMIORead(gpa mem.GPA, size int) uint64 {
	return vm.dispatchMMIO(gpa, size, false, 0)
}

// MMIOWrite performs a guest-initiated MMIO store.
func (vm *VM) MMIOWrite(gpa mem.GPA, size int, value uint64) {
	vm.dispatchMMIO(gpa, size, true, value)
}

// dispatchMMIO is the heart of the exit economics in §6.3:
//
//   - every access pays a VM exit;
//   - with the wrap_syscall trap attached, every exit additionally
//     pays ptrace stops because the tracer must inspect it — even
//     accesses belonging to the hypervisor's own devices (this is why
//     qemu-blk degrades under the ptrace trap);
//   - ioregionfd-routed regions pay one socket message and a context
//     switch into the external VMSH process, and — crucially —
//     unrelated exits pay nothing extra because the kernel filters;
//   - hypervisor-emulated regions pay the usual return to userspace.
func (vm *VM) dispatchMMIO(gpa mem.GPA, size int, write bool, value uint64) uint64 {
	sp := vm.trVCPU.Span("kvm", "mmio_exit")
	ret := vm.exit(gpa, size, write, value)
	sp.End1("gpa", int64(gpa))
	// Tap-only "kvm:mmio" crossing (never fault-checked): one record
	// per exit so replay logs carry the device register traffic.
	if f := vm.host.Faults; f.Observing() {
		w := uint64(0)
		if write {
			w = 1
		}
		f.Observe(faults.OpKVMMMIO,
			faults.NewDigest().U64(uint64(gpa)).U64(uint64(size)).U64(w).U64(value),
			faults.NewDigest().U64(ret), nil)
	}
	return ret
}

// exit charges one MMIO exit and routes it to the handler that claims
// gpa.
func (vm *VM) exit(gpa mem.GPA, size int, write bool, value uint64) uint64 {
	c := vm.host.Costs
	vm.host.Clock.Advance(c.VMExit)
	vm.ExitsTotal++
	vm.ctrExits.Inc()

	if vm.owner.SyscallTaxed() {
		// KVM_RUN returned to a ptraced hypervisor: entry+exit stop.
		vm.host.Clock.Advance(2 * c.PtraceStop)
		if w := vm.wrap; w != nil && gpa >= w.start && gpa < w.start+mem.GPA(w.size) {
			vm.ExitsToExternal++
			// The tracer parses the mmap'd kvm_run area, handles the
			// access in the VMSH process and re-enters KVM_RUN.
			vm.host.Clock.Advance(c.ContextSwitch)
			ret := w.h.MMIO(gpa, size, write, value)
			vm.host.Clock.Advance(c.Syscall) // re-enter KVM_RUN
			return ret
		}
	}

	// Newest registration wins, and regions whose serving socket was
	// closed (handler gone) are dead — the kernel drops an ioregionfd
	// when its fd closes.
	for i := len(vm.ioregions) - 1; i >= 0; i-- {
		r := vm.ioregions[i]
		if gpa >= r.start && gpa < r.start+mem.GPA(r.size) && r.sock.Peer.Handler() != nil {
			vm.ExitsToExternal++
			// In-kernel filtering: only this access pays, nothing else.
			vm.host.Clock.Advance(c.IoregionfdMsg + c.ContextSwitch)
			if h, _ := r.sock.Peer.Handler().(MMIOHandler); h != nil {
				return h.MMIO(gpa, size, write, value)
			}
			return ^uint64(0)
		}
	}

	for _, r := range vm.regions {
		if r.contains(gpa) {
			// Exit to the hypervisor's own userspace loop and back.
			vm.host.Clock.Advance(c.Syscall)
			return r.h.MMIO(gpa, size, write, value)
		}
	}
	// Unclaimed MMIO reads float high, writes are dropped.
	return ^uint64(0)
}

// VCPU is one virtual CPU.
type VCPU struct {
	vm    *VM
	Index int

	Regs  hostsim.Regs
	Sregs Sregs

	pendingIRQ []uint32
}

// VM returns the owning VM.
func (v *VCPU) VM() *VM { return v.vm }

// GetRegs returns a copy of the register file.
func (v *VCPU) GetRegs() hostsim.Regs { return v.Regs }

// SetRegs replaces the register file.
func (v *VCPU) SetRegs(r hostsim.Regs) { v.Regs = r }

// GetSregs returns the special registers.
func (v *VCPU) GetSregs() Sregs { return v.Sregs }

// SetSregs replaces the special registers.
func (v *VCPU) SetSregs(s Sregs) { v.Sregs = s }
