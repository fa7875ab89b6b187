// Package guestos simulates a Linux guest kernel at the level VMSH
// introspects and extends: a byte-exact kernel image with KASLR and
// ksymtab sections in guest physical memory, live x86-64 page tables,
// a VFS with mount namespaces and a page cache, virtio drivers, a
// process table with container contexts, and an interpreter for the
// side-loaded VMSH library blob.
package guestos

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"vmsh/internal/arch"
	"vmsh/internal/hostsim"
	"vmsh/internal/ksym"
	"vmsh/internal/kvm"
	"vmsh/internal/mem"
	"vmsh/internal/pagetable"
	"vmsh/internal/storage"
	"vmsh/internal/vclock"
)

// Kernel virtual layout constants (matching x86-64 Linux).
const (
	// KASLRBase is the lowest virtual address the kernel image can
	// land at; KASLRSlots slots of KASLRAlign each follow. VMSH scans
	// exactly this window (§4.2).
	KASLRBase  = mem.GVA(0xffffffff80000000)
	KASLRAlign = 0x200000
	KASLRSlots = 256
	// KASLREnd is the first address past the randomisation window.
	KASLREnd = KASLRBase + mem.GVA(KASLRSlots*KASLRAlign)

	// ARM64KASLRBase is the arm64 kernel text window (the image
	// loads above the modules region in the TTBR1 half).
	ARM64KASLRBase = mem.GVA(0xffff800010000000)
	// ARM64KASLREnd bounds the arm64 randomisation window.
	ARM64KASLREnd = ARM64KASLRBase + mem.GVA(KASLRSlots*KASLRAlign)

	// kernelImageSize is the byte size of the simulated image.
	kernelImageSize = 4 << 20
	// kernelPhysBase is where the image sits in guest physical memory.
	kernelPhysBase = mem.GPA(16 << 20)

	// Image-internal offsets.
	bannerOff  = 0x40
	symsOff    = 0x10000  // first symbol address
	symStride  = 0x100    // spacing between symbol addresses
	ksymTabOff = 0x300000 // .ksymtab
	ksymStrOff = 0x340000 // .ksymtab_strings
)

// KASLRWindow returns the architecture's kernel randomisation range —
// the window the sideloader walks.
func KASLRWindow(a arch.Arch) (base, end mem.GVA) {
	if a == arch.ARM64 {
		return ARM64KASLRBase, ARM64KASLREnd
	}
	return KASLRBase, KASLREnd
}

// PageFormat returns the architecture's page-table descriptor format.
func PageFormat(a arch.Arch) pagetable.Format {
	if a == arch.ARM64 {
		return pagetable.ARM64Format{}
	}
	return pagetable.X86Format{}
}

// Config parameterises a guest boot.
type Config struct {
	Version string // e.g. "5.10"
	Seed    int64  // KASLR randomness
	Host    *hostsim.Host
	VM      *kvm.VM
	RAMSize uint64
}

// Kernel is one booted guest kernel instance.
type Kernel struct {
	Host    *hostsim.Host
	VM      *kvm.VM
	Version Version
	Arch    arch.Arch

	mem       mem.PhysIO
	physAlloc *mem.BumpAlloc
	mapper    *pagetable.Mapper
	CR3       mem.GPA
	ramSize   uint64

	// KASLR placement.
	KernelBase mem.GVA
	idleRIP    mem.GVA

	// Exported symbol map and the Go bindings behind the addresses.
	symbols map[string]mem.GVA
	funcs   map[mem.GVA]kfunc

	// Kernel log ring (printk output — VMSH's execution is visible to
	// the guest by design, §4.1).
	Log []string

	// VFS state.
	rootNS  *MountNamespace
	nsCount int
	caches  map[cacheKey]*fileCache

	// Processes.
	procs    map[int]*Proc
	nextPID  int
	InitProc *Proc

	// kernel-internal file handles (filp_open).
	kfiles    map[uint64]*File
	nextKFile uint64

	// IRQ routing: gsi -> handler.
	irqHandlers map[uint32]func()

	// Named block devices visible to the guest ("vda", "vmshblk0"...).
	blockDevs map[string]BlockDev

	// TTYs by name.
	ttys map[string]*TTY

	// Network interfaces by name ("vmsh0"...).
	ifaces map[string]*Iface

	// kthreads created by the side-loaded library.
	kthreads   map[uint64]*kthread
	nextThread uint64

	// vmsh devices registered by the library (for unregister).
	vmshDevs []*vmshDevice

	// Library execution state.
	libRegion struct {
		base mem.GVA
		size uint64
	}

	// OpenTrace, when set, observes every successful file open — the
	// syscall-tracer hook the de-bloating pipeline (§6.4) uses to
	// record which paths an application actually touches.
	OpenTrace func(path string)

	// Panicked is latched on a guest panic (bad relocation, bad RIP).
	Panicked error

	rng *rand.Rand
}

// BlockDev is the guest-facing block device contract re-exported to
// avoid a wide import surface in callers (storage.BlockBackend).
type BlockDev = storage.BlockBackend

type kthread struct {
	id      uint64
	name    string
	entry   uint64 // program word offset in the blob
	blobGVA mem.GVA
	started bool
	stopped bool
}

type vmshDevice struct {
	handle uint64
	kind   string // "blk", "console" or "net"
	base   mem.GPA
	gsi    uint32
	blk    BlockDev
	tty    *TTY
	iface  *Iface
}

// Boot constructs the guest: writes the kernel image (banner, symbol
// code stubs, ksymtab sections) into guest physical memory, builds the
// page tables, points the vCPU at them and initialises the VFS and
// process table.
func Boot(cfg Config) (*Kernel, error) {
	ver, err := ParseVersion(cfg.Version)
	if err != nil {
		return nil, err
	}
	k := &Kernel{
		Host:        cfg.Host,
		VM:          cfg.VM,
		Version:     ver,
		Arch:        cfg.VM.Arch(),
		mem:         cfg.VM.GuestMem(),
		ramSize:     cfg.RAMSize,
		symbols:     make(map[string]mem.GVA),
		funcs:       make(map[mem.GVA]kfunc),
		caches:      make(map[cacheKey]*fileCache),
		procs:       make(map[int]*Proc),
		nextPID:     1,
		kfiles:      make(map[uint64]*File),
		nextKFile:   3,
		irqHandlers: make(map[uint32]func()),
		blockDevs:   make(map[string]BlockDev),
		ttys:        make(map[string]*TTY),
		ifaces:      make(map[string]*Iface),
		kthreads:    make(map[uint64]*kthread),
		nextThread:  1,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
	}

	// KASLR: pick a slot in the architecture's window; the image
	// lands at base + slot*align.
	kaslrBase, _ := KASLRWindow(k.Arch)
	slot := k.rng.Intn(KASLRSlots - kernelImageSize/KASLRAlign)
	k.KernelBase = kaslrBase + mem.GVA(slot*KASLRAlign)
	k.idleRIP = k.KernelBase + 0x1000

	banner := fmt.Sprintf("Linux version %s.0 (vmsh-sim@host) #1 SMP %s", ver, k.Arch)

	// Kernel API symbols get addresses inside the image.
	names := kernelAPINames()
	syms := make([]ksym.Symbol, 0, len(names))
	for i, name := range names {
		gva := k.KernelBase + mem.GVA(symsOff+i*symStride)
		k.symbols[name] = gva
		syms = append(syms, ksym.Symbol{Name: name, Value: gva})
	}
	k.bindKernelFuncs()

	sec, err := ksym.Build(ver.KsymLayout(), syms,
		k.KernelBase+ksymTabOff, k.KernelBase+ksymStrOff)
	if err != nil {
		return nil, err
	}
	// Deterministic non-zero filler so the scanner faces realistic
	// noise rather than zero pages; over it the NUL-terminated banner,
	// a cleared margin around each ksymtab section so the consistency
	// scan sees crisp boundaries, and the sections themselves.
	if err := writeImage(k.mem, cfg.Seed^0x5eed, []imagePart{
		{bannerOff, append([]byte(banner), 0)},
		{ksymTabOff - 64, make([]byte, len(sec.Tab)+128)},
		{ksymStrOff - 64, make([]byte, len(sec.Strings)+128)},
		{ksymTabOff, sec.Tab},
		{ksymStrOff, sec.Strings},
	}); err != nil {
		return nil, fmt.Errorf("guestos: writing kernel image: %w", err)
	}

	// Runtime physical allocator starts after the image.
	k.physAlloc = mem.NewBumpAlloc(kernelPhysBase+kernelImageSize, mem.GPA(cfg.RAMSize))
	k.mapper, err = pagetable.NewMapper(k.mem, k.physAlloc)
	if err != nil {
		return nil, err
	}
	k.mapper.Fmt = PageFormat(k.Arch)
	if err := k.mapper.MapRange(k.KernelBase, kernelPhysBase, kernelImageSize,
		pagetable.FlagWrite|pagetable.FlagGlobal); err != nil {
		return nil, err
	}
	k.CR3 = k.mapper.Root

	// Point vCPU 0 at the fresh world (per-arch register files).
	vcpus := cfg.VM.VCPUs()
	if len(vcpus) == 0 {
		return nil, fmt.Errorf("guestos: VM has no vCPUs")
	}
	for _, v := range vcpus {
		if k.Arch == arch.ARM64 {
			v.SetSregs(kvm.Sregs{SCTLR: 0x30d0199d, TTBR0: uint64(k.CR3), TCR: 0x95d18351c})
			var r hostsim.Regs
			r.PC = uint64(k.idleRIP)
			r.SP = uint64(k.KernelBase + 0x8000)
			r.PSTATE = 0x3c5 // EL1h, interrupts masked
			v.SetRegs(r)
		} else {
			v.SetSregs(kvm.Sregs{CR0: 0x80050033, CR3: uint64(k.CR3), CR4: 0x370678, EFER: 0xd01})
			v.SetRegs(hostsim.Regs{RIP: uint64(k.idleRIP), RSP: uint64(k.KernelBase + 0x8000)})
		}
	}

	// VFS: an in-memory root until/unless a root image is mounted,
	// plus /dev, /tmp and a live /proc.
	k.rootNS = k.newNamespace()
	k.rootNS.mounts = []*Mount{{Path: "/", FS: NewRootFS()}}
	for _, dir := range []string{"/dev", "/tmp", "/etc", "/proc", "/var"} {
		if err := k.mkdirAll(k.rootNS, dir); err != nil {
			return nil, err
		}
	}
	k.rootNS.AddMount("/proc", newProcFS(k))

	// PID 1.
	k.InitProc = k.newProc(nil, "init")

	cfg.VM.SetExecutor(k)
	cfg.VM.SetIRQHandler(k.HandleIRQ)
	return k, nil
}

// imageChunk is how much of the kernel image writeImage builds at a
// time: a whole number of pages, and of the seven filler bytes each
// Int63 gives, so that filling chunk after chunk from one source gives
// the bytes one fill of the whole image would.
const imageChunk = 7 * mem.PageSize

// imagePart is bytes laid over the kernel image's filler at image
// offset off.
type imagePart struct {
	off  int
	data []byte
}

// writeImage writes the kernel image into guest memory at
// kernelPhysBase one chunk at a time: each chunk is filled from the
// filler source seeded with seed, the parts that reach into it are
// laid over it in order, and it is written out.
func writeImage(w mem.PhysWriter, seed int64, parts []imagePart) error {
	src := rand.NewSource(seed)
	buf := make([]byte, imageChunk)
	for off := 0; off < kernelImageSize; off += imageChunk {
		chunk := buf[:min(imageChunk, kernelImageSize-off)]
		fillRandom(chunk, src)
		for _, p := range parts {
			if lo, hi := max(p.off, off), min(p.off+len(p.data), off+len(chunk)); lo < hi {
				copy(chunk[lo-off:hi-off], p.data[lo-p.off:])
			}
		}
		if err := w.WritePhys(kernelPhysBase+mem.GPA(off), chunk); err != nil {
			return err
		}
	}
	return nil
}

// fillRandom fills p with the bytes a fresh rand.New(src).Read(p)
// writes, seven little-endian bytes per Int63, without Read's
// byte-at-a-time loop.
func fillRandom(p []byte, src rand.Source) {
	i := 0
	// Each store's eighth byte is overwritten by the next value.
	for ; i+8 <= len(p); i += 7 {
		binary.LittleEndian.PutUint64(p[i:], uint64(src.Int63()))
	}
	if i < len(p) {
		for v := src.Int63(); i < len(p); i++ {
			p[i] = byte(v)
			v >>= 8
		}
	}
}

// kernelAPINames returns the exported surface, the 12 functions the
// VMSH library depends on plus filler exports that make the scan
// realistic.
func kernelAPINames() []string {
	api := []string{
		// Driver registration (2).
		"platform_device_register", "platform_device_unregister",
		// File IO (4).
		"filp_open", "filp_close", "kernel_read", "kernel_write",
		// Processes and threads (5).
		"kthread_create_on_node", "wake_up_process", "kthread_stop",
		"do_exit", "call_usermodehelper",
		// Logging (1) — twelve in total.
		"printk",
	}
	filler := []string{
		"vmalloc", "vfree", "kmalloc", "kfree", "memcpy", "memset",
		"strlen", "strcmp", "mutex_lock", "mutex_unlock", "schedule",
		"msleep", "jiffies_to_msecs", "get_jiffies_64", "capable",
		"register_chrdev", "unregister_chrdev", "vfs_fsync",
	}
	return append(api, filler...)
}

// Clock returns the host virtual clock (guest time == host time here).
func (k *Kernel) Clock() *vclock.Clock { return k.Host.Clock }

// Costs exposes the cost model.
func (k *Kernel) Costs() *vclock.Costs { return k.Host.Costs }

// NowSec is the timestamp source handed to filesystems.
func (k *Kernel) NowSec() uint64 { return uint64(k.Clock().Now() / time.Second) }

// Printk appends to the guest kernel log.
func (k *Kernel) Printk(format string, args ...any) {
	k.Log = append(k.Log, fmt.Sprintf(format, args...))
}

// panicf latches a guest panic; further guest execution stops.
func (k *Kernel) panicf(format string, args ...any) {
	if k.Panicked == nil {
		k.Panicked = fmt.Errorf(format, args...)
		k.Printk("Kernel panic - not syncing: %v", k.Panicked)
	}
}

// SymbolAddr exposes a symbol address (test support).
func (k *Kernel) SymbolAddr(name string) (mem.GVA, bool) {
	gva, ok := k.symbols[name]
	return gva, ok
}

// HandleIRQ dispatches an injected interrupt to the registered
// handler. The guest pays a wakeup only conceptually; handler work
// charges its own costs.
func (k *Kernel) HandleIRQ(gsi uint32) {
	if k.Panicked != nil {
		return
	}
	if h, ok := k.irqHandlers[gsi]; ok {
		h()
	}
}

// RegisterIRQ installs a guest-side handler for a gsi.
func (k *Kernel) RegisterIRQ(gsi uint32, fn func()) { k.irqHandlers[gsi] = fn }

// RegisterBlockDev names a block device in the guest.
func (k *Kernel) RegisterBlockDev(name string, d BlockDev) { k.blockDevs[name] = d }

// BlockDevByName resolves a named device.
func (k *Kernel) BlockDevByName(name string) (BlockDev, bool) {
	d, ok := k.blockDevs[name]
	return d, ok
}

// RunGuest implements kvm.Executor: invoked from KVM_RUN. If VMSH
// hijacked the instruction pointer, the side-loaded library runs;
// otherwise the guest is idle (all real work in this simulation is
// driven through syscall entry points).
func (k *Kernel) RunGuest(v *kvm.VCPU) {
	if k.Panicked != nil {
		return
	}
	regs := v.GetRegs()
	ip := mem.GVA(regs.InstrPtr(k.Arch))
	if ip == k.idleRIP {
		return
	}
	k.runLibrary(v, ip)
}

// GuestMem exposes the guest physical view (used by drivers).
func (k *Kernel) GuestMem() mem.PhysIO { return k.mem }

// AllocPages implements mem.PhysPages for drivers.
func (k *Kernel) AllocPages(n int) (mem.GPA, error) { return k.physAlloc.AllocPages(n) }

// virtReader reads guest-virtual memory through the live page tables.
func (k *Kernel) virtIO() *pagetable.VirtIO {
	return &pagetable.VirtIO{
		Walker: &pagetable.Walker{R: k.mem, Root: k.CR3, Fmt: PageFormat(k.Arch)},
		W:      k.mem,
	}
}
