// Package hypervisor implements the KVM userland personalities VMSH is
// evaluated against (Table 1): QEMU, kvmtool, Firecracker, crosvm and
// Cloud Hypervisor. Each personality differs in the ways that mattered
// for the paper — fd layout, guest RAM placement, seccomp policy, and
// interrupt transport — while sharing the common launch machinery.
package hypervisor

import (
	"fmt"

	"vmsh/internal/arch"
	"vmsh/internal/fsimage"
	"vmsh/internal/guestos"
	"vmsh/internal/hostsim"
	"vmsh/internal/kvm"
	"vmsh/internal/mem"
	"vmsh/internal/simplefs"
	"vmsh/internal/virtio"
)

// Kind selects the hypervisor personality.
type Kind int

// The personalities of Table 1.
const (
	QEMU Kind = iota
	Kvmtool
	Firecracker
	Crosvm
	CloudHypervisor
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case QEMU:
		return "qemu"
	case Kvmtool:
		return "kvmtool"
	case Firecracker:
		return "firecracker"
	case Crosvm:
		return "crosvm"
	case CloudHypervisor:
		return "cloud-hypervisor"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ramBase returns where the personality maps guest RAM in its own
// address space — the layout variance the eBPF memslot probe exists
// to cope with.
func (k Kind) ramBase() mem.HVA {
	switch k {
	case QEMU:
		return 0x7f0000000000
	case Kvmtool:
		return 0x7f2000000000
	case Firecracker:
		return 0x7f4000000000
	case Crosvm:
		return 0x7f6000000000
	default:
		return 0x7f8000000000
	}
}

// DiskSpec adds a data disk to the VM.
type DiskSpec struct {
	GuestName string // e.g. "vdb"
	Size      int64
	Mkfs      bool   // format with simplefs
	MountAt   string // optional guest mount point (requires Mkfs)
}

// Config parameterises Launch.
type Config struct {
	Kind Kind
	Name string
	// Arch selects the machine architecture (x86_64 default; arm64
	// exercises the paper's planned port).
	Arch          arch.Arch
	KernelVersion string
	RAMSize       uint64
	VCPUs         int
	Seed          int64
	// RootFS, when set, is built into a disk image served by the
	// hypervisor's own virtio-blk device and mounted as the guest
	// root.
	RootFS        fsimage.Manifest
	RootImageSize int64
	ExtraDisks    []DiskSpec
	// NinePShare mounts a host-directory share at /mnt/9p (QEMU only).
	NinePShare bool
	// DisableSeccomp turns Firecracker's per-thread filters off — the
	// workaround §6.2 describes for VMSH's syscall injection.
	DisableSeccomp bool
	// SeccompProfile selects the Firecracker filter set: "" (the
	// restrictive default) or "vmsh-compatible" — the profile §6.2
	// names as future work, which additionally allows the syscalls
	// VMSH injects so attach works with filters still armed.
	SeccompProfile string
}

// Instance is a running VM.
type Instance struct {
	Kind   Kind
	Host   *hostsim.Host
	Proc   *hostsim.Process
	VM     *kvm.VM
	Kernel *guestos.Kernel

	// Cfg is the launch configuration after defaults were applied.
	// Snapshot/migration relaunch an identical instance from it — with
	// the same Seed the boot is byte-deterministic, so only pages that
	// diverged afterwards need transferring.
	Cfg Config

	VMFDNum int
	VCPUFDs []int
	BlkDevs []*virtio.BlkDevice // hypervisor-owned devices, index 0 = root
	NineP   *NinePFS

	nextMMIO mem.GPA
	nextGSI  uint32
}

// Launch builds the process, the KVM VM, boots the guest kernel and
// wires the personality's own devices.
func Launch(h *hostsim.Host, cfg Config) (*Instance, error) {
	if cfg.Name == "" {
		cfg.Name = cfg.Kind.String()
	}
	if cfg.RAMSize == 0 {
		cfg.RAMSize = 256 << 20
	}
	if cfg.VCPUs == 0 {
		cfg.VCPUs = 1
	}
	if cfg.KernelVersion == "" {
		cfg.KernelVersion = "5.10"
	}

	proc := h.NewProcess(cfg.Name, hostsim.Creds{UID: 1000})
	proc.Arch = cfg.Arch
	for i := 1; i < cfg.VCPUs; i++ {
		proc.NewThread()
	}

	ram := mem.NewPhys(0, cfg.RAMSize)
	m, err := proc.AS.MapPhys(cfg.Kind.ramBase(), ram, "guest-ram")
	if err != nil {
		return nil, err
	}
	vm, vmfd := kvm.CreateVM(proc, cfg.Name)
	vm.AddMemSlotDirect(0, 0, m.HVA, ram)
	if cfg.Kind == CloudHypervisor {
		vm.IRQChipMSIXOnly = true
	}

	inst := &Instance{
		Kind: cfg.Kind, Host: h, Proc: proc, VM: vm,
		Cfg:      cfg,
		VMFDNum:  vmfd,
		nextMMIO: 0xd0000000,
		nextGSI:  40,
	}
	for i := 0; i < cfg.VCPUs; i++ {
		_, fd := vm.NewVCPU()
		inst.VCPUFDs = append(inst.VCPUFDs, fd)
	}

	kern, err := guestos.Boot(guestos.Config{
		Version: cfg.KernelVersion,
		Seed:    cfg.Seed,
		Host:    h,
		VM:      vm,
		RAMSize: cfg.RAMSize,
	})
	if err != nil {
		return nil, fmt.Errorf("hypervisor %s: guest boot: %w", cfg.Name, err)
	}
	inst.Kernel = kern

	// Blocked KVM_RUN continues whenever a tracer resumes the process.
	proc.OnResume = func() {
		for _, fd := range inst.VCPUFDs {
			_, _ = proc.Syscall(hostsim.SysIoctl, uint64(fd), kvm.KVMRun, 0)
		}
	}

	// Root disk.
	if cfg.RootFS != nil {
		size := cfg.RootImageSize
		if size == 0 {
			size = cfg.RootFS.Size() + 64<<20
		}
		if err := inst.addDisk("vda", size); err != nil {
			return nil, err
		}
		hf, err := h.OpenFile(imageFileName(cfg.Name, "vda"))
		if err != nil {
			return nil, err
		}
		if err := fsimage.Build(hostsim.NewHostFileDevice(hf), cfg.RootFS); err != nil {
			return nil, fmt.Errorf("building root image: %w", err)
		}
		// The guest mounts its root through the virtio driver — every
		// filesystem access from here on takes the full device path.
		gdrv, _ := inst.GuestDisk("vda")
		fs, err := simplefs.Mount(gdrv)
		if err != nil {
			return nil, fmt.Errorf("mounting guest root: %w", err)
		}
		fs.NowFn = kern.NowSec
		if err := kern.MountRoot(fs); err != nil {
			return nil, err
		}
	}

	for _, d := range cfg.ExtraDisks {
		if err := inst.addDisk(d.GuestName, d.Size); err != nil {
			return nil, err
		}
		if d.Mkfs {
			hf, err := h.OpenFile(imageFileName(cfg.Name, d.GuestName))
			if err != nil {
				return nil, err
			}
			if err := fsimage.Build(hostsim.NewHostFileDevice(hf), fsimage.Manifest{}); err != nil {
				return nil, err
			}
			if d.MountAt != "" {
				gdrv, _ := inst.GuestDisk(d.GuestName)
				fs, err := simplefs.Mount(gdrv)
				if err != nil {
					return nil, err
				}
				fs.NowFn = kern.NowSec
				kern.InitProc.NS.AddMount(d.MountAt, fs)
			}
		}
	}

	if cfg.NinePShare {
		if cfg.Kind != QEMU {
			return nil, fmt.Errorf("9p share only modelled for QEMU")
		}
		inst.NineP = NewNinePFS(h)
		kern.InitProc.NS.AddMount("/mnt/9p", inst.NineP)
	}

	if cfg.Kind == Firecracker && !cfg.DisableSeccomp {
		// Firecracker arms its per-thread filters once initialisation
		// is done; only the syscalls its own threads need afterwards
		// are allowed — injected mmap/socketpair are not on the list,
		// which is what breaks VMSH's syscall injection (§6.2).
		allowed := map[uint64]bool{
			hostsim.SysRead: true, hostsim.SysWrite: true,
			hostsim.SysIoctl: true, hostsim.SysClose: true,
			hostsim.SysPread64: true, hostsim.SysPwrite64: true,
			hostsim.SysFsync: true, hostsim.SysEventfd2: true,
		}
		if cfg.SeccompProfile == "vmsh-compatible" {
			// The profile §6.2 proposes as future work: the default
			// set plus exactly what the sideloader injects.
			for _, nr := range []uint64{
				hostsim.SysMmap, hostsim.SysMunmap, hostsim.SysSocketpair,
				hostsim.SysSocket, hostsim.SysConnect, hostsim.SysSendmsg,
				hostsim.SysGetpid,
			} {
				allowed[nr] = true
			}
		}
		proc.Seccomp = &hostsim.SeccompPolicy{Allowed: allowed}
	}

	return inst, nil
}

// ImageFileName is the host filename a VM's disk image lives under;
// lifecycle operations use it to locate and copy images across hosts.
func ImageFileName(vmName, disk string) string { return vmName + "-" + disk + ".img" }

func imageFileName(vmName, disk string) string { return ImageFileName(vmName, disk) }

// addDisk creates a host image file, wires a hypervisor-owned
// virtio-blk device at the next MMIO slot and probes the guest driver.
func (inst *Instance) addDisk(guestName string, size int64) error {
	h := inst.Host
	file := h.CreateFile(imageFileName(inst.Proc.Name, guestName), size, true)
	fdnum := inst.Proc.InstallFD(&hostsim.HostFileFD{File: file})

	backend, err := newFileBackend(inst.Proc, uint64(fdnum), file)
	if err != nil {
		return err
	}
	base := inst.nextMMIO
	gsi := inst.nextGSI
	inst.nextMMIO += 0x1000
	inst.nextGSI++

	dev := virtio.NewBlkDevice(base, inst.VM.GuestMem(), backend, h.Clock, h.Costs)
	inst.VM.RegisterMMIO(base, virtio.MMIOSize, dev, "qemu-blk "+guestName)
	// The hypervisor signals completions through its own eventfd ->
	// irqfd route; the write(2) is what the wrap_syscall trap taxes.
	sigHVA, err := inst.Proc.Syscall(hostsim.SysMmap, 0, 4096, 3,
		hostsim.MapAnonymous|hostsim.MapPrivate, ^uint64(0), 0)
	if err != nil {
		return err
	}
	evfdNum, err := inst.Proc.Syscall(hostsim.SysEventfd2, 0, 0)
	if err != nil {
		return err
	}
	evfd, _ := inst.Proc.FD(int(evfdNum))
	thisGSI := gsi
	evfd.(*hostsim.EventFD).Subscribe(func() { inst.VM.InjectIRQ(thisGSI) })
	_ = inst.Proc.WriteMem(mem.HVA(sigHVA), hostsim.EncodeU64s(1))
	dev.SignalIRQ = func() {
		_, _ = inst.Proc.Syscall(hostsim.SysWrite, evfdNum, sigHVA, 8)
	}
	inst.BlkDevs = append(inst.BlkDevs, dev)

	// Guest side: probe the driver and register the named device.
	env := &virtio.Env{
		Bus: inst.VM, Mem: inst.VM.GuestMem(), Alloc: inst.Kernel,
		Clock: h.Clock, Costs: h.Costs,
	}
	drv, err := virtio.ProbeBlk(env, base)
	if err != nil {
		return fmt.Errorf("guest probe of %s: %w", guestName, err)
	}
	inst.Kernel.RegisterIRQ(gsi, drv.HandleIRQ)
	inst.Kernel.RegisterBlockDev(guestName, drv)
	return nil
}

// GuestDisk returns the guest-side driver for a named disk.
func (inst *Instance) GuestDisk(name string) (guestos.BlockDev, bool) {
	return inst.Kernel.BlockDevByName(name)
}

// NewGuestProc spawns a fresh guest process for driving workloads.
func (inst *Instance) NewGuestProc(comm string) *guestos.Proc {
	return inst.Kernel.Spawn(inst.Kernel.InitProc, comm)
}
