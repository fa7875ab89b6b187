package eval

import (
	"fmt"

	"vmsh/internal/core"
	"vmsh/internal/fsimage"
	"vmsh/internal/hostsim"
	"vmsh/internal/hypervisor"
	"vmsh/internal/ledger"
	"vmsh/internal/simplefs"
	"vmsh/internal/storage"
	"vmsh/internal/workloads"
)

// FioSetup identifies one bar group of Figure 6.
type FioSetup struct {
	Name    string
	Results []workloads.FioResult
}

const (
	fioDiskSize   = 192 << 20
	fioTotalBytes = 32 << 20
)

// fioVM launches the standard fio guest with a raw data disk.
func fioVM(h *hostsim.Host) (*hypervisor.Instance, error) {
	return hypervisor.Launch(h, hypervisor.Config{
		Kind:   hypervisor.QEMU,
		RootFS: fsimage.GuestRoot("fio"),
		ExtraDisks: []hypervisor.DiskSpec{
			{GuestName: "vdb", Size: fioDiskSize},
		},
	})
}

// attachScratch attaches VMSH with a scratch image using the given
// trap mode. The legacy device path is pinned: Figure 6 rows keep the
// paper's measured shape; the fast path gets its own sweep in
// RunFioFastPath.
func attachScratch(h *hostsim.Host, inst *hypervisor.Instance, trap core.TrapMode) (*core.Session, error) {
	return attachScratchOpts(h, inst, core.Options{Trap: trap, LegacyVirtio: true})
}

// attachScratchOpts is attachScratch with caller-controlled options
// (the image and Minimal are always set here).
func attachScratchOpts(h *hostsim.Host, inst *hypervisor.Instance, opts core.Options) (*core.Session, error) {
	img := h.CreateFile(fmt.Sprintf("fio-vmsh-%s-legacy%v.img", opts.Trap, opts.LegacyVirtio), fioDiskSize, false)
	if err := fsimage.Build(hostsim.NewHostFileDevice(img), fsimage.Manifest{}); err != nil {
		return nil, err
	}
	opts.Image = img
	opts.Minimal = true
	v := core.New(h)
	return v.Attach(inst.Proc.PID, opts)
}

// runDeviceSpecs runs the Figure 6 jobs against a raw block target.
func runDeviceSpecs(h *hostsim.Host, dev storage.BlockBackend) ([]workloads.FioResult, error) {
	var out []workloads.FioResult
	for _, spec := range workloads.StandardFigure6Specs(fioTotalBytes) {
		r, err := workloads.FioOnDevice(h, dev, spec)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// RunFioDirect regenerates the Direct/Block-IO panels of Figure 6a/6b:
// native, qemu-blk alone, qemu-blk and vmsh-blk under each trap.
func RunFioDirect() ([]FioSetup, error) {
	var setups []FioSetup

	// native: raw device on the host.
	{
		h := hostsim.NewHost()
		f := h.CreateFile("native.img", fioDiskSize, true)
		res, err := runDeviceSpecs(h, hostsim.NewHostFileDevice(f))
		if err != nil {
			return nil, err
		}
		setups = append(setups, FioSetup{Name: "native", Results: res})
	}

	// qemu-blk with no VMSH attached.
	{
		h := hostsim.NewHost()
		inst, err := fioVM(h)
		if err != nil {
			return nil, err
		}
		dev, _ := inst.GuestDisk("vdb")
		res, err := runDeviceSpecs(h, dev)
		if err != nil {
			return nil, err
		}
		setups = append(setups, FioSetup{Name: "qemu-blk", Results: res})
	}

	// qemu-blk and vmsh-blk while attached, per trap mode.
	for _, trap := range []core.TrapMode{core.TrapWrapSyscall, core.TrapIoregionfd} {
		h := hostsim.NewHost()
		inst, err := fioVM(h)
		if err != nil {
			return nil, err
		}
		sess, err := attachScratch(h, inst, trap)
		if err != nil {
			return nil, err
		}
		_ = sess
		qemuDev, _ := inst.GuestDisk("vdb")
		qres, err := runDeviceSpecs(h, qemuDev)
		if err != nil {
			return nil, err
		}
		setups = append(setups, FioSetup{Name: fmt.Sprintf("%s qemu-blk", trap), Results: qres})

		vmshDev, ok := inst.GuestDisk("vmshblk0")
		if !ok {
			return nil, fmt.Errorf("vmshblk0 missing")
		}
		vres, err := runDeviceSpecs(h, vmshDev)
		if err != nil {
			return nil, err
		}
		setups = append(setups, FioSetup{Name: fmt.Sprintf("%s vmsh-blk", trap), Results: vres})
	}
	return setups, nil
}

// RunFioFileIO regenerates the File-IO panels: qemu-blk (fs), qemu-9p,
// vmsh-blk under both traps.
func RunFioFileIO() ([]FioSetup, error) {
	h := hostsim.NewHost()
	inst, err := hypervisor.Launch(h, hypervisor.Config{
		Kind:   hypervisor.QEMU,
		RootFS: fsimage.GuestRoot("fio"),
		ExtraDisks: []hypervisor.DiskSpec{
			{GuestName: "vdb", Size: fioDiskSize, Mkfs: true, MountAt: "/mnt/qemu"},
		},
		NinePShare: true,
	})
	if err != nil {
		return nil, err
	}
	kern := inst.Kernel
	sess, err := attachScratch(h, inst, core.TrapIoregionfd)
	if err != nil {
		return nil, err
	}
	_ = sess
	vmshDev, _ := kern.BlockDevByName("vmshblk0")
	fs, err := simplefs.Mount(vmshDev)
	if err != nil {
		return nil, err
	}
	fs.NowFn = kern.NowSec
	kern.InitProc.NS.AddMount("/mnt/vmsh", fs)

	targets := []struct {
		name string
		dir  string
	}{
		{"qemu-blk file", "/mnt/qemu"},
		{"qemu-9p file", "/mnt/9p"},
		{"ioregionfd vmsh-blk file", "/mnt/vmsh"},
	}
	var setups []FioSetup
	for _, tgt := range targets {
		var results []workloads.FioResult
		for i, spec := range workloads.StandardFigure6Specs(fioTotalBytes) {
			if err := kern.DropCaches(); err != nil {
				return nil, err
			}
			p := inst.NewGuestProc("fio")
			r, err := workloads.FioOnFile(p, fmt.Sprintf("%s/job%d.dat", tgt.dir, i), spec)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", tgt.name, spec.Name, err)
			}
			results = append(results, r)
		}
		setups = append(setups, FioSetup{Name: tgt.name, Results: results})
	}
	return setups, nil
}

// fioRate is a Figure 6 job's rate as the figure plots it:
// throughput in MB/s for the 256 KiB jobs (6a), kIOPS for the 4 KiB
// ones (6b).
func fioRate(r workloads.FioResult) (float64, string) {
	if r.Spec.BS == 4096 {
		return r.IOPS / 1000, "kIOPS"
	}
	return r.MBps, "MB/s"
}

// FioRows is E5's ledger: every Figure 6 setup's rate per job (direct
// and file IO), then the fast-path sweep's rows (FastPathRows) and its
// crossing and interrupt reductions, legacy over fast. Rates and
// reductions are invariants: a model change moves them either way.
func FioRows(direct, file []FioSetup, modes []FastPathMode) []ledger.Row {
	l := ledger.Builder{Exp: "e5"}
	for _, setups := range [][]FioSetup{direct, file} {
		for _, s := range setups {
			for _, r := range s.Results {
				v, unit := fioRate(r)
				l.Invariant(s.Name+"."+r.Spec.Name, v, unit)
			}
		}
	}
	l.Rows = append(l.Rows, FastPathRows(modes)...)
	fast, legacy := modes[0], modes[1]
	l.Invariant("procvm_call_reduction", float64(legacy.ProcVMCalls)/float64(fast.ProcVMCalls), "x")
	l.Invariant("interrupt_reduction", float64(legacy.Interrupts)/float64(fast.Interrupts), "x")
	return l.Rows
}
