package eval

import (
	"fmt"

	"vmsh/internal/core"
	"vmsh/internal/fsimage"
	"vmsh/internal/guestos"
	"vmsh/internal/hostsim"
	"vmsh/internal/hypervisor"
	"vmsh/internal/simplefs"
	"vmsh/internal/xfstests"
)

// testFSSize is the scratch filesystem size per environment.
const testFSSize = 160 << 20

// XfstestsResults bundles the three §6.1 environments.
type XfstestsResults struct {
	Native, QemuBlk, VmshBlk xfstests.Result
}

// RunXfstests executes the 619-test "quick" corpus against the native
// device, qemu-blk and vmsh-blk (E1).
func RunXfstests() (*XfstestsResults, error) {
	h := hostsim.NewHost()
	inst, err := hypervisor.Launch(h, hypervisor.Config{
		Kind:   hypervisor.QEMU,
		RootFS: fsimage.GuestRoot("xfstests"),
		ExtraDisks: []hypervisor.DiskSpec{
			{GuestName: "vdb", Size: testFSSize, Mkfs: true, MountAt: "/mnt/qemu"},
		},
	})
	if err != nil {
		return nil, err
	}
	kern := inst.Kernel

	// Native environment: the same VFS + simplefs over the raw
	// NVMe-class device with no virtualisation in the data path.
	nativeFile := h.CreateFile("xfstests-native.img", testFSSize, true)
	nativeDev := hostsim.NewHostFileDevice(nativeFile)
	if err := fsimage.Build(nativeDev, fsimage.Manifest{}); err != nil {
		return nil, err
	}
	if err := mountAt(kern, nativeDev, "/mnt/native"); err != nil {
		return nil, err
	}

	// vmsh-blk environment: attach a scratch image.
	scratch := h.CreateFile("xfstests-vmsh.img", testFSSize, false)
	if err := fsimage.Build(hostsim.NewHostFileDevice(scratch), fsimage.Manifest{}); err != nil {
		return nil, err
	}
	v := core.New(h)
	if _, err := v.Attach(inst.Proc.PID, core.Options{Image: scratch, Minimal: true}); err != nil {
		return nil, err
	}
	vmshDrv, ok := kern.BlockDevByName("vmshblk0")
	if !ok {
		return nil, fmt.Errorf("vmshblk0 not registered")
	}
	if err := mountAt(kern, vmshDrv, "/mnt/vmsh"); err != nil {
		return nil, err
	}

	qemuDrv, _ := kern.BlockDevByName("vdb")

	suite := xfstests.Suite()
	res := &XfstestsResults{}
	envs := []struct {
		name  string
		mount string
		dev   guestos.BlockDev
		out   *xfstests.Result
	}{
		{"native", "/mnt/native", nativeDev, &res.Native},
		{"qemu-blk", "/mnt/qemu", qemuDrv, &res.QemuBlk},
		{"vmsh-blk", "/mnt/vmsh", vmshDrv, &res.VmshBlk},
	}
	for _, e := range envs {
		mount := e.mount
		dev := e.dev
		env := &xfstests.Env{
			Name:         e.name,
			Mount:        mount,
			NewProc:      func() *guestos.Proc { return inst.NewGuestProc("xfstests") },
			QuotaCapable: dev.SupportsFUA(),
			Features:     map[string]bool{},
			Remount: func() error {
				p := inst.NewGuestProc("remount")
				if err := p.Sync(); err != nil {
					return err
				}
				if err := kern.InitProc.NS.RemoveMount(mount); err != nil {
					return err
				}
				return mountAt(kern, dev, mount)
			},
		}
		*e.out = xfstests.Run(env, suite)
	}
	return res, nil
}

func mountAt(kern *guestos.Kernel, dev guestos.BlockDev, path string) error {
	fs, err := simplefs.Mount(dev)
	if err != nil {
		return err
	}
	fs.NowFn = kern.NowSec
	kern.InitProc.NS.AddMount(path, fs)
	return nil
}
