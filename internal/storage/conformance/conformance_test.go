package conformance_test

import (
	"testing"

	"vmsh/internal/fsimage"
	"vmsh/internal/guestos"
	"vmsh/internal/hostsim"
	"vmsh/internal/hypervisor"
	"vmsh/internal/simplefs"
	"vmsh/internal/storage"
	"vmsh/internal/storage/conformance"
)

// memFeatures is the baseline of the in-memory family (memory, cas,
// cow, remote, and the guest's in-memory root): full POSIX semantics,
// accounting, quota, 255-byte names. They persist only within one instance, so remount
// reuses the instance after Sync.
var memFeatures = conformance.Features{
	CaseSensitive: true,
	HardLinks:     true,
	Symlinks:      true,
	SparseFiles:   true,
	Accounting:    true,
	Quota:         true,
	Persist:       true,
	MaxNameLen:    255,
}

// sfsDevice builds a 64 MiB in-memory block device — large enough for
// the model workload, small enough to keep the suite fast.
func sfsDevice() *storage.MemBlock { return storage.NewMemBlock(64 << 20) }

// mountSFS formats dev and mounts simplefs on it, the filesystem the
// overlay serves (§4.4).
func mountSFS(dev *storage.MemBlock) (storage.FS, error) {
	if err := simplefs.Mkfs(dev, simplefs.MkfsOptions{}); err != nil {
		return nil, err
	}
	fs, err := simplefs.Mount(dev)
	if err != nil {
		return nil, err
	}
	return fs, nil
}

// sfsFS tracks the device behind a mounted simplefs so Remount can
// re-open the same bytes.
type sfsFS struct {
	storage.FS
	dev *storage.MemBlock
}

func TestConformance(t *testing.T) {
	// simplefs enforces its on-disk directory entry limit of 248 bytes
	// and journals quota only on FUA-capable devices (MemBlock is).
	sfsFeatures := memFeatures
	sfsFeatures.MaxNameLen = 248

	backends := []conformance.Backend{
		{
			Name:     "memory",
			Features: memFeatures,
			Open: func() (storage.FS, error) {
				return storage.NewMemFS(storage.MemOptions{}), nil
			},
		},
		{
			Name: "memory-casefold",
			Features: func() conformance.Features {
				f := memFeatures
				f.CaseSensitive = false
				return f
			}(),
			Open: func() (storage.FS, error) {
				return storage.NewMemFS(storage.MemOptions{CaseFold: true}), nil
			},
		},
		{
			Name:     "cas",
			Features: memFeatures,
			Open: func() (storage.FS, error) {
				return storage.NewCasFS(storage.MemOptions{}), nil
			},
		},
		{
			Name:     "cow",
			Features: memFeatures,
			Open: func() (storage.FS, error) {
				return storage.NewCowFS(nil)
			},
		},
		{
			Name:     "cow-stack3",
			Features: memFeatures,
			Open: func() (storage.FS, error) {
				// Three frozen layers with overlapping content under a
				// writable top — the deep-stack shape of satellite 2.
				l0 := storage.NewMemFS(storage.MemOptions{})
				seedLayer(l0, "base", "from-l0")
				l1 := storage.NewMemFS(storage.MemOptions{})
				seedLayer(l1, "mid", "from-l1")
				l2 := storage.NewMemFS(storage.MemOptions{})
				seedLayer(l2, "top", "from-l2")
				return storage.Stack(l0, l1, l2)
			},
		},
		{
			Name:     "remote",
			Features: memFeatures,
			Open: func() (storage.FS, error) {
				// Zero link: free, fault-less, unobserved. Charging and
				// fault semantics get their own tests in the storage
				// package; conformance checks pure filesystem behavior.
				return storage.NewRemoteFS(storage.MemOptions{}, storage.RemoteLink{}), nil
			},
		},
		{
			Name:     "simplefs",
			Features: sfsFeatures,
			Open: func() (storage.FS, error) {
				dev := sfsDevice()
				fs, err := mountSFS(dev)
				if err != nil {
					return nil, err
				}
				return sfsFS{FS: fs, dev: dev}, nil
			},
			Remount: func(fs storage.FS) (storage.FS, error) {
				mounted, err := simplefs.Mount(fs.(sfsFS).dev)
				if err != nil {
					return nil, err
				}
				return mounted, nil
			},
		},
		{
			Name:     "fsimage",
			Features: sfsFeatures,
			Open: func() (storage.FS, error) {
				// A populated tool image: conformance runs with the
				// manifest payload already on disk.
				dev := sfsDevice()
				if err := fsimage.Build(dev, fsimage.ToolImage()); err != nil {
					return nil, err
				}
				mounted, err := simplefs.Mount(dev)
				if err != nil {
					return nil, err
				}
				return sfsFS{FS: mounted, dev: dev}, nil
			},
			Remount: func(fs storage.FS) (storage.FS, error) {
				mounted, err := simplefs.Mount(fs.(sfsFS).dev)
				if err != nil {
					return nil, err
				}
				return mounted, nil
			},
		},
		{
			// QEMU's 9p host share: a MemFS behind the protocol's cost
			// layer, exported without symlinks, hard links or quota.
			Name: "9p",
			Features: conformance.Features{
				CaseSensitive: true,
				SparseFiles:   true,
				Accounting:    true,
				Persist:       true,
				MaxNameLen:    255,
			},
			Open: func() (storage.FS, error) {
				return hypervisor.NewNinePFS(hostsim.NewHost()), nil
			},
		},
		{
			// The guest kernel's diskless root ("ramfs"): the memory
			// backend at the capacity the kernel mounts it with.
			Name:     "ramfs",
			Features: memFeatures,
			Open: func() (storage.FS, error) {
				return guestos.NewRootFS(), nil
			},
		},
	}

	for _, b := range backends {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			conformance.Run(t, b)
		})
	}
}

// seedLayer drops a small marker tree into a layer before it is
// frozen under a stack.
func seedLayer(fs *storage.MemFS, dir, marker string) {
	root, err := fs.Root()
	if err != nil {
		panic(err)
	}
	d, err := root.Mkdir(dir, 0o755, 0, 0)
	if err != nil {
		panic(err)
	}
	f, err := d.Create("marker", 0o644, 0, 0)
	if err != nil {
		panic(err)
	}
	if _, err := f.WriteAt([]byte(marker), 0); err != nil {
		panic(err)
	}
	fs.Seal()
}
