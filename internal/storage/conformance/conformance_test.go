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

// memFeatures is the baseline of the in-memory filesystem (memory, and
// the guest's in-memory root): full POSIX semantics, accounting,
// quota, 255-byte names. It persists only within one instance, so
// remount reuses the instance after Sync.
var memFeatures = conformance.Features{
	HardLinks:   true,
	Symlinks:    true,
	SparseFiles: true,
	Accounting:  true,
	Quota:       true,
	Persist:     true,
	MaxNameLen:  255,
}

// sfsFeatures: simplefs enforces its on-disk directory entry limit of
// 248 bytes and journals quota only on FUA-capable devices (every
// block store is).
var sfsFeatures = func() conformance.Features {
	f := memFeatures
	f.MaxNameLen = 248
	return f
}()

// sfsFS tracks the store behind a mounted simplefs so Remount can
// re-open the same bytes.
type sfsFS struct {
	storage.FS
	dev storage.BlockBackend
}

// onStore is a simplefs row: Open formats a fresh 64 MiB in-memory
// device with format (large enough for the model workload, small
// enough to keep the suite fast), builds the block store open makes
// over it and mounts simplefs on the store; Remount mounts the same
// store again.
func onStore(name string, format func(storage.BlockBackend) error,
	open func(base storage.BlockBackend) (storage.BlockBackend, error)) conformance.Backend {
	return conformance.Backend{
		Name:     name,
		Features: sfsFeatures,
		Open: func() (storage.FS, error) {
			base := storage.NewMemBlock(64 << 20)
			if err := format(base); err != nil {
				return nil, err
			}
			dev, err := open(base)
			if err != nil {
				return nil, err
			}
			fs, err := simplefs.Mount(dev)
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
	}
}

func TestConformance(t *testing.T) {
	mkfs := func(dev storage.BlockBackend) error { return simplefs.Mkfs(dev, simplefs.MkfsOptions{}) }
	// A populated tool image: conformance runs with the manifest
	// payload already on disk.
	toolImage := func(dev storage.BlockBackend) error { return fsimage.Build(dev, fsimage.ToolImage()) }
	// store opens the named block store with a zero link: free,
	// fault-less, unobserved. Charging and fault semantics get their
	// own tests in the storage package; conformance checks pure
	// filesystem behaviour.
	store := func(name string) func(storage.BlockBackend) (storage.BlockBackend, error) {
		return func(base storage.BlockBackend) (storage.BlockBackend, error) {
			return storage.OpenBlock(name, base, storage.RemoteLink{})
		}
	}

	backends := []conformance.Backend{
		{
			Name:     "memory",
			Features: memFeatures,
			Open: func() (storage.FS, error) {
				return storage.NewMemFS(storage.MemOptions{}), nil
			},
		},
		onStore("cas", mkfs, store("cas")),
		onStore("cow", mkfs, store("cow")),
		// Three copy-on-write stores deep: reads fall through every
		// layer to the formatted device, writes land in the top one.
		onStore("cow-stack3", mkfs, func(base storage.BlockBackend) (storage.BlockBackend, error) {
			return storage.NewCowBlock(storage.NewCowBlock(storage.NewCowBlock(base))), nil
		}),
		onStore("remote", mkfs, store("remote")),
		onStore("simplefs", mkfs, store("file")),
		onStore("fsimage", toolImage, store("file")),
		{
			// QEMU's 9p host share: a MemFS behind the protocol's cost
			// layer, exported without symlinks, hard links or quota.
			Name: "9p",
			Features: conformance.Features{
				SparseFiles: true,
				Accounting:  true,
				Persist:     true,
				MaxNameLen:  255,
			},
			Open: func() (storage.FS, error) {
				return hypervisor.NewNinePFS(hostsim.NewHost()), nil
			},
		},
		{
			// The guest kernel's diskless root ("ramfs"): MemFS at
			// the capacity the kernel mounts it with.
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
