package eval

import (
	"vmsh/internal/fsimage"
	"vmsh/internal/guestos"
	"vmsh/internal/hostsim"
	"vmsh/internal/hypervisor"
	"vmsh/internal/ledger"
	"vmsh/internal/simplefs"
	"vmsh/internal/storage"
	"vmsh/internal/xfstests"
)

// Results flattens the classic trio in table order so it can be
// concatenated with the backend results.
func (r *XfstestsResults) Results() []xfstests.Result {
	return []xfstests.Result{r.Native, r.QemuBlk, r.VmshBlk}
}

// xfstestsPaperFailed is §6.1's failure count per environment: the
// same three quota-reporting tests fail on both virtio paths (and
// none natively, which a zero paper value cannot say).
var xfstestsPaperFailed = map[string]float64{"qemu-blk": 3, "vmsh-blk": 3}

// XfstestsRows is E1's ledger: every environment's test counts, as
// invariants — a backend that starts failing or skipping tests is a
// regression at any size.
func XfstestsRows(results []xfstests.Result) []ledger.Row {
	l := ledger.Builder{Exp: "e1"}
	for _, r := range results {
		l.Invariant(r.Env+".total", float64(r.Total), "tests")
		l.Invariant(r.Env+".passed", float64(r.Passed), "tests")
		l.Invariant(r.Env+".failed", float64(r.Failed), "tests").Paper = xfstestsPaperFailed[r.Env]
		l.Invariant(r.Env+".skipped", float64(r.Skipped), "tests")
	}
	return l.Rows
}

// RunXfstestsBackends runs the E1 quick corpus against every storage
// backend served through the guest VFS: the in-memory filesystem
// mounted directly, and simplefs mounted on each block store a session
// can select with vmsh.WithStorageBackend (cow, cas, remote, each over
// a freshly built empty image), on a built image served as it is
// (fsimage), and on a copy-on-write store over a built tool image
// (overlay: one read-only image with private writes, the remote-disk
// rescue configuration of §4.4).
func RunXfstestsBackends() ([]xfstests.Result, error) {
	h := hostsim.NewHost()
	inst, err := hypervisor.Launch(h, hypervisor.Config{
		Kind:   hypervisor.QEMU,
		RootFS: fsimage.GuestRoot("xfstests-backends"),
	})
	if err != nil {
		return nil, err
	}
	kern := inst.Kernel

	// Every env but memory is simplefs, on the guest kernel's clock,
	// mounted on the store OpenBlock builds over a fresh testFSSize
	// image holding the env's manifest.
	link := storage.NewRemoteLink(h.Clock, h.Costs, h.Faults)
	type backend struct {
		name string
		fs   storage.FS
	}
	envs := []backend{{"memory", storage.NewMemFS(storage.MemOptions{})}}
	for _, e := range []struct {
		name, store string // env name, OpenBlock store name
		image       fsimage.Manifest
	}{
		{"cow", "cow", fsimage.Manifest{}},
		{"cas", "cas", fsimage.Manifest{}},
		{"remote", "remote", fsimage.Manifest{}},
		{"fsimage", "file", fsimage.Manifest{}},
		{"overlay", "cow", fsimage.ToolImage()},
	} {
		base := storage.NewMemBlock(testFSSize)
		if err := fsimage.Build(base, e.image); err != nil {
			return nil, err
		}
		dev, err := storage.OpenBlock(e.store, base, link)
		if err != nil {
			return nil, err
		}
		fs, err := simplefs.Mount(dev)
		if err != nil {
			return nil, err
		}
		fs.NowFn = kern.NowSec
		envs = append(envs, backend{e.name, fs})
	}

	suite := xfstests.Suite()
	results := make([]xfstests.Result, 0, len(envs))
	for _, e := range envs {
		mount := "/mnt/" + e.name
		fs := e.fs
		kern.InitProc.NS.AddMount(mount, fs)
		env := &xfstests.Env{
			Name:    e.name,
			Mount:   mount,
			NewProc: func() *guestos.Proc { return inst.NewGuestProc("xfstests") },
			// Every backend in this table supports quota reporting:
			// MemFS natively, simplefs because every block store is
			// FUA-capable.
			QuotaCapable: true,
			Features:     map[string]bool{},
			// Remount is sync + re-serve of the same instance. The
			// simplefs envs could re-mount from their store, but share
			// the path so every environment runs the identical corpus
			// shape.
			Remount: func() error {
				p := inst.NewGuestProc("remount")
				if err := p.Sync(); err != nil {
					return err
				}
				if err := kern.InitProc.NS.RemoveMount(mount); err != nil {
					return err
				}
				kern.InitProc.NS.AddMount(mount, fs)
				return nil
			},
		}
		results = append(results, xfstests.Run(env, suite))
	}
	return results, nil
}
