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
// backend served through the guest VFS: the in-memory family (memory,
// cow, cas, remote) mounted directly, plus the simplefs image pair
// (fsimage = a built image re-served, overlay = a copy-on-write union
// over that image — the remote-disk rescue configuration of §4.4).
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

	// The fsimage environment serves a freshly built tool image; the
	// overlay environment unions a writable top over the same kind of
	// image, exercising copy-up and whiteouts under the full corpus.
	imgDev := storage.NewMemBlock(testFSSize)
	if err := fsimage.Build(imgDev, fsimage.Manifest{}); err != nil {
		return nil, err
	}
	imgFS, err := simplefs.Mount(imgDev)
	if err != nil {
		return nil, err
	}
	imgFS.NowFn = kern.NowSec

	lowerDev := storage.NewMemBlock(testFSSize)
	if err := fsimage.Build(lowerDev, fsimage.ToolImage()); err != nil {
		return nil, err
	}
	lowerFS, err := simplefs.Mount(lowerDev)
	if err != nil {
		return nil, err
	}

	link := storage.NewRemoteLink(h.Clock, h.Costs, h.Faults)

	cow, err := storage.NewCowFS(nil)
	if err != nil {
		return nil, err
	}
	overlay, err := storage.NewCowFS(lowerFS)
	if err != nil {
		return nil, err
	}
	envs := []struct {
		name string
		fs   storage.FS
	}{
		{"memory", storage.NewMemFS(storage.MemOptions{})},
		{"cow", cow},
		{"cas", storage.NewCasFS(storage.MemOptions{})},
		{"remote", storage.NewRemoteFS(storage.MemOptions{}, link)},
		{"fsimage", imgFS},
		{"overlay", overlay},
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
			// the in-memory family natively, simplefs because MemBlock
			// is FUA-capable.
			QuotaCapable: true,
			Features:     map[string]bool{},
			// The in-memory family persists within the instance;
			// remount is sync + re-serve. The image-backed pair could
			// re-mount from the device, but shares the path so every
			// environment runs the identical corpus shape.
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
