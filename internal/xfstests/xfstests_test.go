package xfstests

import (
	"testing"

	"vmsh/internal/guestos"
	"vmsh/internal/hostsim"
	"vmsh/internal/kvm"
	"vmsh/internal/mem"
	"vmsh/internal/simplefs"
)

func TestSuiteSizeAndStability(t *testing.T) {
	a := Suite()
	if len(a) != SuiteSize {
		t.Fatalf("suite has %d tests, want %d", len(a), SuiteSize)
	}
	b := Suite()
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Name != b[i].Name || a[i].Family != b[i].Family {
			t.Fatalf("test %d not stable across generations", i)
		}
	}
	// IDs are 1..N without gaps.
	for i, tc := range a {
		if tc.ID != i+1 {
			t.Fatalf("test %d has id %d", i, tc.ID)
		}
	}
}

func TestSuiteComposition(t *testing.T) {
	fams := map[string]int{}
	gated := 0
	for _, tc := range Suite() {
		fams[tc.Family]++
		if tc.Requires != "" {
			gated++
		}
	}
	// Exactly three quota-report tests carry the QuotaReport call.
	if fams["quota"] != 10 {
		t.Fatalf("quota family has %d tests", fams["quota"])
	}
	if gated != 40 {
		t.Fatalf("%d feature-gated tests", gated)
	}
	for _, f := range []string{"create", "rw", "sparse", "truncate", "rename",
		"link", "dir", "attr", "persist", "statfs", "largefile", "path",
		"interleave", "edge"} {
		if fams[f] == 0 {
			t.Fatalf("family %s empty", f)
		}
	}
}

// ramEnv builds a lightweight environment over a bare kernel and a
// ram-backed simplefs for corpus self-tests.
func ramEnv(t *testing.T, fua bool) *Env {
	t.Helper()
	h := hostsim.NewHost()
	proc := h.NewProcess("hyp", hostsim.Creds{UID: 1000})
	ram := mem.NewPhys(0, 128<<20)
	m, err := proc.AS.MapPhys(0x7f0000000000, ram, "guest-ram")
	if err != nil {
		t.Fatal(err)
	}
	vm, _ := kvm.CreateVM(proc, "xfs")
	vm.AddMemSlotDirect(0, 0, m.HVA, ram)
	vm.NewVCPU()
	k, err := guestos.Boot(guestos.Config{Version: "5.10", Host: h, VM: vm, RAMSize: 128 << 20})
	if err != nil {
		t.Fatal(err)
	}
	file := h.CreateFile("xfs.img", 128<<20, true)
	dev := &fuaDev{h: h, file: file, fua: fua}
	if err := simplefs.Mkfs(dev, simplefs.MkfsOptions{}); err != nil {
		t.Fatal(err)
	}
	mount := func() error {
		fs, err := simplefs.Mount(dev)
		if err != nil {
			return err
		}
		k.InitProc.NS.AddMount("/mnt/x", fs)
		return nil
	}
	if err := mount(); err != nil {
		t.Fatal(err)
	}
	return &Env{
		Name:         "ram",
		Mount:        "/mnt/x",
		NewProc:      func() *guestos.Proc { return k.Spawn(k.InitProc, "xfs") },
		QuotaCapable: fua,
		Features:     map[string]bool{},
		Remount: func() error {
			p := k.Spawn(k.InitProc, "sync")
			if err := p.Sync(); err != nil {
				return err
			}
			if err := k.InitProc.NS.RemoveMount("/mnt/x"); err != nil {
				return err
			}
			return mount()
		},
	}
}

type fuaDev struct {
	h    *hostsim.Host
	file *hostsim.HostFile
	fua  bool
}

func (d *fuaDev) ReadAt(off int64, b []byte) error  { return d.file.ReadAt(b, off) }
func (d *fuaDev) WriteAt(off int64, b []byte) error { return d.file.WriteAt(b, off) }
func (d *fuaDev) Flush() error                      { return d.file.Fsync() }
func (d *fuaDev) Size() int64                       { return d.file.Size() }
func (d *fuaDev) SupportsFUA() bool                 { return d.fua }

func TestCorpusPassesOnFUADevice(t *testing.T) {
	env := ramEnv(t, true)
	res := Run(env, Suite())
	if res.Failed != 0 {
		t.Fatalf("failures on a fully-capable device: %v", res.Failures)
	}
	if res.Skipped != 40 {
		t.Fatalf("skipped %d, want the 40 feature-gated tests", res.Skipped)
	}
	if res.Passed != SuiteSize-40 {
		t.Fatalf("passed %d", res.Passed)
	}
}

func TestCorpusQuotaFailsWithoutFUA(t *testing.T) {
	env := ramEnv(t, false)
	res := Run(env, Suite())
	if res.Failed != 3 {
		t.Fatalf("failed %d, want the 3 quota-report tests: %v", res.Failed, res.Failures)
	}
	for _, f := range res.Failures {
		if !containsStr(f, "quota/report") {
			t.Fatalf("unexpected failure %q", f)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
