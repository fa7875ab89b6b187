package guestos

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"vmsh/internal/fserr"
	"vmsh/internal/hostsim"
	"vmsh/internal/ksym"
	"vmsh/internal/kvm"
	"vmsh/internal/mem"
)

// bootKernel boots a bare guest (no disks) for unit tests.
func bootKernel(t *testing.T, version string, seed int64) (*hostsim.Host, *Kernel) {
	t.Helper()
	h := hostsim.NewHost()
	proc := h.NewProcess("hyp", hostsim.Creds{UID: 1000})
	ram := mem.NewPhys(0, 128<<20)
	m, err := proc.AS.MapPhys(0x7f0000000000, ram, "guest-ram")
	if err != nil {
		t.Fatal(err)
	}
	vm, _ := kvm.CreateVM(proc, "unit")
	vm.AddMemSlotDirect(0, 0, m.HVA, ram)
	vm.NewVCPU()
	k, err := Boot(Config{Version: version, Seed: seed, Host: h, VM: vm, RAMSize: 128 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return h, k
}

func TestVersionParsing(t *testing.T) {
	v, err := ParseVersion("5.10")
	if err != nil || v.Major != 5 || v.Minor != 10 {
		t.Fatalf("%+v %v", v, err)
	}
	if _, err := ParseVersion("nonsense"); err == nil {
		t.Fatal("parsed nonsense")
	}
	if _, err := ParseVersion("5"); err == nil {
		t.Fatal("parsed bare major")
	}
}

func TestVersionABIAxes(t *testing.T) {
	cases := []struct {
		v      string
		layout ksym.Layout
		newSig bool
		descV2 bool
	}{
		{"4.4", ksym.LayoutAbsolute, false, false},
		{"4.9", ksym.LayoutAbsolute, false, false},
		{"4.14", ksym.LayoutAbsolute, true, false},
		{"4.19", ksym.LayoutPosRel, true, false},
		{"5.4", ksym.LayoutPosRelNS, true, true},
		{"5.10", ksym.LayoutPosRelNS, true, true},
	}
	for _, c := range cases {
		v, _ := ParseVersion(c.v)
		if v.KsymLayout() != c.layout {
			t.Errorf("%s: layout %v, want %v", c.v, v.KsymLayout(), c.layout)
		}
		if v.NewFileIOSig() != c.newSig {
			t.Errorf("%s: newSig %v", c.v, v.NewFileIOSig())
		}
		if v.DescStructV2() != c.descV2 {
			t.Errorf("%s: descV2 %v", c.v, v.DescStructV2())
		}
	}
}

func TestBootWritesImageAndTables(t *testing.T) {
	_, k := bootKernel(t, "5.10", 99)
	// The banner is in guest physical memory where the image lies.
	img := make([]byte, kernelImageSize)
	if err := k.GuestMem().ReadPhys(kernelPhysBase, img); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(img[:4096]), "Linux version 5.10") {
		t.Fatal("banner missing from image")
	}
	// The ksymtab in the image is scannable and contains the API.
	res, err := ksym.Scan(img, k.KernelBase)
	if err != nil {
		t.Fatal(err)
	}
	if res.Layout != ksym.LayoutPosRelNS {
		t.Fatalf("layout %v", res.Layout)
	}
	for _, name := range []string{"printk", "filp_open", "call_usermodehelper"} {
		want, _ := k.SymbolAddr(name)
		if res.Symbols[name] != want {
			t.Fatalf("symbol %s: scan %#x, kernel %#x", name, res.Symbols[name], want)
		}
	}
	// vCPU points into the mapped kernel.
	vcpu := k.VM.VCPUs()[0]
	if vcpu.GetSregs().CR3 != uint64(k.CR3) {
		t.Fatal("CR3 not programmed")
	}
	if mem.GVA(vcpu.GetRegs().RIP) != k.idleRIP {
		t.Fatal("RIP not at idle")
	}
}

func TestKASLRVariesWithSeed(t *testing.T) {
	_, k1 := bootKernel(t, "5.10", 1)
	_, k2 := bootKernel(t, "5.10", 2)
	_, k3 := bootKernel(t, "5.10", 1)
	if k1.KernelBase == k2.KernelBase {
		t.Fatal("different seeds, same KASLR slot")
	}
	if k1.KernelBase != k3.KernelBase {
		t.Fatal("same seed must reproduce the same slot")
	}
	for _, k := range []*Kernel{k1, k2} {
		if k.KernelBase < KASLRBase || k.KernelBase >= KASLREnd {
			t.Fatalf("base %#x outside KASLR window", k.KernelBase)
		}
	}
}

func TestRamfsVFSBasics(t *testing.T) {
	_, k := bootKernel(t, "5.10", 7)
	p := k.Spawn(k.InitProc, "t")
	if err := p.WriteFile("/tmp/a.txt", []byte("ramfs"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := p.ReadFile("/tmp/a.txt")
	if err != nil || string(got) != "ramfs" {
		t.Fatalf("%q %v", got, err)
	}
	// /dev etc. exist from boot.
	for _, d := range []string{"/dev", "/tmp", "/etc", "/proc", "/var"} {
		st, err := p.Stat(d)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		if st.Mode&0xf000 != 0x4000 {
			t.Fatalf("%s not a directory", d)
		}
	}
}

func TestMountNamespaceIsolation(t *testing.T) {
	_, k := bootKernel(t, "5.10", 7)
	a := k.Spawn(k.InitProc, "a")
	b := k.Spawn(k.InitProc, "b")
	// Give b its own namespace with an extra mount.
	b.NS = k.CloneNamespace(b.NS)
	extra := NewRootFS()
	b.NS.AddMount("/private", extra)
	if err := b.WriteFile("/private/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Stat("/private/f"); err == nil {
		t.Fatal("mount leaked into sibling namespace")
	}
	// The shared root is still shared.
	if err := a.WriteFile("/tmp/shared", []byte("y"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Stat("/tmp/shared"); err != nil {
		t.Fatal("shared mount lost")
	}
}

func TestLongestPrefixMountResolution(t *testing.T) {
	_, k := bootKernel(t, "5.10", 7)
	p := k.Spawn(k.InitProc, "t")
	inner := NewRootFS()
	p.NS.AddMount("/mnt", NewRootFS())
	p.NS.AddMount("/mnt/inner", inner)
	if err := p.WriteFile("/mnt/inner/f", []byte("deep"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The file lives on the inner fs, not the outer.
	root, err := inner.Root()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := root.Lookup("f"); err != nil {
		t.Fatal("file did not land on the longest-prefix mount")
	}
	outer, _ := p.NS.findMount("/mnt")
	outerRoot, err := outer.FS.Root()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := outerRoot.Lookup("f"); err == nil {
		t.Fatal("file leaked to the outer mount")
	}
}

func TestCleanAndJoinPath(t *testing.T) {
	cases := map[string]string{
		"/a/b/../c":  "/a/c",
		"//x///y":    "/x/y",
		"/a/./b":     "/a/b",
		"/..":        "/",
		"rel":        "/rel",
		"/a/b/../..": "/",
	}
	for in, want := range cases {
		if got := cleanPath(in); got != want {
			t.Errorf("cleanPath(%q) = %q, want %q", in, got, want)
		}
	}
	if joinPath("/work", "sub/file") != "/work/sub/file" {
		t.Error("relative join")
	}
	if joinPath("/work", "/abs") != "/abs" {
		t.Error("absolute join")
	}
}

func TestPageCacheSharedAcrossOpens(t *testing.T) {
	h, k := bootKernel(t, "5.10", 7)
	p := k.Spawn(k.InitProc, "t")
	f1, err := p.Open("/tmp/f", OCreate|ORdwr, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f1.Write([]byte("cached")); err != nil {
		t.Fatal(err)
	}
	// A second open sees the dirty page immediately.
	f2, err := p.Open("/tmp/f", ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 6)
	if _, err := f2.ReadAt(buf, 0); err != nil || string(buf) != "cached" {
		t.Fatalf("%q %v", buf, err)
	}
	_ = h
}

func TestTTYLineDiscipline(t *testing.T) {
	_, k := bootKernel(t, "5.10", 7)
	var lines []string
	tty := k.NewTTY("t0", nil)
	tty.LineHandler = func(l string) { lines = append(lines, l) }
	tty.InputFromHost([]byte("par"))
	tty.InputFromHost([]byte("tial\nsecond\r\nthi"))
	tty.InputFromHost([]byte("rd\n"))
	want := []string{"partial", "second", "third"}
	if len(lines) != 3 {
		t.Fatalf("lines = %v", lines)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("line %d = %q", i, lines[i])
		}
	}
}

func TestContainerContextFields(t *testing.T) {
	_, k := bootKernel(t, "5.10", 7)
	ct := k.StartContainer(ContainerSpec{
		Name: "db", Comm: "postgres", UID: 70, GID: 70,
		Caps: []string{"CAP_CHOWN"}, Cgroup: "/docker/db",
		Seccomp: "default", AppArmor: "docker-default",
	})
	if ct.UID != 70 || ct.Cgroup != "/docker/db" || ct.Container != "db" {
		t.Fatalf("%+v", ct)
	}
	// The container has its own namespace.
	if ct.NS == k.InitProc.NS {
		t.Fatal("container shares the init mount namespace")
	}
	// It appears in the process list.
	found := false
	for _, p := range k.Procs() {
		if p.PID == ct.PID && p.Comm == "postgres" {
			found = true
		}
	}
	if !found {
		t.Fatal("container missing from process table")
	}
}

func TestGuestProgramRegistry(t *testing.T) {
	_, k := bootKernel(t, "5.10", 7)
	ran := false
	RegisterGuestProgram("unit-test-prog", func(kk *Kernel, p *Proc, options string) error {
		ran = options == `{"x":1}`
		return nil
	})
	payload := append([]byte("VMSHEXE1unit-test-prog\x00"), []byte(`{"x":1}`)...)
	if err := k.InitProc.WriteFile("/dev/prog", payload, 0o755); err != nil {
		t.Fatal(err)
	}
	pid, err := k.execGuestProgram("/dev/prog", "")
	if err != nil {
		t.Fatal(err)
	}
	if !ran || pid == 0 {
		t.Fatal("program did not run with options")
	}
	// Bad magic is ENOEXEC.
	_ = k.InitProc.WriteFile("/dev/bad", []byte("NOTEXE"), 0o755)
	if _, err := k.execGuestProgram("/dev/bad", ""); err == nil {
		t.Fatal("bad magic executed")
	}
	// Unknown program name fails.
	_ = k.InitProc.WriteFile("/dev/unknown", []byte("VMSHEXE1nope\x00{}"), 0o755)
	if _, err := k.execGuestProgram("/dev/unknown", ""); err == nil {
		t.Fatal("unknown program executed")
	}
}

func TestDeviceDescEncodingRoundTrip(t *testing.T) {
	for _, v2 := range []bool{false, true} {
		raw := EncodeDeviceDesc(v2, 0xd8000000, 48)
		ver := "4.9"
		if v2 {
			ver = "5.10"
		}
		_, k := bootKernel(t, ver, 7)
		ctx := &libCtx{k: k, vio: k.virtIO()}
		// Stash the struct into guest memory (kernel image area is
		// mapped and writable).
		gva := k.KernelBase + 0x100000
		if err := ctx.vio.WriteVirt(gva, raw); err != nil {
			t.Fatal(err)
		}
		desc, err := k.decodeDeviceDesc(ctx, gva)
		if err != nil {
			t.Fatalf("v2=%v: %v", v2, err)
		}
		if desc.Base != 0xd8000000 || desc.IRQ != 48 {
			t.Fatalf("v2=%v: %+v", v2, desc)
		}
	}
}

func TestDeviceDescVersionMismatchRejected(t *testing.T) {
	// A v1-encoded struct fed to a v2 kernel must be rejected (§6.2's
	// conditioned structures).
	_, k := bootKernel(t, "5.10", 7)
	ctx := &libCtx{k: k, vio: k.virtIO()}
	gva := k.KernelBase + 0x100000
	if err := ctx.vio.WriteVirt(gva, EncodeDeviceDesc(false, 0xd8000000, 48)); err != nil {
		t.Fatal(err)
	}
	if _, err := k.decodeDeviceDesc(ctx, gva); err == nil {
		t.Fatal("v1 struct accepted by v2 kernel")
	}
}

func TestBadRIPPanics(t *testing.T) {
	_, k := bootKernel(t, "5.10", 7)
	vcpu := k.VM.VCPUs()[0]
	regs := vcpu.GetRegs()
	regs.RIP = uint64(k.KernelBase) + 0x2000 // mapped, but not a blob
	vcpu.SetRegs(regs)
	k.RunGuest(vcpu)
	if k.Panicked == nil {
		t.Fatal("garbage RIP did not panic the guest")
	}
}

func TestDropCachesWritesBack(t *testing.T) {
	_, k := bootKernel(t, "5.10", 7)
	p := k.Spawn(k.InitProc, "t")
	if err := p.WriteFile("/tmp/d", []byte("dirty"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := k.DropCaches(); err != nil {
		t.Fatal(err)
	}
	got, err := p.ReadFile("/tmp/d")
	if err != nil || string(got) != "dirty" {
		t.Fatalf("data lost on drop_caches: %q %v", got, err)
	}
}

func TestRemoveAll(t *testing.T) {
	_, k := bootKernel(t, "5.10", 7)
	p := k.Spawn(k.InitProc, "t")
	paths := []string{"/tmp/tree/a/b", "/tmp/tree/c"}
	for _, d := range paths {
		if err := k.mkdirAll(p.NS, d); err != nil {
			t.Fatal(err)
		}
	}
	_ = p.WriteFile("/tmp/tree/a/b/f", []byte("x"), 0o644)
	_ = p.WriteFile("/tmp/tree/top", []byte("y"), 0o644)
	if err := p.RemoveAll("/tmp/tree"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Stat("/tmp/tree"); err != fserr.ErrNotFound {
		t.Fatalf("tree still there: %v", err)
	}
	// Removing a missing tree is fine.
	if err := p.RemoveAll("/tmp/tree"); err != nil {
		t.Fatal(err)
	}
}

func TestShellRedirection(t *testing.T) {
	_, k := bootKernel(t, "5.10", 7)
	// Shell needs binaries present; stage them on the in-memory root.
	p := k.Spawn(k.InitProc, "sh")
	_ = k.mkdirAll(p.NS, "/bin")
	for _, b := range []string{"echo", "cat"} {
		_ = p.WriteFile("/bin/"+b, []byte("\x7fELF"), 0o755)
	}
	var out strings.Builder
	tty := k.NewTTY("sh0", func(b []byte) error { out.WriteString(string(b)); return nil })
	NewShell(k, p, tty)
	tty.InputFromHost([]byte("echo hello world > /tmp/out.txt\n"))
	tty.InputFromHost([]byte("cat /tmp/out.txt\n"))
	if !strings.Contains(out.String(), "hello world") {
		t.Fatalf("redirection output: %q", out.String())
	}
}

// TestBootImageMatchesOneFill: Boot writes the kernel image a chunk at
// a time, and guest memory holds the bytes of the whole image built at
// once: one rand.Read fill, then the banner, the cleared ksymtab
// margins and the sections.
func TestBootImageMatchesOneFill(t *testing.T) {
	for _, c := range []struct {
		version string
		seed    int64
	}{{"5.10", 1}, {"5.10", -7}, {"4.19", 42}, {"4.4", 3}} {
		_, k := bootKernel(t, c.version, c.seed)
		want := make([]byte, kernelImageSize)
		rand.New(rand.NewSource(c.seed ^ 0x5eed)).Read(want)
		banner := fmt.Sprintf("Linux version %s.0 (vmsh-sim@host) #1 SMP %s", k.Version, k.Arch)
		copy(want[bannerOff:], append([]byte(banner), 0))
		var syms []ksym.Symbol
		for i, name := range kernelAPINames() {
			syms = append(syms, ksym.Symbol{Name: name, Value: k.KernelBase + mem.GVA(symsOff+i*symStride)})
		}
		sec, err := ksym.Build(k.Version.KsymLayout(), syms, k.KernelBase+ksymTabOff, k.KernelBase+ksymStrOff)
		if err != nil {
			t.Fatal(err)
		}
		clear(want[ksymTabOff-64 : ksymTabOff+len(sec.Tab)+64])
		clear(want[ksymStrOff-64 : ksymStrOff+len(sec.Strings)+64])
		copy(want[ksymTabOff:], sec.Tab)
		copy(want[ksymStrOff:], sec.Strings)
		got := make([]byte, kernelImageSize)
		if err := k.mem.ReadPhys(kernelPhysBase, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			i := 0
			for got[i] == want[i] {
				i++
			}
			t.Fatalf("%s seed %d: image differs first at byte %#x", c.version, c.seed, i)
		}
	}
}

// TestFillRandomMatchesRandRead: the boot image's filler writes the
// bytes rand.Read writes, at every length modulo 7 and image size.
func TestFillRandomMatchesRandRead(t *testing.T) {
	for _, seed := range []int64{0, 1, 1234, -7, 1234 ^ 0x5eed} {
		for _, n := range []int{0, 1, 6, 7, 8, 13, 4 << 20, 4<<20 + 3} {
			want := make([]byte, n)
			rand.New(rand.NewSource(seed)).Read(want)
			got := make([]byte, n)
			fillRandom(got, rand.NewSource(seed))
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d, %d bytes: fill differs from rand.Read", seed, n)
			}
		}
	}
}
