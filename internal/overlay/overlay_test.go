package overlay

import (
	"strings"
	"testing"

	"vmsh/internal/fsimage"
	"vmsh/internal/guestos"
	"vmsh/internal/hostsim"
	"vmsh/internal/hypervisor"
	"vmsh/internal/simplefs"
)

// setup boots a guest and registers a vmsh-style block device + tty
// directly (bypassing the sideloader: unit scope is the overlay only).
func setup(t *testing.T) (*hypervisor.Instance, *guestos.Kernel) {
	t.Helper()
	h := hostsim.NewHost()
	inst, err := hypervisor.Launch(h, hypervisor.Config{
		Kind:   hypervisor.QEMU,
		RootFS: fsimage.GuestRoot("overlay-test"),
	})
	if err != nil {
		t.Fatal(err)
	}
	k := inst.Kernel
	img := h.CreateFile("tools.img", 96<<20, true)
	dev := hostsim.NewHostFileDevice(img)
	if err := fsimage.Build(dev, fsimage.ToolImage()); err != nil {
		t.Fatal(err)
	}
	k.RegisterBlockDev("vmshblk0", dev)
	k.NewTTY("hvc-vmsh", func([]byte) error { return nil })
	return inst, k
}

func runOverlay(t *testing.T, k *guestos.Kernel, opts Options) *guestos.Proc {
	t.Helper()
	p := k.Spawn(k.InitProc, "vmsh-guest")
	p.Container = "vmsh-overlay"
	if err := Run(k, p, opts.Encode()); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestOverlayRootSwap(t *testing.T) {
	_, k := setup(t)
	p := runOverlay(t, k, Options{Console: "hvc-vmsh", BlkDev: "vmshblk0"})
	// The overlay's root is the tool image.
	if _, err := p.Stat("/bin/sha256sum"); err != nil {
		t.Fatalf("tool image not the root: %v", err)
	}
	// Original guest content appears under /var/lib/vmsh.
	data, err := p.ReadFile(GuestMountDir + "/etc/hostname")
	if err != nil || !strings.Contains(string(data), "overlay-test") {
		t.Fatalf("guest root not re-exposed: %q %v", data, err)
	}
	// Writes go through to the real guest filesystem.
	if err := p.WriteFile(GuestMountDir+"/etc/injected", []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	other := k.Spawn(k.InitProc, "guest-proc")
	if _, err := other.ReadFile("/etc/injected"); err != nil {
		t.Fatal("overlay write invisible to the guest")
	}
}

func TestOverlayDoesNotTouchGuestNamespace(t *testing.T) {
	inst, k := setup(t)
	before := len(k.InitProc.NS.Mounts())
	_ = runOverlay(t, k, Options{Console: "hvc-vmsh", BlkDev: "vmshblk0"})
	if len(k.InitProc.NS.Mounts()) != before {
		t.Fatal("overlay mutated the init mount namespace")
	}
	p := inst.NewGuestProc("app")
	if _, err := p.Stat("/bin/sha256sum"); err == nil {
		t.Fatal("tool image visible outside the overlay")
	}
}

func TestOverlayContainerContext(t *testing.T) {
	_, k := setup(t)
	ct := k.StartContainer(guestos.ContainerSpec{
		Name: "c1", Comm: "svc", UID: 1001, GID: 1001,
		Caps: []string{"CAP_KILL"}, Cgroup: "/docker/c1", Seccomp: "strict",
	})
	if err := ct.WriteFile("/tmp/container-file", []byte("inside"), 0o644); err != nil {
		t.Fatal(err)
	}
	p := runOverlay(t, k, Options{
		Console: "hvc-vmsh", BlkDev: "vmshblk0", ContainerPID: ct.PID,
	})
	if p.UID != 1001 || p.Cgroup != "/docker/c1" || p.Seccomp != "strict" {
		t.Fatalf("context not adopted: %+v", p)
	}
	// The container's view (shared /tmp ramfs here) is reachable.
	if _, err := p.ReadFile(GuestMountDir + "/tmp/container-file"); err != nil {
		t.Fatalf("container file not visible: %v", err)
	}
}

func TestOverlayErrors(t *testing.T) {
	_, k := setup(t)
	p := k.Spawn(k.InitProc, "x")
	if err := Run(k, p, "{not json"); err == nil {
		t.Fatal("bad json accepted")
	}
	if err := Run(k, p, Options{BlkDev: "missing"}.Encode()); err == nil {
		t.Fatal("missing block device accepted")
	}
	if err := Run(k, p, Options{BlkDev: "vmshblk0", ContainerPID: 9999}.Encode()); err == nil {
		t.Fatal("missing container accepted")
	}
	if err := Run(k, p, Options{BlkDev: "vmshblk0", SpawnShell: true, Console: "missing"}.Encode()); err == nil {
		t.Fatal("missing console accepted")
	}
}

func TestOverlayShellSpawns(t *testing.T) {
	_, k := setup(t)
	var out strings.Builder
	tty, _ := k.TTYByName("hvc-vmsh")
	tty.LineHandler = nil
	// Re-register output capture.
	k.NewTTY("hvc-vmsh", func(b []byte) error { out.WriteString(string(b)); return nil })
	_ = runOverlay(t, k, Options{Console: "hvc-vmsh", BlkDev: "vmshblk0", SpawnShell: true})
	tty2, _ := k.TTYByName("hvc-vmsh")
	out.Reset()
	tty2.InputFromHost([]byte("pwd\n"))
	if !strings.Contains(out.String(), "/") || !strings.Contains(out.String(), guestos.Prompt) {
		t.Fatalf("shell not live: %q", out.String())
	}
}

// mountable check for simplefs over the registered device.
func TestOverlayImageActuallySimplefs(t *testing.T) {
	_, k := setup(t)
	dev, _ := k.BlockDevByName("vmshblk0")
	fs, err := simplefs.Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	root, _ := fs.Root()
	if _, err := root.Lookup("bin"); err != nil {
		t.Fatal("image content missing")
	}
}
