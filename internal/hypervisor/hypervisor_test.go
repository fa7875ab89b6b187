package hypervisor

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"vmsh/internal/fserr"
	"vmsh/internal/fsimage"
	"vmsh/internal/guestos"
	"vmsh/internal/hostsim"
)

func launchQEMU(t *testing.T) (*hostsim.Host, *Instance) {
	t.Helper()
	h := hostsim.NewHost()
	inst, err := Launch(h, Config{
		Kind:   QEMU,
		RootFS: fsimage.GuestRoot("testvm"),
		Seed:   42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h, inst
}

func TestLaunchBootsAndMountsRoot(t *testing.T) {
	_, inst := launchQEMU(t)
	p := inst.NewGuestProc("test")
	data, err := p.ReadFile("/etc/hostname")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "testvm\n" {
		t.Fatalf("hostname = %q", data)
	}
	// The root really sits behind the virtio driver: the device saw
	// requests.
	if inst.BlkDevs[0].Requests == 0 {
		t.Fatal("root reads bypassed qemu-blk")
	}
}

func TestGuestWritesPersistToImage(t *testing.T) {
	h, inst := launchQEMU(t)
	p := inst.NewGuestProc("writer")
	if err := p.WriteFile("/data.bin", bytes.Repeat([]byte("Z"), 8192), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	// The bytes must exist in the host image file (full path through
	// virtqueue -> qemu-blk backend -> pwrite64 -> host file).
	img, err := h.OpenFile("qemu-vda.img")
	if err != nil {
		t.Fatal(err)
	}
	pages, found := img.Pages(), false
	for idx := uint64(0); idx < pages.NumPages() && !found; idx++ {
		found = bytes.Equal(pages.Page(idx), bytes.Repeat([]byte("Z"), 4096))
	}
	if !found {
		t.Fatal("guest write never reached the backing image")
	}
}

func TestExtraDiskMounted(t *testing.T) {
	h := hostsim.NewHost()
	inst, err := Launch(h, Config{
		Kind:   QEMU,
		RootFS: fsimage.GuestRoot("x"),
		ExtraDisks: []DiskSpec{
			{GuestName: "vdb", Size: 64 << 20, Mkfs: true, MountAt: "/mnt/data"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := inst.NewGuestProc("t")
	if err := p.WriteFile("/mnt/data/f", []byte("on the data disk"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := p.ReadFile("/mnt/data/f")
	if err != nil || string(got) != "on the data disk" {
		t.Fatalf("%q, %v", got, err)
	}
	if _, ok := inst.GuestDisk("vdb"); !ok {
		t.Fatal("vdb not registered")
	}
}

func TestAllKindsLaunch(t *testing.T) {
	for _, kind := range []Kind{QEMU, Kvmtool, Firecracker, Crosvm, CloudHypervisor} {
		t.Run(kind.String(), func(t *testing.T) {
			h := hostsim.NewHost()
			inst, err := Launch(h, Config{Kind: kind, RootFS: fsimage.GuestRoot("x"), Seed: int64(kind)})
			if err != nil {
				t.Fatal(err)
			}
			if inst.Kernel.Panicked != nil {
				t.Fatal(inst.Kernel.Panicked)
			}
			// The KVM fds are discoverable via /proc as the
			// sideloader requires.
			root := h.NewProcess("scanner", hostsim.Creds{UID: 0,
				Caps: hostsim.Caps(hostsim.CapSysPtrace)})
			info, err := h.ProcFDInfo(root, inst.Proc.PID)
			if err != nil {
				t.Fatal(err)
			}
			foundVM, foundVCPU := false, false
			for _, fi := range info {
				if fi.Link == "anon_inode:kvm-vm" {
					foundVM = true
				}
				if fi.Link == "anon_inode:kvm-vcpu:0" {
					foundVCPU = true
				}
			}
			if !foundVM || !foundVCPU {
				t.Fatalf("kvm fds not discoverable: %+v", info)
			}
		})
	}
}

func TestKernelVersionsBoot(t *testing.T) {
	for _, ver := range guestos.LTSVersions {
		t.Run(ver, func(t *testing.T) {
			h := hostsim.NewHost()
			inst, err := Launch(h, Config{Kind: QEMU, KernelVersion: ver, RootFS: fsimage.GuestRoot("x")})
			if err != nil {
				t.Fatal(err)
			}
			p := inst.NewGuestProc("t")
			if _, err := p.Stat("/etc/hostname"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestFirecrackerSeccompBlocksInjectedMmap(t *testing.T) {
	h := hostsim.NewHost()
	inst, err := Launch(h, Config{Kind: Firecracker, RootFS: fsimage.GuestRoot("fc")})
	if err != nil {
		t.Fatal(err)
	}
	vmsh := h.NewProcess("vmsh", hostsim.Creds{UID: 0,
		Caps: hostsim.Caps(hostsim.CapSysPtrace)})
	tr, err := vmsh.Attach(inst.Proc)
	if err != nil {
		t.Fatal(err)
	}
	_ = tr.InterruptAll()
	if _, err := tr.InjectSyscall(inst.Proc.MainThread(), hostsim.SysMmap,
		0, 4096, 3, hostsim.MapAnonymous|hostsim.MapPrivate, ^uint64(0)); err == nil {
		t.Fatal("firecracker seccomp did not block injection")
	}
}

func TestNinePShare(t *testing.T) {
	h := hostsim.NewHost()
	inst, err := Launch(h, Config{Kind: QEMU, RootFS: fsimage.GuestRoot("x"), NinePShare: true})
	if err != nil {
		t.Fatal(err)
	}
	p := inst.NewGuestProc("t")
	if err := p.WriteFile("/mnt/9p/shared.txt", []byte("via 9p"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := p.ReadFile("/mnt/9p/shared.txt")
	if err != nil || string(got) != "via 9p" {
		t.Fatalf("%q %v", got, err)
	}
}

// TestNinePNegativeTruncateIsEINVAL: a guest truncate to a negative
// size fails with EINVAL and leaves the file as it was, dirty
// page-cache pages included, on the share and on the guest root.
func TestNinePNegativeTruncateIsEINVAL(t *testing.T) {
	h := hostsim.NewHost()
	inst, err := Launch(h, Config{Kind: QEMU, RootFS: fsimage.GuestRoot("x"), NinePShare: true})
	if err != nil {
		t.Fatal(err)
	}
	p := inst.NewGuestProc("t")
	for _, path := range []string{"/mnt/9p/f", "/tmp/f"} {
		if err := p.WriteFile(path, []byte("data"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := p.Truncate(path, -1); !errors.Is(err, fserr.ErrInvalid) {
			t.Fatalf("%s: truncate to -1: %v, want EINVAL", path, err)
		}
		if got, err := p.ReadFile(path); err != nil || string(got) != "data" {
			t.Errorf("%s after the refused truncate: %q, %v; want \"data\"", path, got, err)
		}
	}
}

// TestQemuBlkPastImageEndIsIOErr is the qemu-blk twin of core's
// vmsh-blk test: a request past the end of the disk, straddling it, or
// so far out that its end overflows int64 fails with an IO error —
// never a panic — and the last page still reads.
func TestQemuBlkPastImageEndIsIOErr(t *testing.T) {
	h := hostsim.NewHost()
	inst, err := Launch(h, Config{Kind: QEMU, RootFS: fsimage.GuestRoot("x"),
		ExtraDisks: []DiskSpec{{GuestName: "vdb", Size: 1 << 20}}})
	if err != nil {
		t.Fatal(err)
	}
	bd, ok := inst.GuestDisk("vdb")
	if !ok {
		t.Fatal("vdb missing")
	}
	size := bd.Size()
	buf := make([]byte, 4096)
	for _, off := range []int64{size, size - 2048, math.MaxInt64 / 512 * 512} {
		if err := bd.ReadAt(off, buf); err == nil {
			t.Errorf("read [%d,+%d) of a %d-byte disk succeeded", off, len(buf), size)
		}
		if err := bd.WriteAt(off, buf); err == nil {
			t.Errorf("write [%d,+%d) of a %d-byte disk succeeded", off, len(buf), size)
		}
	}
	if err := bd.ReadAt(size-int64(len(buf)), buf); err != nil {
		t.Errorf("read of the last page failed: %v", err)
	}
}

func TestGuestShellOnRootTTY(t *testing.T) {
	// A shell wired to a plain TTY (no console device yet) executes
	// builtins against a root that ships the tools; the de-bloated
	// case is covered below.
	h := hostsim.NewHost()
	inst, err := Launch(h, Config{
		Kind:   QEMU,
		RootFS: fsimage.GuestRoot("x").Merge(fsimage.ToolImage()),
		Seed:   42,
	})
	if err != nil {
		t.Fatal(err)
	}
	k := inst.Kernel
	var out bytes.Buffer
	tty := k.NewTTY("tty0", func(b []byte) error { out.Write(b); return nil })
	p := inst.NewGuestProc("sh")
	guestos.NewShell(k, p, tty)
	out.Reset()
	tty.InputFromHost([]byte("cat /etc/hostname\n"))
	if !bytes.Contains(out.Bytes(), []byte("x")) {
		t.Fatalf("shell output: %q", out.String())
	}
	out.Reset()
	tty.InputFromHost([]byte("sha256sum /etc/hostname\n"))
	if bytes.Contains(out.Bytes(), []byte("not found")) {
		t.Fatalf("tool image binary missing: %q", out.String())
	}

	// On the de-bloated root the binary genuinely does not exist.
	_, lean := launchQEMU(t)
	var out2 bytes.Buffer
	tty2 := lean.Kernel.NewTTY("tty0", func(b []byte) error { out2.Write(b); return nil })
	guestos.NewShell(lean.Kernel, lean.NewGuestProc("sh"), tty2)
	out2.Reset()
	tty2.InputFromHost([]byte("sha256sum /etc/hostname\n"))
	if !bytes.Contains(out2.Bytes(), []byte("not found")) {
		t.Fatalf("missing binary ran anyway: %q", out2.String())
	}
}

// TestMountTypes pins the guest's mount tables on a QEMU guest with a
// 9p share: each filesystem shows as the type a Linux guest would
// print, never as the simulator's Go type name.
func TestMountTypes(t *testing.T) {
	inst, err := Launch(hostsim.NewHost(), Config{
		Kind:       QEMU,
		RootFS:     fsimage.GuestRoot("x").Merge(fsimage.ToolImage()),
		NinePShare: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	tty := inst.Kernel.NewTTY("tty0", func(b []byte) error { out.Write(b); return nil })
	sh := inst.NewGuestProc("sh")
	guestos.NewShell(inst.Kernel, sh, tty)
	for _, c := range []struct{ cmd, want string }{
		{"mount", "/ type simplefs\n/mnt/9p type 9p\n/proc type proc\n"},
		{"cat /proc/mounts", "simplefs / rw 0 0\n9p /mnt/9p rw 0 0\nproc /proc rw 0 0\n"},
		{fmt.Sprintf("cat /proc/%d/mountinfo", sh.PID),
			"20 1 8:1 / / rw - simplefs none rw\n21 1 8:1 / /mnt/9p rw - 9p none rw\n22 1 8:1 / /proc rw - proc none rw\n"},
	} {
		c.want += guestos.Prompt
		out.Reset()
		tty.InputFromHost([]byte(c.cmd + "\n"))
		if got := out.String(); got != c.want {
			t.Errorf("%s:\n%q\nwant\n%q", c.cmd, got, c.want)
		}
	}
}
