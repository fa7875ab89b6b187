package core

import (
	"bytes"
	"io"
	"math"
	"slices"
	"strings"
	"testing"

	"vmsh/internal/fsimage"
	"vmsh/internal/guestos"
	"vmsh/internal/hostsim"
	"vmsh/internal/hypervisor"
	"vmsh/internal/replay"
)

// buildToolImage creates the attachable fs image on the host disk.
func buildToolImage(t *testing.T, h *hostsim.Host, name string) *hostsim.HostFile {
	t.Helper()
	img := h.CreateFile(name, 96<<20, false)
	if err := fsimage.Build(hostsim.NewHostFileDevice(img), fsimage.ToolImage()); err != nil {
		t.Fatal(err)
	}
	return img
}

func launch(t *testing.T, kind hypervisor.Kind, kernel string) (*hostsim.Host, *hypervisor.Instance) {
	t.Helper()
	h := hostsim.NewHost()
	inst, err := hypervisor.Launch(h, hypervisor.Config{
		Kind:          kind,
		KernelVersion: kernel,
		RootFS:        fsimage.GuestRoot("guest-under-test"),
		Seed:          1234,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h, inst
}

func attach(t *testing.T, h *hostsim.Host, inst *hypervisor.Instance, opts Options) *Session {
	t.Helper()
	if opts.Image == nil && !opts.Minimal {
		opts.Image = buildToolImage(t, h, "tools.img")
	}
	v := New(h)
	sess, err := v.Attach(inst.Proc.PID, opts)
	if err != nil {
		t.Fatalf("attach: %v (guest log: %v)", err, inst.Kernel.Log)
	}
	return sess
}

func TestAttachEndToEnd(t *testing.T) {
	h, inst := launch(t, hypervisor.QEMU, "5.10")
	sess := attach(t, h, inst, Options{})

	if inst.Kernel.Panicked != nil {
		t.Fatalf("guest panicked: %v", inst.Kernel.Panicked)
	}
	if sess.Version().String() != "5.10" {
		t.Fatalf("detected version %s", sess.Version())
	}

	// The overlay shell answers over the console.
	out, err := sess.Exec("echo hello from the overlay")
	if err != nil {
		t.Fatalf("%v (out=%q)", err, out)
	}
	if !strings.Contains(out, "hello from the overlay") {
		t.Fatalf("echo output: %q", out)
	}

	// The overlay root is the tool image; the guest root is visible
	// under /var/lib/vmsh (§4.4).
	out, _ = sess.Exec("cat /var/lib/vmsh/etc/hostname")
	if !strings.Contains(out, "guest-under-test") {
		t.Fatalf("guest root not re-exposed: %q", out)
	}

	// Tools exist in the overlay even though the guest root lacks
	// them.
	out, _ = sess.Exec("ls /bin")
	if !strings.Contains(out, "sha256sum") {
		t.Fatalf("tool image incomplete: %q", out)
	}

	// vmsh-blk really served the overlay's IO.
	if sess.BlkRequests() == 0 {
		t.Fatal("no requests reached vmsh-blk")
	}
}

func TestAttachAllSupportedHypervisors(t *testing.T) {
	// Table 1: QEMU, kvmtool, Firecracker (filters off), crosvm work.
	cases := []struct {
		kind           hypervisor.Kind
		disableSeccomp bool
	}{
		{hypervisor.QEMU, false},
		{hypervisor.Kvmtool, false},
		{hypervisor.Firecracker, true},
		{hypervisor.Crosvm, false},
	}
	for _, tc := range cases {
		t.Run(tc.kind.String(), func(t *testing.T) {
			h := hostsim.NewHost()
			inst, err := hypervisor.Launch(h, hypervisor.Config{
				Kind:           tc.kind,
				RootFS:         fsimage.GuestRoot("x"),
				DisableSeccomp: tc.disableSeccomp,
			})
			if err != nil {
				t.Fatal(err)
			}
			sess := attach(t, h, inst, Options{})
			out, err := sess.Exec("uname -r")
			if err != nil || !strings.Contains(out, "5.10") {
				t.Fatalf("uname via console: %q, %v", out, err)
			}
		})
	}
}

func TestAttachFirecrackerSeccompFails(t *testing.T) {
	h := hostsim.NewHost()
	inst, err := hypervisor.Launch(h, hypervisor.Config{
		Kind:   hypervisor.Firecracker,
		RootFS: fsimage.GuestRoot("x"),
	})
	if err != nil {
		t.Fatal(err)
	}
	v := New(h)
	if _, err := v.Attach(inst.Proc.PID, Options{Minimal: true}); err == nil {
		t.Fatal("attach succeeded despite seccomp filters")
	}
}

func TestAttachCloudHypervisorUnsupported(t *testing.T) {
	h := hostsim.NewHost()
	inst, err := hypervisor.Launch(h, hypervisor.Config{
		Kind:   hypervisor.CloudHypervisor,
		RootFS: fsimage.GuestRoot("x"),
	})
	if err != nil {
		t.Fatal(err)
	}
	v := New(h)
	_, err = v.Attach(inst.Proc.PID, Options{Minimal: true})
	if err == nil {
		t.Fatal("attach to Cloud Hypervisor succeeded")
	}
	if !strings.Contains(err.Error(), "MSI-X") {
		t.Fatalf("unexpected failure mode: %v", err)
	}
}

func TestAttachAllLTSKernels(t *testing.T) {
	// Table 1: v5.10, v5.4, v4.19, v4.14, v4.9, v4.4 — three ksymtab
	// layouts, two kernel_read/write signatures, two struct layouts.
	for _, ver := range guestos.LTSVersions {
		t.Run(ver, func(t *testing.T) {
			h, inst := launch(t, hypervisor.QEMU, ver)
			sess := attach(t, h, inst, Options{})
			out, err := sess.Exec("uname -r")
			if err != nil || !strings.Contains(out, ver) {
				t.Fatalf("kernel %s: %q, %v (log %v)", ver, out, err, inst.Kernel.Log)
			}
		})
	}
}

func TestAttachBothTrapModes(t *testing.T) {
	for _, trap := range []TrapMode{TrapIoregionfd, TrapWrapSyscall} {
		t.Run(trap.String(), func(t *testing.T) {
			h, inst := launch(t, hypervisor.QEMU, "5.10")
			sess := attach(t, h, inst, Options{Trap: trap})
			if _, err := sess.Exec("echo ping"); err != nil {
				t.Fatal(err)
			}
			// ioregionfd leaves no tracer behind; wrap_syscall keeps
			// one (and taxes the hypervisor).
			if trap == TrapIoregionfd && inst.Proc.Traced() {
				t.Fatal("tracer still attached after ioregionfd setup")
			}
			if trap == TrapWrapSyscall && !inst.Proc.SyscallTaxed() {
				t.Fatal("wrap_syscall tax inactive")
			}
		})
	}
}

func TestDetach(t *testing.T) {
	h, inst := launch(t, hypervisor.QEMU, "5.10")
	sess := attach(t, h, inst, Options{Trap: TrapWrapSyscall})
	if _, err := sess.Exec("echo alive"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Detach(); err != nil {
		t.Fatal(err)
	}
	if inst.Proc.Traced() {
		t.Fatal("still traced after detach")
	}
	// Guest-side devices are unregistered.
	if _, ok := inst.Kernel.BlockDevByName("vmshblk0"); ok {
		t.Fatal("vmshblk0 survives detach")
	}
	if _, ok := inst.Kernel.TTYByName("hvc-vmsh"); ok {
		t.Fatal("console tty survives detach")
	}
	// Overlay processes are gone.
	for _, p := range inst.Kernel.Procs() {
		if p.Container == "vmsh-overlay" {
			t.Fatal("overlay process survives detach")
		}
	}
	if _, err := sess.Exec("echo dead"); err == nil {
		t.Fatal("exec after detach succeeded")
	}
	// Detach is idempotent.
	if err := sess.Detach(); err != nil {
		t.Fatal(err)
	}
}

func TestGuestUnaffectedFunctionally(t *testing.T) {
	h, inst := launch(t, hypervisor.QEMU, "5.10")
	p := inst.NewGuestProc("app")
	if err := p.WriteFile("/app-data", []byte("before"), 0o644); err != nil {
		t.Fatal(err)
	}
	sess := attach(t, h, inst, Options{})
	// Existing guest processes keep their namespace: no /bin tools
	// appear, the original root is still "/".
	if _, err := p.Stat("/bin/sha256sum"); err == nil {
		t.Fatal("overlay leaked into existing guest process")
	}
	got, err := p.ReadFile("/app-data")
	if err != nil || string(got) != "before" {
		t.Fatalf("guest file damaged: %q %v", got, err)
	}
	// And the overlay can still write to the guest via /var/lib/vmsh.
	if _, err := sess.Exec("echo patched > /var/lib/vmsh/app-data"); err != nil {
		t.Fatal(err)
	}
	got, _ = p.ReadFile("/app-data")
	if !strings.Contains(string(got), "patched") {
		t.Fatalf("overlay write not visible to guest: %q", got)
	}
}

func TestAttachContainerContext(t *testing.T) {
	h, inst := launch(t, hypervisor.QEMU, "5.10")
	ct := inst.Kernel.StartContainer(guestos.ContainerSpec{
		Name: "web", Comm: "nginx", UID: 101, GID: 101,
		Caps: []string{"CAP_NET_BIND_SERVICE"}, Cgroup: "/docker/web",
		Seccomp: "runtime/default", AppArmor: "docker-default",
	})
	sess := attach(t, h, inst, Options{ContainerPID: ct.PID})
	out, err := sess.Exec("id")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"uid=101", "CAP_NET_BIND_SERVICE", "/docker/web", "runtime/default"} {
		if !strings.Contains(out, want) {
			t.Fatalf("container context not adopted: %q (want %s)", out, want)
		}
	}
}

func TestAttachMinimalNoOverlay(t *testing.T) {
	h, inst := launch(t, hypervisor.QEMU, "5.10")
	sess := attach(t, h, inst, Options{Minimal: true})
	// Devices exist, but no overlay shell was spawned.
	if _, ok := inst.Kernel.BlockDevByName("vmshblk0"); !ok {
		t.Fatal("vmshblk0 missing")
	}
	for _, p := range inst.Kernel.Procs() {
		if p.Container == "vmsh-overlay" {
			t.Fatal("overlay spawned in minimal mode")
		}
	}
	_ = sess
}

func TestPrivilegeDropAfterProbe(t *testing.T) {
	h, inst := launch(t, hypervisor.QEMU, "5.10")
	v := New(h)
	img := buildToolImage(t, h, "tools.img")
	if _, err := v.Attach(inst.Proc.PID, Options{Image: img}); err != nil {
		t.Fatal(err)
	}
	// CAP_BPF is gone: re-attaching the probe must fail (§4.5 / D5).
	if _, err := h.AttachKProbe(v.Proc, "kvm_vm_ioctl", func(any) {}); err == nil {
		t.Fatal("CAP_BPF survived the privilege drop")
	}
	if !v.Proc.Creds.Has(hostsim.CapSysPtrace) {
		t.Fatal("ptrace capability should remain")
	}
}

// TestVMSHProcessEndsWithSession: each attach runs in its own vmsh
// process, and Detach or a failed Attach exits it, so attach cycles
// leave the host's process table as they found it.
func TestVMSHProcessEndsWithSession(t *testing.T) {
	h, inst := launch(t, hypervisor.QEMU, "5.10")
	img := buildToolImage(t, h, "tools.img")
	before := h.Pids()
	for i := 0; i < 3; i++ {
		sess := attach(t, h, inst, Options{Image: img})
		if err := sess.Detach(); err != nil {
			t.Fatalf("detach %d: %v", i, err)
		}
	}
	// One attach fails at a stage (no image to serve), after the
	// transaction has applied side effects; one names no process.
	if _, err := New(h).Attach(inst.Proc.PID, Options{}); err == nil {
		t.Fatal("attach without an image succeeded")
	}
	if _, err := New(h).Attach(424242, Options{}); err == nil {
		t.Fatal("attach to a missing pid succeeded")
	}
	if got := h.Pids(); !slices.Equal(got, before) {
		t.Fatalf("pids %v after three attach cycles and two failed attaches, want %v", got, before)
	}
}

// bufSink is a record sink that keeps the log in memory.
type bufSink struct{ bytes.Buffer }

func (*bufSink) Close() error { return nil }

// TestMissingPidAttachSealsRecording: an attach to a pid that does not
// exist takes its record tap off the host and seals and persists the
// (empty) recording, as an attach failing at a later stage does, so
// the host's next crossings are not recorded into a dead attach's log.
func TestMissingPidAttachSealsRecording(t *testing.T) {
	h := hostsim.NewHost()
	rec := replay.NewRecorder(h.Clock, "missing", 0)
	var sink bufSink
	_, err := New(h).Attach(424242, Options{Record: rec,
		RecordSink: func() (io.WriteCloser, error) { return &sink, nil }})
	if err == nil {
		t.Fatal("attach to a missing pid succeeded")
	}
	if h.Faults.Observing() {
		t.Fatal("the record tap is still on the host after the failed attach")
	}
	lg, err := replay.Read(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatalf("persisted recording: %v", err)
	}
	if len(lg.Records) != 0 || lg.Footer.Crossings != 0 {
		t.Fatalf("recording holds %d crossings, want none", len(lg.Records))
	}
}

func TestAttachNonHypervisorFails(t *testing.T) {
	h := hostsim.NewHost()
	plain := h.NewProcess("nginx", hostsim.Creds{UID: 1000})
	v := New(h)
	if _, err := v.Attach(plain.PID, Options{Minimal: true}); err == nil {
		t.Fatal("attached to a non-hypervisor")
	}
}

func TestGuestLogShowsVMSH(t *testing.T) {
	// §4.1: VMSH's execution is intentionally visible in the guest's
	// kernel log.
	h, inst := launch(t, hypervisor.QEMU, "5.10")
	_ = attach(t, h, inst, Options{})
	joined := strings.Join(inst.Kernel.Log, "\n")
	for _, want := range []string{"side-loaded library", "virtio-blk", "virtio-console", "vmsh-overlay"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("kernel log missing %q:\n%s", want, joined)
		}
	}
}

func TestShaOverConsole(t *testing.T) {
	// The sustained-load path: checksum a large file on the guest
	// root through the overlay.
	h, inst := launch(t, hypervisor.QEMU, "5.10")
	sess := attach(t, h, inst, Options{})
	out, err := sess.Exec("sha256sum /var/lib/vmsh/app/server")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "/var/lib/vmsh/app/server") || len(strings.Fields(out)) != 2 {
		t.Fatalf("sha output: %q", out)
	}
	if len(strings.Fields(out)[0]) != 64 {
		t.Fatalf("not a sha256: %q", out)
	}
}

// TestVMSHBlkPastImageEndIsIOErr drives the vmsh-blk device from the
// guest driver with sectors the image does not have: a request past the
// end, straddling it, or so far out that its end overflows int64 must
// complete with an IO-error status (never a panic, never a short read
// reported as success), on both the batched and the legacy service
// paths.
func TestVMSHBlkPastImageEndIsIOErr(t *testing.T) {
	for _, legacy := range []bool{false, true} {
		h, inst := launch(t, hypervisor.QEMU, "5.10")
		attach(t, h, inst, Options{LegacyVirtio: legacy})
		bd, ok := inst.Kernel.BlockDevByName("vmshblk0")
		if !ok {
			t.Fatal("vmshblk0 missing")
		}
		size := bd.Size()
		buf := make([]byte, 4096)
		for _, off := range []int64{size, size + 1<<20, size - 2048, math.MaxInt64 / 512 * 512} {
			if err := bd.ReadAt(off, buf); err == nil {
				t.Errorf("legacy=%v: read [%d,+%d) of a %d-byte image succeeded", legacy, off, len(buf), size)
			}
			if err := bd.WriteAt(off, buf); err == nil {
				t.Errorf("legacy=%v: write [%d,+%d) of a %d-byte image succeeded", legacy, off, len(buf), size)
			}
		}
		if err := bd.ReadAt(size-int64(len(buf)), buf); err != nil {
			t.Errorf("legacy=%v: read of the last page failed: %v", legacy, err)
		}
	}
}
