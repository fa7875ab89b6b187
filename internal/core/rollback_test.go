package core

import (
	"errors"
	"testing"
	"time"

	"vmsh/internal/faults"
	"vmsh/internal/hostsim"
	"vmsh/internal/hypervisor"
)

// hvState snapshots the hypervisor-side counts the rollback must
// restore: open fds, address-space mappings, KVM memslots and the
// vCPU register files.
type hvState struct {
	fds, maps, slots int
	regs             []hostsim.Regs
}

func snapshotHV(inst *hypervisor.Instance) hvState {
	st := hvState{
		fds:   len(inst.Proc.FDs()),
		maps:  len(inst.Proc.AS.Mappings()),
		slots: len(inst.VM.MemSlots()),
	}
	for _, v := range inst.VM.VCPUs() {
		st.regs = append(st.regs, v.GetRegs())
	}
	return st
}

func (a hvState) diff(t *testing.T, b hvState, what string) {
	t.Helper()
	if a.fds != b.fds {
		t.Errorf("%s: fds %d -> %d", what, a.fds, b.fds)
	}
	if a.maps != b.maps {
		t.Errorf("%s: mappings %d -> %d", what, a.maps, b.maps)
	}
	if a.slots != b.slots {
		t.Errorf("%s: memslots %d -> %d", what, a.slots, b.slots)
	}
	for i := range a.regs {
		if a.regs[i] != b.regs[i] {
			t.Errorf("%s: vCPU %d registers changed", what, i)
		}
	}
}

// attachStages must match the stage names Attach runs through; the
// rollback sweep below forces a failure inside each one.
var attachStages = []string{
	"fd_discovery", "ptrace_interrupt", "memslot_probe", "kernel_scan",
	"build_blob", "inject_library", "setup_devices", "rip_flip",
}

// TestRollbackPerStage forces the first host crossing of every attach
// stage to fail and checks that each failure (a) surfaces as a typed
// *AttachError naming that stage, (b) restores the hypervisor's fd
// table, mappings, memslots and vCPU registers, and (c) leaves the VM
// attachable.
func TestRollbackPerStage(t *testing.T) {
	for _, stage := range attachStages {
		t.Run(stage, func(t *testing.T) {
			h, inst := launch(t, hypervisor.QEMU, "5.10")
			img := buildToolImage(t, h, "rb.img")
			pre := snapshotHV(inst)

			plan := faults.NewPlan(1, faults.Rule{Stage: stage, Nth: 1})
			sess, err := New(h).Attach(inst.Proc.PID, Options{Image: img, Fault: plan})
			if err == nil {
				// A stage with no host crossings (pure computation, e.g.
				// build_blob) cannot fault; the armed rule must then have
				// injected nothing at all.
				if n := h.Faults.Injected(); n != 0 {
					t.Fatalf("attach survived %d injected fault(s) in stage %s", n, stage)
				}
				if err := sess.Detach(); err != nil {
					t.Fatal(err)
				}
				return
			}
			var ae *AttachError
			if !errors.As(err, &ae) {
				t.Fatalf("error is %T, want *AttachError: %v", err, err)
			}
			if ae.Stage != stage {
				t.Fatalf("error names stage %q, want %q (err: %v)", ae.Stage, stage, err)
			}
			if ae.PID != inst.Proc.PID {
				t.Fatalf("error names pid %d, want %d", ae.PID, inst.Proc.PID)
			}
			if !faults.IsFault(err) {
				t.Fatalf("injected fault not visible through the chain: %v", err)
			}
			if inst.Kernel.Panicked != nil {
				t.Fatalf("guest panicked: %v", inst.Kernel.Panicked)
			}
			if inst.Proc.Traced() {
				t.Fatal("ptrace left attached after rollback")
			}
			// rip_flip faults after the guest may have run (the library
			// can execute before the failing crossing), so registers are
			// compared only for the pre-resume stages; counts always.
			post := snapshotHV(inst)
			if stage == "rip_flip" {
				post.regs, pre.regs = nil, nil
			}
			pre.diff(t, post, stage)

			// The VM must still be attachable after the rollback.
			h.SetFaultPlan(nil)
			img2 := buildToolImage(t, h, "rb2.img")
			sess, err = New(h).Attach(inst.Proc.PID, Options{Image: img2})
			if err != nil {
				t.Fatalf("re-attach after %s rollback: %v (guest log: %v)", stage, err, inst.Kernel.Log)
			}
			if _, err := sess.Exec("echo recovered"); err != nil {
				t.Fatalf("re-attached session broken: %v", err)
			}
			if err := sess.Detach(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTypedErrors pins the error taxonomy: sentinels are matchable
// with errors.Is through the *AttachError wrapper.
func TestTypedErrors(t *testing.T) {
	h, inst := launch(t, hypervisor.QEMU, "5.10")

	// Unknown pid.
	_, err := New(h).Attach(424242, Options{})
	if !errors.Is(err, ErrNoProcess) {
		t.Fatalf("want ErrNoProcess, got %v", err)
	}
	var ae *AttachError
	if !errors.As(err, &ae) || ae.PID != 424242 {
		t.Fatalf("AttachError context missing: %v", err)
	}

	// Not a hypervisor: a process with no /dev/kvm fds.
	plain := h.NewProcess("not-a-vmm", hostsim.Creds{UID: 0})
	_, err = New(h).Attach(plain.PID, Options{})
	if !errors.Is(err, ErrNotHypervisor) {
		t.Fatalf("want ErrNotHypervisor, got %v", err)
	}
	if !errors.As(err, &ae) || ae.Stage != "fd_discovery" {
		t.Fatalf("want fd_discovery stage context, got %v", err)
	}

	// Missing image.
	_, err = New(h).Attach(inst.Proc.PID, Options{})
	if !errors.Is(err, ErrNoImage) {
		t.Fatalf("want ErrNoImage, got %v", err)
	}

	// A clean attach still works on the same VM afterwards.
	sess := attach(t, h, inst, Options{})
	if err := sess.Detach(); err != nil {
		t.Fatal(err)
	}
}

// TestTransientRetry arms a transient first-crossing fault on the
// process_vm read path with the default retry policy: the attach must
// recover (retrying charges virtual time) instead of failing.
func TestTransientRetry(t *testing.T) {
	h, inst := launch(t, hypervisor.QEMU, "5.10")
	img := buildToolImage(t, h, "tr.img")
	plan := faults.NewPlan(1, faults.Rule{Op: "procvm:readv", Nth: 1, Transient: true})

	before := h.Clock.Now()
	sess, err := New(h).Attach(inst.Proc.PID, Options{Image: img, Fault: plan, Retry: DefaultRetry})
	if err != nil {
		t.Fatalf("transient fault not retried: %v", err)
	}
	if h.Faults.Injected() != 1 {
		t.Fatalf("expected exactly one injected fault, got %d", h.Faults.Injected())
	}
	if h.Clock.Now() <= before {
		t.Fatal("retry charged no virtual time")
	}
	if _, err := sess.Exec("echo retried"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Detach(); err != nil {
		t.Fatal(err)
	}

	// Without a retry policy the same plan must fail the attach.
	h2, inst2 := launch(t, hypervisor.QEMU, "5.10")
	img2 := buildToolImage(t, h2, "tr2.img")
	plan2 := faults.NewPlan(1, faults.Rule{Op: "procvm:readv", Nth: 1, Transient: true})
	if _, err := New(h2).Attach(inst2.Proc.PID, Options{Image: img2, Fault: plan2}); err == nil {
		t.Fatal("transient fault with no retry policy must fail the attach")
	} else if !faults.IsTransient(err) {
		t.Fatalf("transience lost through the error chain: %v", err)
	}
}

// TestDetachLeavesNoResidue pins satellite bug #2: a full
// attach/detach cycle restores the hypervisor's fd table, mappings and
// memslots exactly; Detach is idempotent; the VM re-attaches.
func TestDetachLeavesNoResidue(t *testing.T) {
	h, inst := launch(t, hypervisor.QEMU, "5.10")
	pre := snapshotHV(inst)
	pre.regs = nil // the guest runs during the session

	sess := attach(t, h, inst, Options{})
	if _, err := sess.Exec("echo live"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Detach(); err != nil {
		t.Fatal(err)
	}
	post := snapshotHV(inst)
	post.regs = nil
	pre.diff(t, post, "after detach")
	if inst.Proc.Traced() {
		t.Fatal("ptrace left attached after detach")
	}

	// Idempotent: a second Detach is a no-op.
	if err := sess.Detach(); err != nil {
		t.Fatalf("second Detach: %v", err)
	}

	// And the VM is attachable again.
	sess2 := attach(t, h, inst, Options{Image: buildToolImage(t, h, "again.img")})
	if _, err := sess2.Exec("echo again"); err != nil {
		t.Fatal(err)
	}
	if err := sess2.Detach(); err != nil {
		t.Fatal(err)
	}
}

// crossingLog is a tap that keeps every crossing it observes.
type crossingLog []faults.Crossing

func (l *crossingLog) Crossing(c faults.Crossing) { *l = append(*l, c) }

// TestTapWithoutPlanSharesStageAndPause arms a tap on a host with no
// fault plan. The tap must still see the attach stage names, and the
// undo crossings of the rollback Detach runs must stay invisible to it:
// stage and pause belong to the host's crossing plane, not to a plan.
func TestTapWithoutPlanSharesStageAndPause(t *testing.T) {
	h, inst := launch(t, hypervisor.QEMU, "5.10")
	img := buildToolImage(t, h, "tap.img")
	var log crossingLog
	h.Faults.SetTap(&log)
	sess := attach(t, h, inst, Options{Image: img, NoShell: true})
	attached := len(log)

	seen := map[string]bool{}
	for _, c := range log {
		seen[c.Stage] = true
	}
	for _, stage := range attachStages {
		if stage != "build_blob" && !seen[stage] { // build_blob makes no crossing
			t.Errorf("no crossing observed in stage %s", stage)
		}
	}

	if err := sess.Detach(); err != nil {
		t.Fatal(err)
	}
	// Rollback re-interrupts the guest, injects the undo syscalls and
	// drops ptrace, all with the plane paused: no ptrace crossing may
	// reach the tap after the attach returned.
	for _, c := range log[attached:] {
		if c.Op.Root() == "ptrace" {
			t.Errorf("tap observed undo crossing %s", c.Op)
		}
	}
}

// TestPlanArmedAfterAttachReachesDevices arms a plan once the session
// is live: the devices hold the host's crossing plane, not a copy of
// the plan armed at attach, so the late plan still faults them.
func TestPlanArmedAfterAttachReachesDevices(t *testing.T) {
	h, inst := launch(t, hypervisor.QEMU, "5.10")
	sess := attach(t, h, inst, Options{})
	// A latency spike: the request is delayed, not failed.
	h.SetFaultPlan(faults.NewPlan(1, faults.Rule{Op: string(faults.OpVQBlk), Nth: 1, Latency: time.Millisecond}))
	if _, err := sess.Exec("cat /var/lib/vmsh/etc/hostname"); err != nil {
		t.Fatal(err)
	}
	if h.Faults.Injected() == 0 {
		t.Fatal("a plan armed after the attach never reached the vmsh-blk device")
	}
	h.SetFaultPlan(nil)
	if err := sess.Detach(); err != nil {
		t.Fatal(err)
	}
}
