package eval

import (
	"errors"
	"fmt"
	"strings"

	"vmsh/internal/core"
	"vmsh/internal/faults"
	"vmsh/internal/fsimage"
	"vmsh/internal/hostsim"
	"vmsh/internal/hypervisor"
	"vmsh/internal/ledger"
	"vmsh/internal/netsim"
	"vmsh/internal/workloads"
)

// E8 is the IRIS-style single-fault sweep over the attach path
// (arXiv:2303.12817): first enumerate every host crossing a clean
// attach makes (recording pass), then re-attach once per crossing
// class with exactly that crossing faulted, asserting that the failed
// attach rolls the guest back byte-identically — RAM, vCPU registers,
// hypervisor fd table, mappings and memslots all equal the pre-attach
// snapshot — and that a subsequent clean attach still succeeds.
//
// Crossing classes whose first fault point lies after the guest has
// resumed (the "vq:*" device-service crossings: the guest library is
// already running and logs the failure into guest RAM) get the relaxed
// invariant: host-side state restored, guest kernel not panicked,
// clean re-attach works — guest RAM is legitimately different because
// the guest itself ran.

// faultVMRAM keeps the sweep's per-point VMs small: every point hashes
// all guest RAM twice.
const faultVMRAM = 64 << 20

// vmState is the guest-observable state the sweep pins: a hash of
// every memslot's RAM, each vCPU register file, and the hypervisor
// process's mapping/fd/memslot counts.
type vmState struct {
	ram   []uint64
	regs  []hostsim.Regs
	maps  int
	fds   int
	slots int
}

func snapshotVM(inst *hypervisor.Instance) vmState {
	var st vmState
	for _, s := range inst.VM.MemSlots() {
		st.ram = append(st.ram, s.Phys.Hash())
	}
	for _, v := range inst.VM.VCPUs() {
		st.regs = append(st.regs, v.GetRegs())
	}
	st.maps = len(inst.Proc.AS.Mappings())
	st.fds = len(inst.Proc.FDs())
	st.slots = len(inst.VM.MemSlots())
	return st
}

// diffState describes the first difference between two snapshots, or
// "" when they are identical. relaxed skips the RAM/register
// comparison (post-resume fault classes).
func diffState(pre, post vmState, relaxed bool) string {
	if pre.slots != post.slots {
		return fmt.Sprintf("memslots %d -> %d", pre.slots, post.slots)
	}
	if pre.maps != post.maps {
		return fmt.Sprintf("mappings %d -> %d", pre.maps, post.maps)
	}
	if pre.fds != post.fds {
		return fmt.Sprintf("fds %d -> %d", pre.fds, post.fds)
	}
	if relaxed {
		return ""
	}
	for i := range pre.ram {
		if i >= len(post.ram) || pre.ram[i] != post.ram[i] {
			return fmt.Sprintf("RAM hash of memslot %d changed", i)
		}
	}
	for i := range pre.regs {
		if i >= len(post.regs) || pre.regs[i] != post.regs[i] {
			return fmt.Sprintf("vCPU %d registers changed", i)
		}
	}
	return ""
}

// faultVM boots one sweep VM and builds a fresh tool image for it.
func faultVM(h *hostsim.Host, seed int64, name string) (*hypervisor.Instance, *hostsim.HostFile, error) {
	inst, err := hypervisor.Launch(h, hypervisor.Config{
		Kind:          hypervisor.QEMU,
		Name:          name,
		KernelVersion: "5.10",
		RootFS:        fsimage.GuestRoot(name),
		Seed:          seed,
		RAMSize:       faultVMRAM,
	})
	if err != nil {
		return nil, nil, err
	}
	m := fsimage.ToolImage()
	img := h.CreateFile(name+".img", m.Size()+64<<20, false)
	if err := fsimage.Build(hostsim.NewHostFileDevice(img), m); err != nil {
		return nil, nil, err
	}
	return inst, img, nil
}

// recordCrossings runs one clean attach with an armed-but-empty plan
// in recording mode and returns the crossing classes it made, plus the
// virtual time the run took (for the determinism row).
func recordCrossings(seed int64) ([]faults.CrossingStat, int64, error) {
	h := hostsim.NewHost()
	inst, img, err := faultVM(h, seed, "e8-rec")
	if err != nil {
		return nil, 0, err
	}
	h.SetFaultPlan(faults.NewPlan(uint64(seed)))
	h.Faults.SetRecording(true)
	sess, err := core.New(h).Attach(inst.Proc.PID, core.Options{Image: img, NoShell: true})
	if err != nil {
		return nil, 0, fmt.Errorf("recording attach: %w", err)
	}
	if err := sess.Detach(); err != nil {
		return nil, 0, fmt.Errorf("recording detach: %w", err)
	}
	return h.Faults.Stats(), int64(h.Clock.Now()), nil
}

// cleanAttachVTime replays the recording run without any plan armed —
// the injector must be invisible, so the two virtual times must match
// to the nanosecond.
func cleanAttachVTime(seed int64) (int64, error) {
	h := hostsim.NewHost()
	inst, img, err := faultVM(h, seed, "e8-rec")
	if err != nil {
		return 0, err
	}
	sess, err := core.New(h).Attach(inst.Proc.PID, core.Options{Image: img, NoShell: true})
	if err != nil {
		return 0, err
	}
	if err := sess.Detach(); err != nil {
		return 0, err
	}
	return int64(h.Clock.Now()), nil
}

// sweepResult is one single-fault point's outcome.
type sweepResult struct {
	class     faults.CrossingStat
	tolerated bool // the attach absorbed the fault and succeeded
	violation string
}

// sweepPoint boots a fresh VM, faults the first crossing of one class
// and checks the rollback invariant.
func sweepPoint(seed int64, cs faults.CrossingStat) sweepResult {
	res := sweepResult{class: cs}
	h := hostsim.NewHost()
	inst, img, err := faultVM(h, seed, "e8-pt")
	if err != nil {
		res.violation = "launch: " + err.Error()
		return res
	}
	pre := snapshotVM(inst)
	plan := faults.NewPlan(uint64(seed), faults.Rule{Op: cs.Op, Stage: cs.Stage, Nth: 1})
	sess, err := core.New(h).Attach(inst.Proc.PID, core.Options{Image: img, NoShell: true, Fault: plan})
	// Post-resume classes (from the shared crossing taxonomy) get the
	// relaxed invariant: the guest legitimately ran before the fault.
	relaxed := faults.Op(cs.Op).PostResume()
	if err == nil {
		// The attach path absorbed this fault (degraded service or an
		// ignored best-effort crossing); the session must still work.
		res.tolerated = true
		if derr := sess.Detach(); derr != nil {
			res.violation = "detach after tolerated fault: " + derr.Error()
			return res
		}
	} else {
		var ae *core.AttachError
		if !errors.As(err, &ae) {
			res.violation = fmt.Sprintf("untyped attach error %T: %v", err, err)
			return res
		}
		if ae.Stage == "" || ae.PID != inst.Proc.PID {
			res.violation = fmt.Sprintf("error missing stage/pid context: %v", ae)
			return res
		}
		post := snapshotVM(inst)
		if d := diffState(pre, post, relaxed); d != "" {
			res.violation = fmt.Sprintf("state not rolled back (%s)", d)
			return res
		}
	}
	if inst.Kernel.Panicked != nil {
		res.violation = "guest panicked: " + inst.Kernel.Panicked.Error()
		return res
	}
	// A clean attach after the faulted one must succeed: rollback left
	// no stale socket bindings, traps, memslots or page-table entries.
	h.SetFaultPlan(nil)
	m := fsimage.ToolImage()
	img2 := h.CreateFile("e8-pt-2.img", m.Size()+64<<20, false)
	if err := fsimage.Build(hostsim.NewHostFileDevice(img2), m); err != nil {
		res.violation = "rebuild image: " + err.Error()
		return res
	}
	sess2, err := core.New(h).Attach(inst.Proc.PID, core.Options{Image: img2, NoShell: true})
	if err != nil {
		res.violation = "re-attach after rollback: " + err.Error()
		return res
	}
	if err := sess2.Detach(); err != nil {
		res.violation = "detach of re-attach: " + err.Error()
	}
	return res
}

// transientPoint replays one class's first fault as transient
// (EINTR-flavoured) with the default retry policy armed; the attach
// must recover and succeed.
func transientPoint(seed int64, cs faults.CrossingStat) sweepResult {
	res := sweepResult{class: cs}
	h := hostsim.NewHost()
	inst, img, err := faultVM(h, seed, "e8-tr")
	if err != nil {
		res.violation = "launch: " + err.Error()
		return res
	}
	plan := faults.NewPlan(uint64(seed),
		faults.Rule{Op: cs.Op, Stage: cs.Stage, Nth: 1, Transient: true})
	sess, err := core.New(h).Attach(inst.Proc.PID, core.Options{
		Image: img, NoShell: true, Fault: plan, Retry: core.DefaultRetry,
	})
	if err != nil {
		res.violation = "transient fault not recovered: " + err.Error()
		return res
	}
	if err := sess.Detach(); err != nil {
		res.violation = "detach after transient recovery: " + err.Error()
		return res
	}
	if inst.Kernel.Panicked != nil {
		res.violation = "guest panicked: " + inst.Kernel.Panicked.Error()
	}
	return res
}

// netDegradation drives the standard seeded traffic mix between two
// attached guests with link and tx-queue faults armed, asserting the
// device plane degrades (frames drop, counted) instead of wedging.
func netDegradation(seed int64) (drops int64, mbps float64, err error) {
	h := hostsim.NewHost()
	h.SetFaultPlan(faults.NewPlan(uint64(seed),
		faults.Rule{Op: "net:link", Nth: 3},
		faults.Rule{Op: "vq:net", Nth: 5},
	))
	sw := netsim.New(h.Clock, h.Costs)
	sw.SetFaults(h.Faults)
	ifaces, err := netAttachPair(h, sw, netsim.LinkParams{}, false)
	if err != nil {
		return 0, 0, err
	}
	spec := workloads.StandardNetSpec(seed)
	spec.Name = "e8-faulted"
	r, err := workloads.NetTraffic(h.Clock, ifaces[0], ifaces[1], spec)
	if err != nil {
		return 0, 0, err
	}
	if h.Faults.Injected() == 0 {
		return 0, 0, fmt.Errorf("e8 net: no faults fired during traffic")
	}
	for _, p := range sw.Ports() {
		drops += p.Stats().DropsLink
	}
	return drops, r.MBps, nil
}

// RunFaultSweep regenerates E8's ledger: the crossing census, the
// armed-vs-off virtual-time determinism check, the single-fault
// rollback sweep, the transient-retry sweep and the device-degradation
// traffic run. Everything is virtual-clock driven, so the same seed
// yields identical rows. The crossings per attach are a cost; the rest
// — counts fixed by the census, must-be-zero deltas and violations,
// the degraded run's drops and goodput — are invariants. On failure
// the rows measured so far come back with the error.
func RunFaultSweep(seed int64) ([]ledger.Row, error) {
	l := ledger.Builder{Exp: "e8"}

	stats, armedVT, err := recordCrossings(seed)
	if err != nil {
		return nil, fmt.Errorf("e8: %w", err)
	}
	if len(stats) == 0 {
		return nil, fmt.Errorf("e8: recording pass saw no crossings")
	}
	cleanVT, err := cleanAttachVTime(seed)
	if err != nil {
		return nil, fmt.Errorf("e8: %w", err)
	}
	total := 0
	for _, cs := range stats {
		total += cs.Count
	}
	l.Invariant("crossing_classes", float64(len(stats)), "classes")
	l.Cost("crossings_per_attach", float64(total), "crossings")
	// Must be 0: an empty plan is invisible.
	l.Invariant("armed_plan_vtime_delta_ns", float64(armedVT-cleanVT), "ns")
	if armedVT != cleanVT {
		return l.Rows, fmt.Errorf("e8: armed-but-empty plan shifted virtual time by %dns", armedVT-cleanVT)
	}

	var violations []string
	tolerated, swept := 0, 0
	for _, cs := range stats {
		r := sweepPoint(seed, cs)
		swept++
		if r.violation != "" {
			violations = append(violations, fmt.Sprintf("%s@%s: %s", cs.Op, cs.Stage, r.violation))
		}
		if r.tolerated {
			tolerated++
		}
	}

	retried := 0
	for _, cs := range stats {
		if faults.Op(cs.Op).DevicePath() {
			continue // device degradation is not a retryable error path
		}
		r := transientPoint(seed, cs)
		retried++
		if r.violation != "" {
			violations = append(violations, fmt.Sprintf("transient %s@%s: %s", cs.Op, cs.Stage, r.violation))
		}
	}

	drops, mbps, err := netDegradation(seed)
	if err != nil {
		return l.Rows, fmt.Errorf("e8: %w", err)
	}

	l.Invariant("points_swept", float64(swept), "points")
	l.Invariant("points_tolerated", float64(tolerated), "points")
	l.Invariant("points_retried", float64(retried), "points")
	// Must be 0.
	l.Invariant("violations", float64(len(violations)), "points")
	l.Invariant("net_frames_dropped", float64(drops), "frames")
	l.Invariant("net_goodput", mbps, "MB/s")
	if len(violations) > 0 {
		return l.Rows, fmt.Errorf("e8: %d invariant violations:\n  %s",
			len(violations), strings.Join(violations, "\n  "))
	}
	return l.Rows, nil
}
