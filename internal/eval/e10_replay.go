package eval

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"vmsh/internal/core"
	"vmsh/internal/hostsim"
	"vmsh/internal/ledger"
	"vmsh/internal/netsim"
	"vmsh/internal/replay"
	"vmsh/internal/workloads"
)

// E10 pins the record/replay plane's central claim: a recorded
// attach+blk+net session replays from its log alone — no live guest —
// to bit-identical virtual time, RAM hashes and per-device metrics,
// and a live re-run verifies against the log crossing by crossing.
// The negative legs assert that damage is diagnosed, not crashed on:
// a corrupted log file decodes to a divergence report, and a
// semantically mutated log diverges with the expected/actual ops
// named.

// memSink is an in-memory recording destination (the sweep never
// touches the real filesystem).
type memSink struct{ bytes.Buffer }

func (m *memSink) Close() error { return nil }

// e10Wire builds the record/verify wiring for one scenario run once
// the host (and so the clock) exists. Returning all nils runs the
// scenario bare.
type e10Wire func(h *hostsim.Host) (*replay.Recorder, func() (io.WriteCloser, error), *replay.Verifier)

// e10Scenario is the session being recorded: two VMs on a switch, a
// full attach (shell, blk, net) on A and a minimal net attach on B,
// console exec traffic, the standard seeded net mix, then detach —
// exercising every crossing class the taxonomy has. It returns the
// final virtual time and the session's end state for cross-checking.
func e10Scenario(seed int64, store string, wire e10Wire) (int64, []uint64, map[string]int64, error) {
	h := hostsim.NewHost()
	rec, sink, ver := wire(h)
	sw := netsim.New(h.Clock, h.Costs)

	instA, imgA, err := faultVM(h, seed, "e10-a")
	if err != nil {
		return 0, nil, nil, err
	}
	instB, imgB, err := faultVM(h, seed+1, "e10-b")
	if err != nil {
		return 0, nil, nil, err
	}

	sessA, err := core.New(h).Attach(instA.Proc.PID, core.Options{
		Image: imgA, Net: sw, Storage: store,
		Record: rec, RecordSink: sink, Verify: ver,
	})
	if err != nil {
		return 0, nil, nil, fmt.Errorf("attach A: %w", err)
	}
	sessB, err := core.New(h).Attach(instB.Proc.PID, core.Options{
		Image: imgB, Minimal: true, Net: sw,
	})
	if err != nil {
		return 0, nil, nil, fmt.Errorf("attach B: %w", err)
	}

	// Block-device + console traffic through the recorded session.
	for _, cmd := range []string{
		"ls /var/lib/vmsh",
		"cat /var/lib/vmsh/etc/hostname",
	} {
		if _, err := sessA.Exec(cmd); err != nil {
			return 0, nil, nil, fmt.Errorf("exec %q: %w", cmd, err)
		}
	}

	// Network traffic between the two guests.
	ifA, ok := instA.Kernel.IfaceByName("vmsh0")
	if !ok {
		return 0, nil, nil, fmt.Errorf("guest A: vmsh0 not registered")
	}
	ifB, ok := instB.Kernel.IfaceByName("vmsh0")
	if !ok {
		return 0, nil, nil, fmt.Errorf("guest B: vmsh0 not registered")
	}
	spec := workloads.StandardNetSpec(seed)
	spec.Name = "e10"
	if _, err := workloads.NetTraffic(h.Clock, ifA, ifB, spec); err != nil {
		return 0, nil, nil, fmt.Errorf("net traffic: %w", err)
	}

	// B first, then A: A's detach seals the recording's footer.
	if err := sessB.Detach(); err != nil {
		return 0, nil, nil, fmt.Errorf("detach B: %w", err)
	}
	if err := sessA.Detach(); err != nil {
		return 0, nil, nil, fmt.Errorf("detach A: %w", err)
	}
	return int64(h.Clock.Now()), sessA.RAMHashes(), sessA.Metrics(), nil
}

// diffMaps reports how many keys differ between two metric snapshots.
func diffMaps(a, b map[string]int64) int {
	n := 0
	for k, v := range a {
		if b[k] != v {
			n++
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			n++
		}
	}
	return n
}

// RunRecordReplay regenerates E10's ledger: record a full session,
// replay it from the log alone, verify a live re-run against it, and
// diagnose two kinds of log damage. The crossings recorded and
// verified are costs; everything else — the census, the must-be-zero deltas and
// mismatches, the diagnosis flags — is an invariant. On failure the
// rows come back with the error.
func RunRecordReplay(seed int64) ([]ledger.Row, error) {
	l := ledger.Builder{Exp: "e10"}

	// Leg 0: the recorded run.
	var sink memSink
	var rec *replay.Recorder
	liveVT, liveRAM, liveMetrics, err := e10Scenario(seed, "",
		func(h *hostsim.Host) (*replay.Recorder, func() (io.WriteCloser, error), *replay.Verifier) {
			rec = replay.NewRecorder(h.Clock, "e10", uint64(seed))
			return rec, func() (io.WriteCloser, error) { return &sink, nil }, nil
		})
	if err != nil {
		return nil, fmt.Errorf("e10 record: %w", err)
	}
	logBytes := append([]byte(nil), sink.Bytes()...)

	// Recording must be free: the same scenario without the recorder
	// must reach the identical virtual time.
	bareVT, _, _, err := e10Scenario(seed, "",
		func(*hostsim.Host) (*replay.Recorder, func() (io.WriteCloser, error), *replay.Verifier) {
			return nil, nil, nil
		})
	if err != nil {
		return nil, fmt.Errorf("e10 bare: %w", err)
	}

	lg, err := replay.Read(bytes.NewReader(logBytes))
	if err != nil {
		return nil, fmt.Errorf("e10: decoding own recording: %w", err)
	}

	// Leg a: log-driven replay — no live guest.
	res, err := replay.Run(lg)
	if err != nil {
		return nil, fmt.Errorf("e10 replay: %w", err)
	}
	ramDiffs := 0
	if len(res.RAM) != len(liveRAM) {
		ramDiffs = len(liveRAM) + 1
	} else {
		for i := range liveRAM {
			if res.RAM[i] != liveRAM[i] {
				ramDiffs++
			}
		}
	}
	metricDiffs := diffMaps(res.Metrics, liveMetrics)

	// Leg b: live re-run verified against the log, crossing by
	// crossing.
	var ver *replay.Verifier
	verifyVT, _, _, err := e10Scenario(seed, "",
		func(h *hostsim.Host) (*replay.Recorder, func() (io.WriteCloser, error), *replay.Verifier) {
			ver = replay.NewVerifier(lg, h.Clock)
			return nil, nil, ver
		})
	if err != nil {
		return nil, fmt.Errorf("e10 verify: %w", err)
	}
	verDiv := ver.Result()

	// Leg c: byte corruption must decode to a divergence report, never
	// a panic or a silent success.
	corrupt := append([]byte(nil), logBytes...)
	corrupt[len(corrupt)/2] ^= 0xff
	var corruptDiv *replay.Divergence
	_, cerr := replay.Read(bytes.NewReader(corrupt))
	corruptDetected := errors.As(cerr, &corruptDiv)

	// Leg d: a semantically mutated log (one crossing's op rewritten,
	// sequence numbers repaired so the file itself stays well-formed)
	// must diverge against the original with both ops named.
	mutated, err := replay.Read(bytes.NewReader(logBytes))
	if err != nil {
		return nil, fmt.Errorf("e10: re-decoding recording: %w", err)
	}
	mi := len(mutated.Records) / 3
	origOp := mutated.Records[mi].Op
	newOp := "bpf:kprobe"
	if origOp == newOp {
		newOp = "procfs:fdinfo"
	}
	mutated.Records[mi].Op = newOp
	mutated.Renumber()
	var reenc bytes.Buffer
	if err := mutated.Encode(&reenc); err != nil {
		return nil, fmt.Errorf("e10: re-encoding mutated log: %w", err)
	}
	mutated2, err := replay.Read(&reenc)
	if err != nil {
		return nil, fmt.Errorf("e10: mutated log must stay well-formed: %w", err)
	}
	semDiv := replay.VerifyLogs(mutated2, lg)

	l.Cost("crossings_recorded", float64(len(lg.Records)), "crossings")
	l.Invariant("crossing_classes", float64(len(res.PerOp)), "classes")
	// Each delta and mismatch count must be 0: recording is invisible,
	// and replay and a verified re-run are bit-identical to the live
	// run.
	l.Invariant("record_vtime_delta_ns", float64(liveVT-bareVT), "ns")
	l.Invariant("replay_vtime_delta_ns", float64(int64(res.VTime)-liveVT), "ns")
	l.Invariant("replay_ram_mismatches", float64(ramDiffs), "slots")
	l.Invariant("replay_metric_mismatches", float64(metricDiffs), "keys")
	l.Invariant("verify_vtime_delta_ns", float64(verifyVT-liveVT), "ns")
	l.Cost("crossings_verified", float64(ver.Matched()), "crossings")
	// A damaged log yields a divergence report, not a panic.
	l.Invariant("corrupt_log_diagnosed", corruptDetected, "bool")
	l.Invariant("mutated_op_diagnosed", semDiv != nil, "bool")

	if liveVT != bareVT {
		return l.Rows, fmt.Errorf("e10: recording shifted virtual time by %dns", liveVT-bareVT)
	}
	if int64(res.VTime) != liveVT {
		return l.Rows, fmt.Errorf("e10: replayed vtime %dns != live %dns", int64(res.VTime), liveVT)
	}
	if ramDiffs != 0 {
		return l.Rows, fmt.Errorf("e10: %d RAM hash mismatches between replay and live run", ramDiffs)
	}
	if metricDiffs != 0 {
		return l.Rows, fmt.Errorf("e10: %d metric mismatches between replay and live run", metricDiffs)
	}
	if verDiv != nil {
		return l.Rows, fmt.Errorf("e10: live re-run diverged from recording: %v", verDiv)
	}
	if verifyVT != liveVT {
		return l.Rows, fmt.Errorf("e10: verified re-run vtime %dns != recorded %dns", verifyVT, liveVT)
	}
	if ver.Matched() != len(lg.Records) {
		return l.Rows, fmt.Errorf("e10: verifier matched %d of %d crossings", ver.Matched(), len(lg.Records))
	}
	if !corruptDetected {
		return l.Rows, fmt.Errorf("e10: corrupted log not diagnosed as a divergence (got %v)", cerr)
	}
	if semDiv == nil {
		return l.Rows, fmt.Errorf("e10: mutated log verified clean against the original")
	}
	if semDiv.ExpectedOp != newOp || semDiv.ActualOp != origOp {
		return l.Rows, fmt.Errorf("e10: divergence names ops %q/%q, want %q/%q",
			semDiv.ExpectedOp, semDiv.ActualOp, newOp, origOp)
	}
	return l.Rows, nil
}
