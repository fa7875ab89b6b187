package eval

import (
	"bytes"
	"fmt"
	"io"

	"vmsh/internal/core"
	"vmsh/internal/fsimage"
	"vmsh/internal/hostsim"
	"vmsh/internal/hypervisor"
	"vmsh/internal/ledger"
	"vmsh/internal/lifecycle"
	"vmsh/internal/mem"
	"vmsh/internal/replay"
)

// E11 pins the lifecycle plane: live migration moves a VM between
// simulated hosts byte-for-byte (FNV-64a RAM equality in every mode),
// post-copy trades downtime for demand faults (strictly less downtime
// than stop-and-copy at the highest dirty rate), a vmsh session
// carried across re-attaches and keeps working, and a session
// recorded against the source live-verifies crossing by crossing
// against the destination through the rebased verifier.

// MigrationLeg is one migration of the E11 sweep, fully deterministic
// (virtual time, page counts, wire bytes).
type MigrationLeg struct {
	Mode         string // "stop_and_copy" | "postcopy"
	DirtyPages   int    // pages dirtied per pre-copy round
	DowntimeNS   int64
	TotalNS      int64
	PagesPrecopy int
	PagesCutover int
	PagesFaulted int
	PagesDrained int
	BytesOnWire  int64
	HashesEqual  bool
}

// MigrationResult is one E11 sweep: the mode × dirty-rate legs plus
// the session-survival and record-verify legs.
type MigrationResult struct {
	Seed int64
	Legs []MigrationLeg
	// HashesEqual: every leg's source and destination RAM hashes were
	// equal.
	HashesEqual bool
	// PostCopyWins: post-copy's downtime was strictly below
	// stop-and-copy's at the highest dirty rate.
	PostCopyWins bool
	// SessionSurvived: a live vmsh session carried through a post-copy
	// migration re-attached on the destination and executed a command.
	SessionSurvived bool
	// SessionFaultedPages: pages the re-attach itself demand-faulted
	// across the wire (must be > 0: the re-attach happens mid-stream).
	SessionFaultedPages int
	// RecordVerified: a session recorded against the source verified
	// crossing by crossing against the migrated destination.
	RecordVerified  bool
	RecordCrossings int
}

// Rows is E11's ledger: the seed, the pre-copy rounds and every
// correctness flag as invariants, and each leg's downtime, total
// time, pages (all, before the pause, after it) and bytes on the wire,
// the re-attach's demand-faulted pages and the recorded session's
// crossings as costs.
func (r *MigrationResult) Rows() []ledger.Row {
	l := ledger.Builder{Exp: "e11"}
	l.Invariant("seed", float64(r.Seed), "seed")
	l.Invariant("precopy_rounds", float64(e11Rounds), "rounds")
	for _, leg := range r.Legs {
		key := fmt.Sprintf("%s/%d.", leg.Mode, leg.DirtyPages)
		// After the pause: stop-and-copy's final copy, or post-copy's
		// demand faults plus its background drain.
		cutover := leg.PagesCutover + leg.PagesFaulted + leg.PagesDrained
		l.Invariant(key+"hashes_equal", leg.HashesEqual, "bool")
		l.Cost(key+"downtime_ns", float64(leg.DowntimeNS), "ns")
		l.Cost(key+"total_ns", float64(leg.TotalNS), "ns")
		l.Cost(key+"pages_on_wire", float64(leg.PagesPrecopy+cutover), "pages")
		l.Cost(key+"pages_precopy", float64(leg.PagesPrecopy), "pages")
		l.Cost(key+"pages_cutover", float64(cutover), "pages")
		l.Cost(key+"bytes_on_wire", float64(leg.BytesOnWire), "bytes")
	}
	l.Invariant("hashes_equal", r.HashesEqual, "bool")
	l.Invariant("postcopy_beats_stop_and_copy", r.PostCopyWins, "bool")
	l.Invariant("session_survived", r.SessionSurvived, "bool")
	l.Cost("session_faulted_pages", float64(r.SessionFaultedPages), "pages")
	l.Invariant("record_verified", r.RecordVerified, "bool")
	l.Cost("record_crossings", float64(r.RecordCrossings), "crossings")
	return l.Rows
}

// e11DirtyRates is the pages-dirtied-per-round sweep; the last entry
// is the "highest dirty rate" of the downtime assertion.
var e11DirtyRates = [...]int{0, 64, 256}

const e11Rounds = 2

// e11Leg runs one migration: a fresh source VM with dirtyPages scratch
// pages, a workload rewriting all of them (new bytes every beat) once
// per pre-copy round and once more just before the pause, migrated to
// a fresh destination host.
func e11Leg(seed int64, name string, postCopy bool, dirtyPages int) (MigrationLeg, error) {
	mode := "stop_and_copy"
	if postCopy {
		mode = "postcopy"
	}
	leg := MigrationLeg{Mode: mode, DirtyPages: dirtyPages}

	h := hostsim.NewHost()
	inst, err := hypervisor.Launch(h, hypervisor.Config{
		Kind:          hypervisor.QEMU,
		Name:          name,
		KernelVersion: "5.10",
		Seed:          seed,
		RAMSize:       faultVMRAM,
	})
	if err != nil {
		return leg, err
	}

	var scratch mem.GPA
	if dirtyPages > 0 {
		scratch, err = inst.Kernel.AllocPages(dirtyPages)
		if err != nil {
			return leg, err
		}
	}
	buf := make([]byte, dirtyPages*mem.PageSize)
	workload := func(round int) {
		if dirtyPages == 0 {
			return
		}
		for i := range buf {
			buf[i] = byte(seed) ^ byte(round*31+i)
		}
		if err := inst.VM.GuestMem().WritePhys(scratch, buf); err != nil {
			panic(fmt.Sprintf("e11 workload: %v", err))
		}
	}

	res, err := lifecycle.Migrate(inst, hostsim.NewHost(), lifecycle.MigrateOpts{
		PrecopyRounds: e11Rounds,
		PostCopy:      postCopy,
		Workload:      workload,
	})
	if err != nil {
		return leg, err
	}

	leg.DowntimeNS = int64(res.Downtime)
	leg.TotalNS = int64(res.Total)
	leg.PagesPrecopy = res.PagesPrecopy
	leg.PagesCutover = res.PagesCutover
	leg.PagesFaulted = res.PagesFaulted

	// Resume-time hash equality (post-copy pending pages counted as
	// the bytes the frozen source will serve).
	leg.HashesEqual = len(res.SrcHashes) == len(res.DstHashes) && len(res.SrcHashes) > 0
	for i := range res.SrcHashes {
		if i >= len(res.DstHashes) || res.SrcHashes[i] != res.DstHashes[i] {
			leg.HashesEqual = false
		}
	}

	// Drain any post-copy remainder and re-check with the strong live
	// comparison; only then is BytesOnWire final.
	if err := res.Verify(); err != nil {
		return leg, err
	}
	leg.PagesDrained = res.PagesDrained
	leg.BytesOnWire = res.BytesOnWire
	return leg, nil
}

// e11Session carries a live session through a post-copy migration with
// a dirty workload: the re-attach on the destination must demand-fault
// pages mid-stream and the session must keep executing.
func e11Session(seed int64) (survived bool, faulted int, err error) {
	h := hostsim.NewHost()
	inst, img, err := faultVM(h, seed, "e11-sess")
	if err != nil {
		return false, 0, err
	}
	sess, err := core.New(h).Attach(inst.Proc.PID, core.Options{Image: img})
	if err != nil {
		return false, 0, err
	}
	if _, err := sess.Exec("ls /var/lib/vmsh"); err != nil {
		return false, 0, err
	}

	scratch, err := inst.Kernel.AllocPages(64)
	if err != nil {
		return false, 0, err
	}
	buf := make([]byte, 64*mem.PageSize)
	res, err := lifecycle.Migrate(inst, hostsim.NewHost(), lifecycle.MigrateOpts{
		PrecopyRounds: e11Rounds,
		PostCopy:      true,
		Session:       sess,
		Workload: func(round int) {
			for i := range buf {
				buf[i] = byte(seed) ^ byte(round*17+i)
			}
			if werr := inst.VM.GuestMem().WritePhys(scratch, buf); werr != nil {
				panic(fmt.Sprintf("e11 session workload: %v", werr))
			}
		},
	})
	if err != nil {
		return false, 0, err
	}
	if res.Session == nil {
		return false, res.PagesFaulted, fmt.Errorf("e11: no session after migration")
	}
	if _, err := res.Session.Exec("cat /var/lib/vmsh/etc/hostname"); err != nil {
		return false, res.PagesFaulted, fmt.Errorf("e11: exec on destination: %w", err)
	}
	if err := res.Drain(); err != nil {
		return true, res.PagesFaulted, err
	}
	if err := res.Session.Detach(); err != nil {
		return true, res.PagesFaulted, err
	}
	return true, res.PagesFaulted, nil
}

// e11Record records a session against the source, migrates the VM, and
// live-verifies the recording against the destination with the rebased
// verifier (the migration's cost is a constant vtime offset).
func e11Record(seed int64) (verified bool, crossings int, err error) {
	h := hostsim.NewHost()
	inst, img, err := faultVM(h, seed, "e11-rec")
	if err != nil {
		return false, 0, err
	}
	var sink memSink
	rec := replay.NewRecorder(h.Clock, "e11", uint64(seed))
	sess, err := core.New(h).Attach(inst.Proc.PID, core.Options{
		Image: img, Record: rec,
		RecordSink: func() (io.WriteCloser, error) { return &sink, nil },
	})
	if err != nil {
		return false, 0, err
	}
	cmds := []string{"ls /var/lib/vmsh", "cat /var/lib/vmsh/etc/hostname"}
	for _, c := range cmds {
		if _, err := sess.Exec(c); err != nil {
			return false, 0, err
		}
	}
	if err := sess.Detach(); err != nil {
		return false, 0, err
	}
	lg, err := replay.Read(bytes.NewReader(sink.Bytes()))
	if err != nil {
		return false, 0, err
	}

	res, err := lifecycle.Migrate(inst, hostsim.NewHost(), lifecycle.MigrateOpts{
		PrecopyRounds: 1,
	})
	if err != nil {
		return false, len(lg.Records), err
	}
	h2 := res.Dst.Host
	m := fsimage.ToolImage()
	img2 := h2.CreateFile("e11-rec.img", m.Size()+64<<20, false)
	if err := fsimage.Build(hostsim.NewHostFileDevice(img2), m); err != nil {
		return false, len(lg.Records), err
	}
	ver := replay.NewRebasedVerifier(lg, h2.Clock)
	sess2, err := core.New(h2).Attach(res.Dst.Proc.PID, core.Options{
		Image: img2, Verify: ver,
	})
	if err != nil {
		return false, len(lg.Records), err
	}
	for _, c := range cmds {
		if _, err := sess2.Exec(c); err != nil {
			return false, len(lg.Records), err
		}
	}
	if err := sess2.Detach(); err != nil {
		return false, len(lg.Records), err
	}
	ok := ver.Result() == nil && ver.Matched() == len(lg.Records)
	return ok, len(lg.Records), nil
}

// RunMigration regenerates E11: the mode × dirty-rate sweep, then the
// session-survival and record-verify legs, hard-checking every claim.
// On failure the result so far comes back with the error.
func RunMigration(seed int64) (*MigrationResult, error) {
	doc := &MigrationResult{Seed: seed, HashesEqual: true}

	byKey := map[string]MigrationLeg{}
	for _, rate := range e11DirtyRates {
		for _, pc := range []bool{false, true} {
			name := fmt.Sprintf("e11-%s-%d", map[bool]string{false: "sc", true: "pc"}[pc], rate)
			leg, err := e11Leg(seed, name, pc, rate)
			if err != nil {
				return doc, fmt.Errorf("e11 %s dirty=%d: %w", leg.Mode, rate, err)
			}
			doc.Legs = append(doc.Legs, leg)
			doc.HashesEqual = doc.HashesEqual && leg.HashesEqual
			byKey[fmt.Sprintf("%s/%d", leg.Mode, rate)] = leg
		}
	}
	peak := e11DirtyRates[len(e11DirtyRates)-1]
	sc := byKey[fmt.Sprintf("stop_and_copy/%d", peak)]
	pc := byKey[fmt.Sprintf("postcopy/%d", peak)]
	doc.PostCopyWins = pc.DowntimeNS < sc.DowntimeNS

	var err error
	doc.SessionSurvived, doc.SessionFaultedPages, err = e11Session(seed + 1)
	if err != nil {
		return doc, fmt.Errorf("e11 session leg: %w", err)
	}
	doc.RecordVerified, doc.RecordCrossings, err = e11Record(seed + 2)
	if err != nil {
		return doc, fmt.Errorf("e11 record leg: %w", err)
	}

	if !doc.HashesEqual {
		return doc, fmt.Errorf("e11: RAM hash mismatch in at least one mode")
	}
	if !doc.PostCopyWins {
		return doc, fmt.Errorf("e11: post-copy downtime %dns !< stop-and-copy %dns at %d pages/round",
			pc.DowntimeNS, sc.DowntimeNS, peak)
	}
	if !doc.SessionSurvived {
		return doc, fmt.Errorf("e11: session did not survive migration")
	}
	if doc.SessionFaultedPages == 0 {
		return doc, fmt.Errorf("e11: post-copy re-attach faulted no pages")
	}
	if !doc.RecordVerified {
		return doc, fmt.Errorf("e11: recorded session did not verify against destination")
	}
	return doc, nil
}
