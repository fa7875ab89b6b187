package lifecycle

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"vmsh/internal/core"
	"vmsh/internal/fsimage"
	"vmsh/internal/hostsim"
	"vmsh/internal/hypervisor"
	"vmsh/internal/mem"
)

func launch(t *testing.T, h *hostsim.Host, name string, seed int64) *hypervisor.Instance {
	t.Helper()
	inst, err := hypervisor.Launch(h, hypervisor.Config{
		Kind:          hypervisor.QEMU,
		Name:          name,
		KernelVersion: "5.10",
		RootFS:        fsimage.GuestRoot(name),
		Seed:          seed,
		RAMSize:       32 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func toolImage(t *testing.T, h *hostsim.Host, name string) *hostsim.HostFile {
	t.Helper()
	m := fsimage.ToolImage()
	img := h.CreateFile(name, m.Size()+64<<20, false)
	if err := fsimage.Build(hostsim.NewHostFileDevice(img), m); err != nil {
		t.Fatal(err)
	}
	return img
}

// dirty writes a recognisable pattern into n freshly allocated guest
// pages: the workload knob every migration test turns.
func dirty(t *testing.T, inst *hypervisor.Instance, n int, tag byte) {
	t.Helper()
	gpa, err := inst.Kernel.AllocPages(n)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, n*PageSize)
	for i := range buf {
		buf[i] = tag ^ byte(i)
	}
	if err := inst.VM.GuestMem().WritePhys(gpa, buf); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotEncodeDecodeRoundTrip(t *testing.T) {
	h := hostsim.NewHost()
	inst := launch(t, h, "snap-rt", 42)
	dirty(t, inst, 4, 0x5a)

	snap, err := Take(inst, TakeOpts{Label: "rt"})
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Pages) == 0 || len(snap.RAMHashes) == 0 {
		t.Fatalf("empty snapshot: %d pages, %d hashes", len(snap.Pages), len(snap.RAMHashes))
	}

	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != "rt" || got.Config.Name != "snap-rt" || len(got.Pages) != len(snap.Pages) {
		t.Fatalf("decode mismatch: label=%q name=%q pages=%d/%d",
			got.Label, got.Config.Name, len(got.Pages), len(snap.Pages))
	}

	// Canonical encoding: re-encoding the decoded snapshot is
	// byte-identical.
	var buf2 bytes.Buffer
	if _, err := got.WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-encoded snapshot differs from original encoding")
	}
}

func TestSnapshotCorruptionDiagnosed(t *testing.T) {
	h := hostsim.NewHost()
	inst := launch(t, h, "snap-bad", 43)
	snap, err := Take(inst, TakeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}

	// A flipped byte must surface as ErrSnapshotCorrupt.
	bad := append([]byte(nil), buf.Bytes()...)
	bad[len(bad)/2] ^= 0xff
	if _, err := Read(bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("corruption not diagnosed: %v", err)
	}

	// A truncated stream too.
	if _, err := Read(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("truncation not diagnosed: %v", err)
	}

	// The wrong kind of file is a plain error, not corruption.
	if _, err := Read(strings.NewReader(`{"t":"header","magic":"nope","v":1}` + "\n")); err == nil || errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("magic mismatch should be a plain error: %v", err)
	}
	// So is a v1 snapshot: version skew, with no second reader kept.
	if _, err := Read(strings.NewReader(v1Header + "\n")); err == nil || errors.Is(err, ErrSnapshotCorrupt) ||
		!strings.Contains(err.Error(), "version skew") {
		t.Fatalf("v1 snapshot should be a plain version-skew error: %v", err)
	}
}

// TestRestoreRejectsCorruptSnapshots: snapshot contents that used to
// panic Restore or write at a wrapped offset are ErrSnapshotCorrupt.
func TestRestoreRejectsCorruptSnapshots(t *testing.T) {
	h := hostsim.NewHost()
	base, err := Take(launch(t, h, "snap-hostile", 46), TakeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Disks) == 0 {
		t.Fatal("snapshot has no disk to corrupt")
	}
	one := []byte{1}
	withPage := func(p PageRecord) func(*Snapshot) {
		return func(s *Snapshot) { s.Pages = append(append([]PageRecord(nil), s.Pages...), p) }
	}
	withSession := func(size int64, b BlockRecord) func(*Snapshot) {
		return func(s *Snapshot) {
			s.Session = &SessionState{ImageName: "hostile.img", ImageSize: size, Blocks: []BlockRecord{b}}
		}
	}
	cases := []struct {
		name   string
		mutate func(*Snapshot)
	}{
		{"session block past image size", withSession(PageSize, BlockRecord{Index: 5, Data: one})},
		{"negative session image size", withSession(-1, BlockRecord{Data: one})},
		{"page index wraps offset", withPage(PageRecord{Index: 1 << 52, Data: one})},
		{"disk block index wraps offset", func(s *Snapshot) {
			s.Disks = append([]DiskImage(nil), s.Disks...)
			d := &s.Disks[0]
			d.Blocks = append(append([]BlockRecord(nil), d.Blocks...), BlockRecord{Index: 1 << 52, Data: one})
		}},
		{"empty page payload", withPage(PageRecord{Index: 1})},
		{"page payload over PageSize", withPage(PageRecord{Index: 1, Data: make([]byte, PageSize+1)})},
		{"empty session block payload", withSession(PageSize, BlockRecord{})},
		{"negative vcpu index", func(s *Snapshot) { s.VCPUs = []VCPUState{{Index: -1}} }},
		{"hostile RAM size", func(s *Snapshot) { s.Config.RAMSize = 1 << 62 }},
		{"hostile root image size", func(s *Snapshot) { s.Config.RootImageSize = 1 << 62 }},
		{"hostile extra disk size", func(s *Snapshot) {
			s.Config.ExtraDisks = []hypervisor.DiskSpec{{GuestName: "vdb", Size: 1 << 62}}
		}},
		{"hostile vcpu count", func(s *Snapshot) { s.Config.VCPUs = 1 << 40 }},
		{"hostile session image size", withSession(1<<62, BlockRecord{Data: one})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := *base
			tc.mutate(&s)
			if _, _, err := Restore(hostsim.NewHost(), &s, RestoreOpts{}); !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("want ErrSnapshotCorrupt, got %v", err)
			}
		})
	}
}

func TestRestoreReconstructsRAM(t *testing.T) {
	h := hostsim.NewHost()
	inst := launch(t, h, "snap-restore", 44)
	dirty(t, inst, 8, 0xa1)

	snap, err := Take(inst, TakeOpts{})
	if err != nil {
		t.Fatal(err)
	}

	// Round-trip through the wire format so the restore exercises the
	// decoded form.
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	snap2, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	h2 := hostsim.NewHost()
	inst2, sess, err := Restore(h2, snap2, RestoreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if sess != nil {
		t.Fatal("no session captured, none should come back")
	}
	// Restore cross-checks hashes itself; double-check independently.
	src, dst := slotsByNum(inst), slotsByNum(inst2)
	if len(src) != len(dst) {
		t.Fatalf("slot count differs: %d != %d", len(src), len(dst))
	}
	for i := range src {
		sp, dp := src[i].Phys.Pages(), dst[i].Phys.Pages()
		if sp.Size() != dp.Size() {
			t.Fatalf("memslot %d size differs after restore", src[i].Slot)
		}
		for idx := uint64(0); idx < sp.NumPages(); idx++ {
			if !bytes.Equal(sp.Page(idx), dp.Page(idx)) {
				t.Fatalf("memslot %d page %d diverged after restore", src[i].Slot, idx)
			}
		}
	}
}

func TestSnapshotWithSessionRestoresSession(t *testing.T) {
	h := hostsim.NewHost()
	inst := launch(t, h, "snap-sess", 45)
	img := toolImage(t, h, "tools.img")
	sess, err := core.New(h).Attach(inst.Proc.PID, core.Options{Image: img})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("echo pre-snapshot"); err != nil {
		t.Fatal(err)
	}

	snap, err := Take(inst, TakeOpts{Session: sess})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Session == nil {
		t.Fatal("session state not captured")
	}

	h2 := hostsim.NewHost()
	_, sess2, err := Restore(h2, snap, RestoreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if sess2 == nil {
		t.Fatal("session not re-attached on restore")
	}
	out, err := sess2.Exec("echo post-restore")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "post-restore") {
		t.Fatalf("restored session exec: %q", out)
	}
}

func TestMigrateStopAndCopy(t *testing.T) {
	h := hostsim.NewHost()
	inst := launch(t, h, "mig-sc", 46)
	dirty(t, inst, 4, 0x11) // pre-migration state

	h2 := hostsim.NewHost()
	res, err := Migrate(inst, h2, MigrateOpts{
		PrecopyRounds: 2,
		Workload:      func(round int) { dirty(t, inst, 2, byte(round)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatalf("RAM diverged: %v", err)
	}
	if len(res.SrcHashes) == 0 || len(res.Rounds) != 2 {
		t.Fatalf("res incomplete: %d hashes, %d rounds", len(res.SrcHashes), len(res.Rounds))
	}
	for _, r := range res.Rounds {
		if r.Pages == 0 {
			t.Fatalf("round %d moved no pages despite workload", r.Round)
		}
	}
	if res.PagesPrecopy == 0 {
		t.Fatal("no pages moved pre-pause")
	}
	if res.Downtime <= 0 || res.Total < res.Downtime {
		t.Fatalf("implausible times: downtime=%v total=%v", res.Downtime, res.Total)
	}
	if res.BytesOnWire == 0 {
		t.Fatal("migration charged nothing to the link")
	}
}

func TestMigratePostCopyStreamsOnDemand(t *testing.T) {
	h := hostsim.NewHost()
	inst := launch(t, h, "mig-pc", 47)

	h2 := hostsim.NewHost()
	res, err := Migrate(inst, h2, MigrateOpts{
		PrecopyRounds: 1,
		PostCopy:      true,
		// Dirty after the precopy round so pages stay pending at cutover.
		Workload: func(round int) { dirty(t, inst, 8, 0x33) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// The workload ran before the final dirty-log read, so those pages
	// are pending, not copied.
	if res.Pending() == 0 {
		t.Fatal("post-copy migration has nothing pending")
	}
	if res.PagesCutover != 0 {
		t.Fatalf("post-copy moved %d pages under pause", res.PagesCutover)
	}

	// Touching a pending page on the destination faults it across.
	var slot uint32
	var idx uint64
	for s, set := range res.m.pending {
		for i := range set {
			slot, idx = s, i
			break
		}
		break
	}
	dp, ok := slotPhys(res.m.dst, slot)
	if !ok {
		t.Fatal("pending slot has no destination slab")
	}
	before := res.PagesFaulted
	dp.ReadAt(dp.Base+mem.GPA(idx*PageSize), make([]byte, 8))
	if res.PagesFaulted != before+1 {
		t.Fatalf("access did not fault the page across (faulted=%d)", res.PagesFaulted)
	}

	// Verify drains the rest and proves byte equality.
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.Pending() != 0 {
		t.Fatalf("%d pages still pending after Verify", res.Pending())
	}
	if res.PagesDrained == 0 {
		t.Fatal("drain moved nothing")
	}
}

func TestMigrateSessionSurvives(t *testing.T) {
	h := hostsim.NewHost()
	inst := launch(t, h, "mig-sess", 48)
	img := toolImage(t, h, "tools.img")
	sess, err := core.New(h).Attach(inst.Proc.PID, core.Options{Image: img})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("echo before-migration"); err != nil {
		t.Fatal(err)
	}

	h2 := hostsim.NewHost()
	res, err := Migrate(inst, h2, MigrateOpts{PrecopyRounds: 1, Session: sess})
	if err != nil {
		t.Fatal(err)
	}
	if res.Session == nil {
		t.Fatal("session did not survive migration")
	}
	out, err := res.Session.Exec("echo after-migration")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "after-migration") {
		t.Fatalf("migrated session exec: %q", out)
	}
	// Migrate verified hash equality at resume, before the re-attach.
	if len(res.SrcHashes) == 0 || len(res.SrcHashes) != len(res.DstHashes) {
		t.Fatalf("resume-time hashes missing: %d/%d", len(res.SrcHashes), len(res.DstHashes))
	}
	for i := range res.SrcHashes {
		if res.SrcHashes[i] != res.DstHashes[i] {
			t.Fatalf("hash %d diverged: %016x != %016x", i, res.SrcHashes[i], res.DstHashes[i])
		}
	}
	if err := res.Session.Detach(); err != nil {
		t.Fatal(err)
	}
}

func TestMigratePostCopySessionReattachesMidStream(t *testing.T) {
	h := hostsim.NewHost()
	inst := launch(t, h, "mig-pc-sess", 51)
	img := toolImage(t, h, "tools.img")
	sess, err := core.New(h).Attach(inst.Proc.PID, core.Options{Image: img})
	if err != nil {
		t.Fatal(err)
	}

	h2 := hostsim.NewHost()
	res, err := Migrate(inst, h2, MigrateOpts{
		PrecopyRounds: 1,
		PostCopy:      true,
		Session:       sess,
		Workload:      func(round int) { dirty(t, inst, 32, 0x44) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// The re-attach happened while pages were still pending: the attach
	// transaction's own RAM accesses demand-fault them across.
	if res.Session == nil {
		t.Fatal("session did not re-attach")
	}
	if res.PagesFaulted == 0 {
		t.Fatal("mid-stream re-attach faulted no pages on demand")
	}
	out, err := res.Session.Exec("echo mid-stream")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "mid-stream") {
		t.Fatalf("post-copy session exec: %q", out)
	}
	// Drain whatever the session's accesses did not pull over.
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.Pending() != 0 {
		t.Fatalf("%d pages still pending", res.Pending())
	}
}

func TestMigrateErrorIsTyped(t *testing.T) {
	h := hostsim.NewHost()
	inst := launch(t, h, "mig-err", 49)
	// A Minimal session has no image and cannot be quiesced.
	sess, err := core.New(h).Attach(inst.Proc.PID, core.Options{Minimal: true})
	if err != nil {
		t.Fatal(err)
	}
	h2 := hostsim.NewHost()
	_, err = Migrate(inst, h2, MigrateOpts{Session: sess})
	var me *MigrateError
	if !errors.As(err, &me) {
		t.Fatalf("want *MigrateError, got %T: %v", err, err)
	}
	if me.Phase != PhaseQuiesce || !errors.Is(err, ErrSessionNotQuiescable) {
		t.Fatalf("wrong classification: phase=%s err=%v", me.Phase, err)
	}
}

func TestPostCopyDowntimeBeatsStopAndCopy(t *testing.T) {
	run := func(postCopy bool) *Result {
		h := hostsim.NewHost()
		inst := launch(t, h, "mig-dt", 50)
		h2 := hostsim.NewHost()
		res, err := Migrate(inst, h2, MigrateOpts{
			PrecopyRounds: 1,
			PostCopy:      postCopy,
			// Heavy dirtying right before cutover: the post-copy
			// advantage is largest when the final set is large.
			Workload: func(round int) { dirty(t, inst, 256, 0x77) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Verify(); err != nil {
			t.Fatal(err)
		}
		return res
	}
	sc := run(false)
	pc := run(true)
	if pc.Downtime >= sc.Downtime {
		t.Fatalf("post-copy downtime %v not below stop-and-copy %v", pc.Downtime, sc.Downtime)
	}
}
