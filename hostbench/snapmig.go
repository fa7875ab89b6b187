package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"vmsh"
	"vmsh/internal/core"
	"vmsh/internal/lifecycle"
	"vmsh/internal/mem"
	"vmsh/internal/replay"
)

// snapshotMigrate is one client running whole lifecycle rounds on fresh
// labs: a recorded session, its replay, a snapshot round trip through
// both codecs, and a live migration. Whole-RAM scans, the
// checksum-chained codecs, dirty tracking and page transfer do the
// work.
type snapshotMigrate struct {
	cfg  config
	n    int // ops of the measured sequence run so far
	dig  *digester
	sums smSums // over the prefix
	dsum string
	ctrs map[string]float64
}

const (
	smPrefixOps = 2
	smVMMiB     = 32
	smRounds    = 2
	smName      = "sm"
)

// smSums are the program counters summed over the prefix ops.
type smSums struct {
	snapshotBytes, pagesOnWire, crossings, kvmExits float64
	precopyPages, precopyResent                     float64
}

// smDirtyRates are the pages the guest rewrites per pre-copy round.
var smDirtyRates = []int{0, 64, 256}

func newSnapshotMigrate(cfg config) workload { return &snapshotMigrate{cfg: cfg} }

func (s *snapshotMigrate) prefixOps() int               { return smPrefixOps }
func (s *snapshotMigrate) digest() string               { return s.dsum }
func (s *snapshotMigrate) counters() map[string]float64 { return s.ctrs }

// setup has no long-lived state: it warms up with one round drawn from
// a separate op stream.
func (s *snapshotMigrate) setup(r *runner) error {
	*s = snapshotMigrate{cfg: s.cfg, dig: newDigester()}
	warm := r.warmup()
	s.op(warm, -1)
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %s", warm.notes[0])
	}
	s.dig, s.sums = newDigester(), smSums{}
	return nil
}

func (s *snapshotMigrate) step(r *runner) int {
	s.op(r, int64(s.n))
	s.n++
	if s.n == smPrefixOps {
		n, c := float64(smPrefixOps), s.sums
		s.ctrs = map[string]float64{
			"lifecycle.snapshot_mib":  c.snapshotBytes / (1 << 20) / n,
			"lifecycle.pages_on_wire": c.pagesOnWire / n,
			"replay.crossings":        c.crossings / n,
			"kvm.exits_per_op":        c.kvmExits / n,
		}
		if c.precopyPages > 0 {
			s.ctrs["lifecycle.precopy_resent_ratio"] = c.precopyResent / c.precopyPages
		}
		s.dsum = s.dig.sum()
	}
	return 1
}

// memSink collects a recording in memory.
type memSink struct{ bytes.Buffer }

func (*memSink) Close() error { return nil }

func (s *snapshotMigrate) op(r *runner, id int64) {
	start := time.Now()
	h := r.tr.begin(opSpan, -1, id, 0)
	simNS, err := s.round(r, h, id)
	r.tr.end(h, err != nil)
	r.done(time.Since(start), simNS, err)
	if id >= 0 && id < smPrefixOps && err != nil {
		s.dig.add("op %d failed", id)
	}
}

// round runs one op and returns the virtual time it simulated, summed
// over every clock it advanced.
func (s *snapshotMigrate) round(r *runner, h handle, id int64) (int64, error) {
	dirty := smDirtyRates[mix(uint64(s.cfg.seed), uint64(id))%uint64(len(smDirtyRates))]
	postCopy := id%2 != 0
	prefix := id >= 0 && id < smPrefixOps
	call := func(b string, fn func() error) error { return r.call(b, h, id, 0, fn) }

	// 1. A recorded session on a fresh VM.
	lab := vmsh.NewLab()
	img, err := lab.BuildImage("tools.img", vmsh.ToolImage())
	if err != nil {
		return 0, err
	}
	var vm *vmsh.VM
	if err := call("hypervisor.launch", func() (err error) {
		vm, err = lab.LaunchVM(vmsh.WithVMName(smName), vmsh.WithMemMiB(smVMMiB),
			vmsh.WithRootFS(vmsh.GuestRoot(smName)))
		return err
	}); err != nil {
		return 0, fmt.Errorf("launch: %w", err)
	}
	exits := lab.Metrics().Counter("kvm.exits")
	var sink memSink
	rec := replay.NewRecorder(lab.Clock(), smName, uint64(id))
	var sess *vmsh.Session
	if err := call("core.attach", func() (err error) {
		sess, err = core.New(lab.Host).Attach(vm.Proc.PID, core.Options{
			Image: img, Record: rec,
			RecordSink: func() (io.WriteCloser, error) { return &sink, nil },
		})
		return err
	}); err != nil {
		return 0, fmt.Errorf("attach: %w", err)
	}
	var out string
	const cmd = "cat /var/lib/vmsh/etc/hostname"
	if err := call("core.exec", func() (err error) {
		out, err = sess.Exec(cmd)
		return err
	}); err != nil {
		return 0, fmt.Errorf("exec: %w", err)
	}
	if err := r.expectText(cmd, out, smName+"\n"); err != nil {
		return 0, err
	}
	if err := call("core.detach", sess.Detach); err != nil {
		return 0, fmt.Errorf("detach: %w", err)
	}
	live := lab.Clock().Now()

	// 2. Decode the recording and replay it from the log alone.
	var lg *replay.Log
	if err := call("replay.read", func() (err error) {
		lg, err = replay.Read(bytes.NewReader(sink.Bytes()))
		return err
	}); err != nil {
		return 0, fmt.Errorf("replay read: %w", err)
	}
	var rr *replay.RunResult
	if err := call("replay.run", func() (err error) {
		rr, err = replay.Run(lg)
		return err
	}); err != nil {
		return 0, fmt.Errorf("replay run: %w", err)
	}
	if rr.VTime != live || lg.Footer.VTime != int64(live) {
		return 0, fmt.Errorf("%w: replay ends at %v, footer %dns, live run at %v", errMismatch, rr.VTime, lg.Footer.VTime, live)
	}

	// 3. Snapshot round trip through the codec onto a fresh lab.
	var snap *vmsh.Snapshot
	if err := call("lifecycle.take", func() (err error) {
		snap, err = lab.Snapshot(vm, vmsh.WithSnapshotLabel(smName))
		return err
	}); err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	var enc bytes.Buffer
	if err := call("lifecycle.encode", func() error {
		_, err := snap.WriteTo(&enc)
		return err
	}); err != nil {
		return 0, fmt.Errorf("encode: %w", err)
	}
	var dec *vmsh.Snapshot
	if err := call("lifecycle.decode", func() (err error) {
		dec, err = lifecycle.Read(bytes.NewReader(enc.Bytes()))
		return err
	}); err != nil {
		return 0, fmt.Errorf("decode: %w", err)
	}
	restored := vmsh.NewLab()
	if err := call("lifecycle.restore", func() error {
		_, _, err := restored.Restore(dec) // cross-checks the RAM hashes
		return err
	}); err != nil {
		return 0, fmt.Errorf("restore: %w", err)
	}

	// 4. Live-migrate the source while the guest rewrites dirty pages.
	var scratch mem.GPA
	if dirty > 0 {
		if scratch, err = vm.Kernel.AllocPages(dirty); err != nil {
			return 0, fmt.Errorf("alloc dirty pages: %w", err)
		}
	}
	page := make([]byte, dirty*mem.PageSize)
	var werr error
	workload := func(round int) {
		if dirty == 0 || werr != nil {
			return
		}
		for i := range page {
			page[i] = byte(id) ^ byte(round*31+i)
		}
		werr = vm.VM.GuestMem().WritePhys(scratch, page)
	}
	opts := []vmsh.MigrateOption{vmsh.WithPrecopyRounds(smRounds), vmsh.WithMigrateWorkload(workload)}
	if postCopy {
		opts = append(opts, vmsh.WithPostCopy())
	}
	dst := vmsh.NewLab()
	var res *vmsh.MigrateResult
	if err := call("lifecycle.migrate", func() (err error) {
		res, err = lab.Migrate(vm, dst, opts...)
		if err == nil {
			err = werr
		}
		return err
	}); err != nil {
		return 0, fmt.Errorf("migrate: %w", err)
	}

	// 5. Verify: drain any post-copy remainder and compare RAM hashes.
	if err := call("lifecycle.verify", func() error {
		if err := res.Verify(); err != nil {
			return err
		}
		if len(res.SrcHashes) == 0 || !equalU64(res.SrcHashes, res.DstHashes) {
			return errors.New("source and destination RAM hashes differ")
		}
		return nil
	}); err != nil {
		return 0, fmt.Errorf("verify: %w", err)
	}

	if prefix {
		wire := res.PagesPrecopy + res.PagesCutover + res.PagesFaulted + res.PagesDrained
		// The guest rewrites the same pages every round, so each page a
		// later pre-copy round sends was already sent by the round
		// before it.
		resent := 0
		for i := 1; i < len(res.Rounds); i++ {
			resent += min(res.Rounds[i].Pages, res.Rounds[i-1].Pages)
		}
		c := &s.sums
		c.snapshotBytes += float64(enc.Len())
		c.pagesOnWire += float64(wire)
		c.crossings += float64(len(lg.Records))
		c.kvmExits += float64(exits.Value())
		c.precopyPages += float64(res.PagesPrecopy)
		c.precopyResent += float64(resent)
		s.dig.add("op %d live %d crossings %d snap %d bytes ram %x restored %d", id, live,
			len(lg.Records), enc.Len(), snap.RAMHashes, restored.Clock().Now())
		s.dig.add("migrate down %d total %d pages %d/%d/%d/%d wire %d hashes %x", res.Downtime, res.Total,
			res.PagesPrecopy, res.PagesCutover, res.PagesFaulted, res.PagesDrained, res.BytesOnWire, res.SrcHashes)
	}
	sim := lab.Clock().Now() + restored.Clock().Now() + dst.Clock().Now() + rr.VTime
	return int64(sim), nil
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
