package lifecycle

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"vmsh/internal/core"
	"vmsh/internal/faults"
	"vmsh/internal/hostsim"
	"vmsh/internal/hypervisor"
	"vmsh/internal/mem"
	"vmsh/internal/netsim"
)

// MigrateOpts parameterises Migrate.
type MigrateOpts struct {
	// PrecopyRounds is how many dirty-page rounds run before the
	// cutover (after the initial full synchronisation). Zero means cut
	// over immediately after the first sync.
	PrecopyRounds int
	// PostCopy switches the cutover to post-copy: the destination
	// resumes with only minimal state and still-dirty pages stream on
	// demand when accessed (and in bulk via Result.Drain).
	PostCopy bool
	// Link models the migration link; zero values fall back to the
	// cost-model defaults (NetLinkBW / NetLinkLat).
	Link netsim.LinkParams
	// Session, when non-nil, is a live vmsh session on the source VM.
	// Migrate detaches it at cutover (the rollback's writes are
	// dirty-tracked, so they transfer like any other guest stores) and
	// re-attaches an equivalent session on the destination after
	// resume. Result.Session carries the new session.
	Session *core.Session
	// Workload, when non-nil, models guest activity during migration
	// (the dirty-rate knob of the E11 sweep). It is invoked once per
	// pre-copy round (round = 1..PrecopyRounds) and once more just
	// before the pause (round = PrecopyRounds+1): the guest keeps
	// running between the final round and the cutover, which is
	// exactly why a final dirty set exists for stop-and-copy to drain
	// under pause — or post-copy to stream after resume.
	Workload func(round int)
}

// RoundStat records one pre-copy round.
type RoundStat struct {
	Round int `json:"round"`
	Pages int `json:"pages"`
}

// Result is a completed (or, in post-copy mode, cut-over) migration.
type Result struct {
	// Dst is the destination instance; it is live from the resume
	// phase on.
	Dst *hypervisor.Instance
	// Session is the re-attached vmsh session on the destination, nil
	// unless MigrateOpts.Session carried one across.
	Session *core.Session

	// Downtime is how long the guest was paused, measured on the
	// destination clock (pause at cutover to resume).
	Downtime time.Duration
	// Total is the destination-clock time the whole migration took.
	Total time.Duration

	// PagesPrecopy counts pages moved while the source ran (initial
	// sync + pre-copy rounds); PagesCutover counts pages moved under
	// pause (stop-and-copy mode); PagesFaulted/PagesDrained count
	// post-copy pages streamed on demand vs drained in bulk.
	PagesPrecopy int
	PagesCutover int
	PagesFaulted int
	PagesDrained int
	// BytesOnWire totals every byte charged to the migration link,
	// including page-summary exchanges and disk blocks.
	BytesOnWire int64
	// Rounds records the per-round dirty page counts.
	Rounds []RoundStat

	// SrcHashes/DstHashes are the per-memslot FNV-64a hashes computed
	// by Verify (nil until then).
	SrcHashes, DstHashes []uint64

	m *migration
}

// migration is the in-flight state shared by phases and the pager.
type migration struct {
	src, dst *hypervisor.Instance
	link     netsim.LinkParams
	res      *Result

	// pending maps slot -> page index -> true for post-copy pages not
	// yet on the destination; armed remembers which destination slabs
	// carry the demand pager's access hook.
	pending map[uint32]map[uint64]bool
	armed   []*mem.Phys
}

// Migrate moves a running VM from its current host to dstHost over a
// modelled migration link. Phases (each failure surfaces as a typed
// *MigrateError naming it):
//
//	prepare       launch the destination twin (same Config, same Seed:
//	              byte-identical boot) and synchronise every page and
//	              disk block that already diverged. Runs before the
//	              pause, so boot time never counts as downtime.
//	precopy       dirty-page rounds: the source keeps running (opts.
//	              Workload models its activity) while each round moves
//	              the pages dirtied since the last one.
//	quiesce       pause; detach the carried session (its rollback
//	              stores are dirty-tracked like all guest writes).
//	stop_and_copy move the final dirty set under pause — or —
//	postcopy      move only register files, queue cursors and disk
//	              deltas; remaining pages stream on demand through an
//	              access hook on the destination RAM.
//	resume        downtime ends; re-attach the carried session on the
//	              destination (post-copy faults begin here).
//
// Page transfers are charged to both hosts' virtual clocks at the
// link's serialisation + propagation cost, with a page-summary
// exchange (8 bytes/page scanned) per synchronisation round — the
// rsync-style "compare then ship differences" protocol the
// deterministic twin boot makes possible.
func Migrate(src *hypervisor.Instance, dstHost *hostsim.Host, o MigrateOpts) (*Result, error) {
	m := &migration{src: src, link: o.Link, res: &Result{}}
	m.res.m = m
	srcHost := src.Host
	fail := func(phase string, err error) (*Result, error) {
		return nil, &MigrateError{Phase: phase, VM: src.Cfg.Name, Err: err}
	}
	tr := dstHost.Trace.Track("migrate:" + src.Cfg.Name)
	spTotal := tr.Span("migrate", "total")
	t0 := dstHost.Clock.Now()

	// --- prepare ---------------------------------------------------
	sp := tr.Span("migrate", "prepare")
	src.VM.StartDirtyTracking()
	dst, err := hypervisor.Launch(dstHost, src.Cfg)
	if err != nil {
		src.VM.StopDirtyTracking()
		return fail(PhasePrepare, err)
	}
	m.dst = dst
	m.res.Dst = dst
	n, err := m.syncDivergent()
	if err != nil {
		return fail(PhasePrepare, err)
	}
	m.res.PagesPrecopy += n
	if err := m.syncDisks(); err != nil {
		return fail(PhasePrepare, err)
	}
	// Divergence synced above may predate dirty tracking; drop the
	// log so pre-copy rounds only see stores made from here on.
	src.VM.DirtyLog(true)
	sp.End1("pages", int64(n))

	// --- precopy ---------------------------------------------------
	for round := 1; round <= o.PrecopyRounds; round++ {
		sp := tr.Span("migrate", "precopy")
		if o.Workload != nil {
			o.Workload(round)
		}
		moved := m.syncDirty()
		m.res.PagesPrecopy += moved
		m.res.Rounds = append(m.res.Rounds, RoundStat{Round: round, Pages: moved})
		sp.End1("pages", int64(moved))
	}

	// The guest runs on until the pause lands: one more workload beat
	// between the final pre-copy round and the cutover.
	if o.Workload != nil {
		o.Workload(o.PrecopyRounds + 1)
	}

	// --- quiesce: pause + detach -----------------------------------
	pauseStart := dstHost.Clock.Now()
	var sessState *SessionState
	if o.Session != nil {
		img := o.Session.Image()
		if img == nil {
			return fail(PhaseQuiesce, ErrSessionNotQuiescable)
		}
		sessState = &SessionState{
			ImageName: img.Name, ImageSize: img.Size(),
			Storage: o.Session.StorageBackend(), Trap: int(o.Session.Trap()),
		}
		// Detach rolls the source guest back byte-identically; every
		// store the rollback makes lands in the dirty log and moves
		// with the final set.
		if err := o.Session.Detach(); err != nil {
			return fail(PhaseQuiesce, err)
		}
		// The image content is read at cutover, after any final
		// overlay writes were flushed by the detach.
		sessState.Blocks = sparseBlocks(img.Pages())
	}

	// --- cutover: stop_and_copy | postcopy --------------------------
	cutPhase := PhaseStopAndCopy
	if o.PostCopy {
		cutPhase = PhasePostCopy
	}
	sp = tr.Span("migrate", cutPhase)
	if o.PostCopy {
		// Final dirty set becomes the pending set; only its summary
		// crosses the link under pause.
		m.pending = map[uint32]map[uint64]bool{}
		total := 0
		for slot, idxs := range m.src.VM.DirtyLog(true) {
			if _, ok := slotPhys(m.dst, slot); !ok {
				continue
			}
			set := make(map[uint64]bool, len(idxs))
			for _, i := range idxs {
				set[i] = true
			}
			m.pending[slot] = set
			total += len(idxs)
		}
		m.charge(total * 8) // pending-page summary
		m.armPager()
	} else {
		m.res.PagesCutover = m.syncDirty()
	}
	src.VM.StopDirtyTracking()
	if err := m.syncDisks(); err != nil {
		return fail(cutPhase, err)
	}
	for i, v := range src.VM.VCPUs() {
		dv := dst.VM.VCPUs()
		if i < len(dv) {
			dv[i].SetRegs(v.GetRegs())
			dv[i].SetSregs(v.GetSregs())
		}
	}
	cur, err := diskCursors(src)
	if err != nil {
		return fail(cutPhase, err)
	}
	if err := applyCursors(dst, cur); err != nil {
		return fail(cutPhase, err)
	}
	m.charge(1024) // register files + cursors, one small message
	sp.End()

	// --- resume -----------------------------------------------------
	m.res.Downtime = time.Duration(dstHost.Clock.Now() - pauseStart)

	// Hash equality is checked here, before any session re-attach: the
	// re-attached session legitimately mutates destination RAM (page
	// tables, trampoline, then whatever the user execs), so the
	// migrated-state comparison has to land first. In post-copy mode
	// still-pending pages are compared against the bytes the (frozen)
	// source will serve for them.
	if err := m.verifyAtResume(); err != nil {
		return fail(PhaseVerify, err)
	}

	if sessState != nil {
		m.charge(len(sessState.Blocks) * (PageSize + 16))
		sess, err := sessState.reattach(dstHost, dst.Proc.PID)
		if err != nil {
			return fail(PhaseResume, err)
		}
		m.res.Session = sess
	}

	m.res.Total = time.Duration(dstHost.Clock.Now() - t0)
	spTotal.End1("downtime_us", int64(m.res.Downtime/time.Microsecond))
	_ = srcHost
	return m.res, nil
}

// Pending reports how many post-copy pages have not yet reached the
// destination.
func (r *Result) Pending() int {
	n := 0
	for _, set := range r.m.pending {
		n += len(set)
	}
	return n
}

// Drain streams every still-pending post-copy page in slot/index order
// and disarms the demand pager. A no-op after everything arrived; an
// error only for a migration that never entered post-copy mode.
func (r *Result) Drain() error {
	m := r.m
	if m.pending == nil {
		if m.armed == nil && r.PagesFaulted == 0 && r.PagesDrained == 0 {
			return ErrNoPending
		}
		return nil
	}
	for _, slot := range sortedKeys(m.pending) {
		for _, idx := range sortedKeys(m.pending[slot]) {
			m.fetchPage(slot, idx)
			r.PagesDrained++
		}
	}
	m.disarmPager()
	return nil
}

// Verify re-checks source/destination RAM equality per common memslot
// with FNV-64a. Post-copy pages still pending are drained first —
// live equality is only meaningful once every page arrived. The
// hashes land in SrcHashes/DstHashes; inequality returns a
// *MigrateError wrapping ErrRAMDiverged.
//
// Migrate already performed this comparison once, at resume and
// before any session re-attach. When a re-attached session is live
// (Result.Session non-nil) the destination has legitimately moved on
// — page tables, trampoline, exec traffic — so Verify drains any
// post-copy remainder and stands on the resume-time comparison
// instead of re-hashing.
func (r *Result) Verify() error {
	if r.m.pending != nil {
		if err := r.Drain(); err != nil && err != ErrNoPending {
			return err
		}
	}
	if r.Session != nil {
		return nil
	}
	r.SrcHashes, r.DstHashes = nil, nil
	for _, sl := range slotsByNum(r.m.src) {
		dp, ok := slotPhys(r.m.dst, sl.Slot)
		if !ok {
			continue
		}
		sh, dh := sl.Phys.Hash(), dp.Hash()
		r.SrcHashes = append(r.SrcHashes, sh)
		r.DstHashes = append(r.DstHashes, dh)
		if sh != dh {
			return &MigrateError{Phase: PhaseVerify, VM: r.m.src.Cfg.Name,
				Err: fmt.Errorf("%w: memslot %d (%016x != %016x)", ErrRAMDiverged, sl.Slot, sh, dh)}
		}
	}
	return nil
}

// verifyAtResume is Migrate's own equality check, run at resume before
// any session re-attach. Pages still pending in post-copy mode hash as
// the source bytes that will be served for them — the source is frozen
// from cutover on, so that is exactly what the wire will deliver.
func (m *migration) verifyAtResume() error {
	m.res.SrcHashes, m.res.DstHashes = nil, nil
	for _, sl := range slotsByNum(m.src) {
		dp, ok := slotPhys(m.dst, sl.Slot)
		if !ok {
			continue
		}
		sh := sl.Phys.Hash()
		dh := hashWithPending(dp, sl.Phys, m.pending[sl.Slot])
		m.res.SrcHashes = append(m.res.SrcHashes, sh)
		m.res.DstHashes = append(m.res.DstHashes, dh)
		if sh != dh {
			return fmt.Errorf("%w: memslot %d (%016x != %016x)", ErrRAMDiverged, sl.Slot, sh, dh)
		}
	}
	return nil
}

// --- internals -----------------------------------------------------

// charge prices n bytes on the migration link, advancing BOTH hosts'
// clocks (each end serialises/deserialises the stream).
func (m *migration) charge(n int) {
	if n <= 0 {
		return
	}
	m.src.Host.Clock.Advance(netsim.LinkTime(m.link, m.src.Host.Costs, n))
	m.dst.Host.Clock.Advance(netsim.LinkTime(m.link, m.dst.Host.Costs, n))
	m.res.BytesOnWire += int64(n)
}

// syncDivergent page-diffs every memslot the destination shares with
// the source (slots without a destination twin, like the vmsh library
// slot of a still-attached session, stay source-local until detach
// removes them) and ships the differing pages: the initial full
// synchronisation. The scan is priced as one page-summary exchange (8
// bytes per page compared); the differing pages ship at full size.
func (m *migration) syncDivergent() (int, error) {
	scanned, moved := 0, 0
	for _, sl := range slotsByNum(m.src) {
		dp, ok := slotPhys(m.dst, sl.Slot)
		if !ok {
			continue
		}
		n, k, err := diffPages(fmt.Sprintf("memslot %d", sl.Slot), dp.Pages(), sl.Phys.Pages())
		if err != nil {
			return 0, err
		}
		scanned, moved = scanned+n, moved+k
	}
	m.charge(scanned * 8)
	m.charge(moved * (PageSize + 16))
	return moved, nil
}

// syncDirty ships the source's current dirty set (read-and-clear) to
// the destination.
func (m *migration) syncDirty() int {
	moved := 0
	for slot, idxs := range m.src.VM.DirtyLog(true) {
		dp, ok := slotPhys(m.dst, slot)
		if !ok {
			continue
		}
		sp, ok := slotPhys(m.src, slot)
		if !ok {
			continue
		}
		for _, idx := range idxs {
			if copyPage(dp.Pages(), sp.Pages(), idx) > 0 {
				moved++
			}
		}
	}
	m.charge(moved * (PageSize + 16))
	return moved
}

// syncDisks page-diffs every hypervisor disk image and ships the
// differing blocks, priced like the page sync (one summary and one
// payload charge per disk).
func (m *migration) syncDisks() error {
	for _, name := range diskNames(m.src.Cfg) {
		sf, err := m.src.Host.OpenFile(hypervisor.ImageFileName(m.src.Cfg.Name, name))
		if err != nil {
			return fmt.Errorf("source disk %s: %w", name, err)
		}
		df, err := m.dst.Host.OpenFile(hypervisor.ImageFileName(m.src.Cfg.Name, name))
		if err != nil {
			return fmt.Errorf("destination disk %s: %w", name, err)
		}
		scanned, moved, err := diffPages("disk "+name, df.Pages(), sf.Pages())
		if err != nil {
			return err
		}
		m.charge(scanned * 8)
		m.charge(moved * (PageSize + 16))
	}
	return nil
}

// armPager installs the demand-paging access hook on every destination
// slab that has pending pages: any access — guest load/store, device
// DMA, process_vm introspection — to a not-yet-arrived page fetches it
// from the source first, paying a request/response round trip on the
// link. The hook writes straight into the slab's page store, never
// back through the slab's accessors, so it cannot recurse.
func (m *migration) armPager() {
	for slot, set := range m.pending {
		if len(set) == 0 {
			continue
		}
		dp, ok := slotPhys(m.dst, slot)
		if !ok {
			continue
		}
		slot := slot
		dp.SetAccessHook(func(gpa mem.GPA, n int) {
			base := dp.Base
			first := uint64(gpa-base) / PageSize
			last := (uint64(gpa-base) + uint64(n) - 1) / PageSize
			for p := first; p <= last; p++ {
				if m.pending[slot][p] {
					m.charge(64) // page request
					m.fetchPage(slot, p)
					m.res.PagesFaulted++
				}
			}
		})
		m.armed = append(m.armed, dp)
	}
}

// fetchPage moves one pending page from source to destination and
// removes it from the pending set. Charged as one page response.
func (m *migration) fetchPage(slot uint32, idx uint64) {
	sp, ok1 := slotPhys(m.src, slot)
	dp, ok2 := slotPhys(m.dst, slot)
	if ok1 && ok2 {
		if n := copyPage(dp.Pages(), sp.Pages(), idx); n > 0 {
			m.charge(n + 16)
		}
	}
	delete(m.pending[slot], idx)
}

// disarmPager removes the access hooks once nothing is pending.
func (m *migration) disarmPager() {
	for _, p := range m.armed {
		p.SetAccessHook(nil)
	}
	m.armed = nil
	m.pending = nil
}

// hashWithPending hashes dst page by page, substituting src's bytes
// for pages in the pending set; with nothing pending it is dst.Hash().
func hashWithPending(dst, src *mem.Phys, pending map[uint64]bool) uint64 {
	if len(pending) == 0 {
		return dst.Hash()
	}
	d := faults.NewDigest()
	for off := uint64(0); off < dst.Size(); off += PageSize {
		end := min(off+PageSize, dst.Size())
		from := dst.Pages()
		if pending[off/PageSize] && end <= src.Size() {
			from = src.Pages()
		}
		d = from.Fold(d, off, end)
	}
	return uint64(d)
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
