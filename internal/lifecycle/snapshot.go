// Package lifecycle implements first-class VM lifecycle operations on
// the simulated stack: whole-VM snapshot/restore and live migration
// between simulated hosts with pre-copy dirty-page rounds, a
// stop-and-copy cutoff, and a post-copy mode that streams faulted
// pages on demand.
//
// Everything rides on two properties the rest of the repo already
// guarantees: (1) a VM launched twice from the same Config (including
// Seed) boots byte-identically, so a restore/migration target can be
// relaunched and only the pages that diverged afterwards need
// transferring; and (2) PR 4's transactional attach leaves a detached
// guest byte-identical to one never attached to, so a live vmsh
// session can be quiesced, carried across, and re-attached.
package lifecycle

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"

	"vmsh/internal/core"
	"vmsh/internal/hostsim"
	"vmsh/internal/hypervisor"
	"vmsh/internal/kvm"
	"vmsh/internal/mem"
	"vmsh/internal/virtio"
)

// PageSize is the RAM page and disk block granularity of snapshots and
// migration transfers.
const PageSize = mem.PageSize

// Restore bounds. A snapshot's Config and session descriptor size what
// Restore allocates, so a snapshot exceeding these is rejected as
// corrupt before anything is launched. Each sits well above any VM the
// repository launches (512 MiB of RAM or disk, 4 vCPUs).
const (
	maxRestoreRAM   = 4 << 30 // Config.RAMSize, bytes
	maxRestoreImage = 4 << 30 // root, extra-disk and session image sizes, bytes
	maxRestoreVCPUs = 64      // Config.VCPUs
)

// TakeOpts parameterises Take.
type TakeOpts struct {
	// Label names the snapshot (diagnostics; stamped into the header).
	Label string
	// Session, when non-nil, is a live vmsh session attached to the VM.
	// Take quiesces it — detaches, which rolls the guest back to its
	// unattached byte state — and records its descriptor and overlay
	// image so Restore can re-attach an equivalent session.
	Session *core.Session
}

// Take captures inst into a Snapshot. The VM keeps running afterwards
// (snapshotting is read-only), except that a Session passed in
// TakeOpts is detached as part of quiescing. Capturing charges no
// virtual time: like recording, a snapshotted run's clock equals an
// unsnapshotted run's.
func Take(inst *hypervisor.Instance, o TakeOpts) (*Snapshot, error) {
	s := &Snapshot{
		Label:  o.Label,
		VTime:  int64(inst.Host.Clock.Now()),
		Config: inst.Cfg,
	}

	if o.Session != nil {
		img := o.Session.Image()
		if img == nil {
			return nil, fmt.Errorf("lifecycle snapshot: %w: minimal attach has no image", ErrSessionNotQuiescable)
		}
		s.Session = &SessionState{
			ImageName: img.Name,
			ImageSize: img.Size(),
			Storage:   o.Session.StorageBackend(),
			Trap:      int(o.Session.Trap()),
			Blocks:    sparseBlocks(img.Pages()),
		}
		// Quiesce before reading RAM: detach rolls the guest back to
		// its pre-attach bytes, so the captured state is attach-free.
		if err := o.Session.Detach(); err != nil {
			return nil, fmt.Errorf("lifecycle snapshot: quiescing session: %w", err)
		}
	}

	for _, v := range inst.VM.VCPUs() {
		s.VCPUs = append(s.VCPUs, VCPUState{Index: v.Index, Regs: v.GetRegs(), Sregs: v.GetSregs()})
	}

	cur, err := diskCursors(inst)
	if err != nil {
		return nil, err
	}
	s.Cursors = cur

	for _, sl := range slotsByNum(inst) {
		for _, b := range sparseBlocks(sl.Phys.Pages()) {
			s.Pages = append(s.Pages, PageRecord{Slot: sl.Slot, Index: b.Index, Data: b.Data})
		}
		s.RAMHashes = append(s.RAMHashes, sl.Phys.Hash())
	}

	for _, name := range diskNames(inst.Cfg) {
		f, err := inst.Host.OpenFile(hypervisor.ImageFileName(inst.Cfg.Name, name))
		if err != nil {
			return nil, fmt.Errorf("lifecycle snapshot: disk %s: %w", name, err)
		}
		s.Disks = append(s.Disks, DiskImage{Name: name, Size: f.Size(), Blocks: sparseBlocks(f.Pages())})
	}
	return s, nil
}

// RestoreOpts parameterises Restore.
type RestoreOpts struct {
	// SkipReattach leaves a snapshotted session un-restored: the VM
	// comes back without a vmsh session even if the snapshot holds one.
	SkipReattach bool
}

// Restore reconstructs the snapshotted VM on host h: relaunch from the
// captured Config (byte-deterministic boot), overwrite guest RAM and
// disk images with the captured bytes, restore vCPU register files and
// virtqueue cursors, and — unless SkipReattach — re-attach an
// equivalent vmsh session from the captured descriptor. The restored
// RAM is cross-checked against the snapshot's FNV-64a hashes.
//
// Restore reconstructs the guest's byte state exactly; host-side
// bookkeeping (the simulated kernel's allocator positions, PIDs)
// restarts from boot, which is indistinguishable for a guest quiesced
// at capture.
func Restore(h *hostsim.Host, s *Snapshot, o RestoreOpts) (*hypervisor.Instance, *core.Session, error) {
	if err := checkBounds(s); err != nil {
		return nil, nil, fmt.Errorf("lifecycle restore: %w", err)
	}
	inst, err := hypervisor.Launch(h, s.Config)
	if err != nil {
		return nil, nil, fmt.Errorf("lifecycle restore: relaunch: %w", err)
	}

	for _, sl := range inst.VM.MemSlots() {
		sl.Phys.Pages().Clear()
	}
	for _, pg := range s.Pages {
		p, ok := slotPhys(inst, pg.Slot)
		if !ok {
			return nil, nil, fmt.Errorf("lifecycle restore: %w: page for unknown memslot %d", ErrSnapshotCorrupt, pg.Slot)
		}
		if !putBlock(p.Pages(), pg.Index, pg.Data) {
			return nil, nil, fmt.Errorf("lifecycle restore: %w: page %d (%d bytes) outside slot %d", ErrSnapshotCorrupt, pg.Index, len(pg.Data), pg.Slot)
		}
	}

	for _, vs := range s.VCPUs {
		vcpus := inst.VM.VCPUs()
		if vs.Index < 0 || vs.Index >= len(vcpus) {
			return nil, nil, fmt.Errorf("lifecycle restore: %w: vcpu %d not present after relaunch", ErrSnapshotCorrupt, vs.Index)
		}
		vcpus[vs.Index].SetRegs(vs.Regs)
		vcpus[vs.Index].SetSregs(vs.Sregs)
	}

	if err := applyCursors(inst, s.Cursors); err != nil {
		return nil, nil, err
	}

	for _, d := range s.Disks {
		f, err := h.OpenFile(hypervisor.ImageFileName(s.Config.Name, d.Name))
		if err != nil {
			return nil, nil, fmt.Errorf("lifecycle restore: disk %s: %w", d.Name, err)
		}
		f.Pages().Clear()
		if err := putBlocks(f.Pages(), d.Blocks, "disk "+d.Name); err != nil {
			return nil, nil, fmt.Errorf("lifecycle restore: %w", err)
		}
	}

	// Cross-check: the rebuilt RAM must hash exactly as captured.
	for i, sl := range slotsByNum(inst) {
		if i < len(s.RAMHashes) && sl.Phys.Hash() != s.RAMHashes[i] {
			return nil, nil, fmt.Errorf("lifecycle restore: %w: memslot %d", ErrRAMDiverged, sl.Slot)
		}
	}

	var sess *core.Session
	if s.Session != nil && !o.SkipReattach {
		if sess, err = s.Session.reattach(h, inst.Proc.PID); err != nil {
			return nil, nil, fmt.Errorf("lifecycle restore: %w", err)
		}
	}
	return inst, sess, nil
}

// checkBounds rejects a snapshot whose sizes Restore cannot allocate
// safely: RAM, vCPU count and every image size must lie within the
// Restore bounds.
func checkBounds(s *Snapshot) error {
	c := s.Config
	if c.RAMSize > maxRestoreRAM {
		return fmt.Errorf("%w: RAM size %d", ErrSnapshotCorrupt, c.RAMSize)
	}
	if c.VCPUs < 0 || c.VCPUs > maxRestoreVCPUs {
		return fmt.Errorf("%w: %d vCPUs", ErrSnapshotCorrupt, c.VCPUs)
	}
	image := func(what string, size int64) error {
		if size < 0 || size > maxRestoreImage {
			return fmt.Errorf("%w: %s size %d", ErrSnapshotCorrupt, what, size)
		}
		return nil
	}
	err := image("root image", c.RootImageSize)
	for _, d := range c.ExtraDisks {
		err = cmp.Or(err, image("disk "+d.GuestName, d.Size))
	}
	if s.Session != nil {
		err = cmp.Or(err, image("session image", s.Session.ImageSize))
	}
	return err
}

// reattach materialises the quiesced session's overlay image on h and
// attaches an equivalent vmsh session to the VM process pid.
func (st *SessionState) reattach(h *hostsim.Host, pid int) (*core.Session, error) {
	img := h.CreateFile(st.ImageName, st.ImageSize, false)
	if err := putBlocks(img.Pages(), st.Blocks, "session image"); err != nil {
		return nil, err
	}
	sess, err := core.New(h).Attach(pid, core.Options{
		Image:   img,
		Trap:    core.TrapMode(st.Trap),
		Storage: st.Storage,
	})
	if err != nil {
		return nil, fmt.Errorf("re-attach: %w", err)
	}
	return sess, nil
}

// --- shared helpers (snapshot + migration) -------------------------

// diskNames lists a config's hypervisor-owned disks in creation order.
func diskNames(cfg hypervisor.Config) []string {
	var names []string
	if cfg.RootFS != nil {
		names = append(names, "vda")
	}
	for _, d := range cfg.ExtraDisks {
		names = append(names, d.GuestName)
	}
	return names
}

// diskCursors collects both queue ends' Go-side cursors per disk.
func diskCursors(inst *hypervisor.Instance) ([]DiskCursors, error) {
	names := diskNames(inst.Cfg)
	var out []DiskCursors
	for i, name := range names {
		bd, ok := inst.Kernel.BlockDevByName(name)
		if !ok {
			return nil, fmt.Errorf("lifecycle: guest driver for %s not registered", name)
		}
		drv, ok := bd.(*virtio.BlkDriver)
		if !ok {
			return nil, fmt.Errorf("lifecycle: %s is not a virtio-blk driver", name)
		}
		if i >= len(inst.BlkDevs) {
			return nil, fmt.Errorf("lifecycle: no hypervisor device for %s", name)
		}
		dq := inst.BlkDevs[i].Dev.DeviceQueue(0)
		out = append(out, DiskCursors{Disk: name, Drv: drv.Queue().Cursors(), Dev: dq.Cursors()})
	}
	return out, nil
}

// applyCursors restores both queue ends' cursors per disk.
func applyCursors(inst *hypervisor.Instance, cur []DiskCursors) error {
	for _, c := range cur {
		bd, ok := inst.Kernel.BlockDevByName(c.Disk)
		if !ok {
			return fmt.Errorf("lifecycle: guest driver for %s not present after relaunch", c.Disk)
		}
		drv, ok := bd.(*virtio.BlkDriver)
		if !ok {
			return fmt.Errorf("lifecycle: %s is not a virtio-blk driver", c.Disk)
		}
		drv.Queue().SetCursors(c.Drv)
		idx := -1
		for i, name := range diskNames(inst.Cfg) {
			if name == c.Disk {
				idx = i
			}
		}
		if idx < 0 || idx >= len(inst.BlkDevs) {
			return fmt.Errorf("lifecycle: no hypervisor device for %s", c.Disk)
		}
		inst.BlkDevs[idx].Dev.DeviceQueue(0).SetCursors(c.Dev)
	}
	return nil
}

// slotsByNum snapshots the memslot list sorted by slot number, so
// hash order is stable regardless of registration order.
func slotsByNum(inst *hypervisor.Instance) []*kvm.MemSlot {
	out := inst.VM.MemSlots()
	slices.SortFunc(out, func(a, b *kvm.MemSlot) int { return cmp.Compare(a.Slot, b.Slot) })
	return out
}

// slotPhys finds the slab behind memslot slot of inst.
func slotPhys(inst *hypervisor.Instance, slot uint32) (*mem.Phys, bool) {
	for _, s := range inst.VM.MemSlots() {
		if s.Slot == slot {
			return s.Phys, true
		}
	}
	return nil, false
}

// diffPages copies every PageSize page of src that differs from dst
// into dst, reporting how many pages it compared and how many moved.
// what names the pair in the error for a size mismatch.
func diffPages(what string, dst, src *mem.Pages) (scanned, moved int, err error) {
	if src.Size() != dst.Size() {
		return 0, 0, fmt.Errorf("%s size differs (%d != %d)", what, src.Size(), dst.Size())
	}
	for idx := uint64(0); idx < src.NumPages(); idx++ {
		scanned++
		if b := src.Page(idx); !bytes.Equal(b, dst.Page(idx)) {
			dst.SetPage(idx, b)
			moved++
		}
	}
	return scanned, moved, nil
}

// copyPage copies page idx of src into dst, clipped to src's end, and
// returns the bytes copied: 0 for a page past the end of src.
func copyPage(dst, src *mem.Pages, idx uint64) int {
	off := idx * PageSize
	if off >= src.Size() {
		return 0
	}
	dst.SetPage(idx, src.Page(idx))
	return int(min(PageSize, src.Size()-off))
}

// sparseBlocks captures the non-zero PageSize blocks of p.
func sparseBlocks(p *mem.Pages) []BlockRecord {
	var out []BlockRecord
	for idx := uint64(0); idx < p.NumPages(); idx++ {
		if b := p.Page(idx); b != nil {
			out = append(out, BlockRecord{Index: idx, Data: append([]byte(nil), b...)})
		}
	}
	return out
}

// putBlocks applies sparse blocks to dst with putBlock, failing with
// ErrSnapshotCorrupt at the first one that does not fit; what names
// dst in the error.
func putBlocks(dst *mem.Pages, blocks []BlockRecord, what string) error {
	for _, b := range blocks {
		if !putBlock(dst, b.Index, b.Data) {
			return fmt.Errorf("%w: block %d (%d bytes) outside %s", ErrSnapshotCorrupt, b.Index, len(b.Data), what)
		}
	}
	return nil
}

// putBlock copies one sparse unit into dst at PageSize unit idx. It
// reports false, copying nothing, when data is empty, longer than a
// unit, or does not fit inside dst — idx is bounded before it is
// scaled, so a huge index cannot wrap to an in-range offset.
func putBlock(dst *mem.Pages, idx uint64, data []byte) bool {
	if len(data) == 0 || len(data) > PageSize || idx > dst.Size()/PageSize {
		return false
	}
	off := idx * PageSize
	if off+uint64(len(data)) > dst.Size() {
		return false
	}
	dst.WriteAt(data, off)
	return true
}
