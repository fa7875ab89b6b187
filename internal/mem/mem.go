// Package mem defines the three address spaces the VMSH stack deals
// with — guest physical (GPA), guest virtual (GVA) and hypervisor/host
// virtual (HVA) — and the physical memory slabs that back them.
//
// Guest physical memory is real bytes: page tables, the kernel image,
// ksymtab sections, virtqueues and the side-loaded library all live in
// these slabs, and both the guest and (through the simulated
// process_vm_readv path) VMSH read and write the same bytes. A slab
// keeps them in a sparse page store (Pages), which also backs host
// files and RAM block stores.
package mem

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"vmsh/internal/faults"
)

// GPA is a guest physical address.
type GPA uint64

// GVA is a guest virtual address.
type GVA uint64

// HVA is a host (hypervisor process) virtual address.
type HVA uint64

// PageSize is the only page size the simulated MMU uses.
const PageSize = 4096

// PageAlign rounds v up to the next page boundary.
func PageAlign(v uint64) uint64 {
	return (v + PageSize - 1) &^ uint64(PageSize-1)
}

// Phys is a contiguous slab of guest physical memory.
type Phys struct {
	Base  GPA
	pages *Pages

	// dirty is the dirty-page log: one bit per page, set by every
	// store through WriteAt while logging is on (non-nil). KVM's dirty
	// log, which live migration polls, reads it; nil (the default)
	// costs one predicted branch per store.
	dirty []uint64
	// onAccess, when armed, observes every ReadAt and WriteAt — loads
	// and stores alike — before bytes move. The post-copy migration
	// pager uses it to fetch not-yet-streamed pages on demand; Pages
	// and hashing deliberately bypass it.
	onAccess func(gpa GPA, n int)

	// memo is the last HashRange result and the range and page-store
	// generation it was computed at.
	memo hashMemo
}

// hashMemo remembers one HashRange result.
type hashMemo struct {
	off, end, gen, sum uint64
	ok                 bool
}

// SetDirtyLog turns dirty-page logging on with an empty log, or off,
// dropping the log. Turning it on while it is on keeps the log.
func (p *Phys) SetDirtyLog(on bool) {
	switch {
	case !on:
		p.dirty = nil
	case p.dirty == nil:
		p.dirty = make([]uint64, (p.pages.NumPages()+63)/64)
	}
}

// DirtyPages returns the indices of the pages stored into since logging
// began or the log was last cleared, ascending; nil when logging is off
// or nothing is dirty. With clear set it also empties the log — the
// KVM_GET_DIRTY_LOG read-and-clear cycle.
func (p *Phys) DirtyPages(clear bool) []uint64 {
	var out []uint64
	for i, w := range p.dirty {
		for ; w != 0; w &= w - 1 {
			out = append(out, uint64(i)*64+uint64(bits.TrailingZeros64(w)))
		}
		if clear {
			p.dirty[i] = 0
		}
	}
	return out
}

// markDirty logs the pages a store of n bytes at gpa touched.
func (p *Phys) markDirty(gpa GPA, n int) {
	if p.dirty == nil || n <= 0 {
		return
	}
	off := uint64(gpa - p.Base)
	for pg := off / PageSize; pg <= (off+uint64(n)-1)/PageSize; pg++ {
		p.dirty[pg/64] |= 1 << (pg % 64)
	}
}

// SetAccessHook arms (or clears) the slab's single access observer,
// fired on every ReadAt and WriteAt before bytes move. Observers
// must not re-enter the slab through those methods (write
// through Pages instead), or they recurse.
func (p *Phys) SetAccessHook(fn func(gpa GPA, n int)) { p.onAccess = fn }

// NewPhys returns a zeroed slab of the given size at base. No page is
// materialized until a non-zero store lands in it.
func NewPhys(base GPA, size uint64) *Phys {
	return &Phys{Base: base, pages: NewPages(size)}
}

// Pages exposes the slab's page store, indexed by offset from Base.
// Accesses through it bypass the access hook and the dirty log:
// snapshot capture, restore and migration move pages this way.
func (p *Phys) Pages() *Pages { return p.pages }

// Size returns the slab length in bytes.
func (p *Phys) Size() uint64 { return p.pages.Size() }

// End returns the first GPA past the slab.
func (p *Phys) End() GPA { return p.Base + GPA(p.Size()) }

// HashRange returns the FNV-64a of the slab bytes [off, end), clipped
// to the slab. It is the one guest-RAM hash: replay footers, snapshot
// and migration checks and the E8-E11 determinism digests all compare
// it. Only materialized pages are read, and the last result is
// remembered: asked for the same range again before any store into the
// slab (WriteAt, or the page store's WriteAt, SetPage or Clear),
// HashRange returns it without reading a page. Remembering makes it a
// mutation of the slab under the single-owner rule.
func (p *Phys) HashRange(off, end uint64) uint64 {
	end = min(end, p.Size())
	off = min(off, end)
	if m := p.memo; m.ok && m.off == off && m.end == end && m.gen == p.pages.gen {
		return m.sum
	}
	sum := uint64(p.pages.Fold(faults.NewDigest(), off, end))
	p.memo = hashMemo{off: off, end: end, gen: p.pages.gen, sum: sum, ok: true}
	return sum
}

// Hash is HashRange over the whole slab.
func (p *Phys) Hash() uint64 { return p.HashRange(0, p.Size()) }

// Contains reports whether [gpa, gpa+n) lies inside the slab.
func (p *Phys) Contains(gpa GPA, n int) bool {
	if gpa < p.Base {
		return false
	}
	off := uint64(gpa - p.Base)
	return off <= p.Size() && uint64(n) <= p.Size()-off
}

// access checks [gpa, gpa+n), fires the access hook and returns the
// slab offset of gpa. It panics on out-of-range access: that is a
// simulator bug, not a guest error.
func (p *Phys) access(gpa GPA, n int) uint64 {
	if !p.Contains(gpa, n) {
		panic(fmt.Sprintf("mem: phys access [%#x,+%d) outside slab [%#x,%#x)", gpa, n, p.Base, p.End()))
	}
	if p.onAccess != nil {
		p.onAccess(gpa, n)
	}
	return uint64(gpa - p.Base)
}

// ReadAt copies bytes at gpa into buf.
func (p *Phys) ReadAt(gpa GPA, buf []byte) { p.pages.ReadAt(buf, p.access(gpa, len(buf))) }

// WriteAt copies buf into the slab at gpa.
func (p *Phys) WriteAt(gpa GPA, buf []byte) {
	p.pages.WriteAt(buf, p.access(gpa, len(buf)))
	p.markDirty(gpa, len(buf))
}

// PhysReader is the read-side view of guest physical memory. The guest
// kernel reads its own slab directly; the VMSH sideloader implements
// this interface on top of process_vm_readv through the hypervisor's
// memslot mappings, so every introspection step pays the real path.
type PhysReader interface {
	// ReadPhys fills buf from guest physical memory at gpa. It
	// returns an error (never panics) for unmapped ranges: the
	// sideloader probes speculatively.
	ReadPhys(gpa GPA, buf []byte) error
}

// PhysWriter is the write-side counterpart of PhysReader.
type PhysWriter interface {
	WritePhys(gpa GPA, buf []byte) error
}

// PhysIO is the one read-write view of guest physical memory: the
// guest's own (SlabIO, kvm's memslot view) and VMSH's over
// process_vm_readv/writev.
type PhysIO interface {
	PhysReader
	PhysWriter
	// ReadPhysVec fills every segment under a single crossing into
	// the guest. It must be byte- and error-equivalent to looping
	// ReadPhys over the segments; only the cost accounting differs.
	ReadPhysVec(vecs []Vec) error
	// WritePhysVec is the write-side counterpart of ReadPhysVec.
	WritePhysVec(vecs []Vec) error
	// Contains reports whether the view holds all of [gpa, gpa+n),
	// without a crossing and without charging for one. Devices ask
	// before allocating buffers the size guest descriptors claim.
	Contains(gpa GPA, n int) bool
	// Size is the number of bytes of guest memory the view holds.
	Size() uint64
}

// SlabIO adapts a *Phys directly to PhysIO (the guest's own view).
type SlabIO struct{ Phys *Phys }

// ReadPhys implements PhysIO.
func (s SlabIO) ReadPhys(gpa GPA, buf []byte) error {
	if !s.Phys.Contains(gpa, len(buf)) {
		return fmt.Errorf("mem: read [%#x,+%d) unmapped", gpa, len(buf))
	}
	s.Phys.ReadAt(gpa, buf)
	return nil
}

// WritePhys implements PhysIO.
func (s SlabIO) WritePhys(gpa GPA, buf []byte) error {
	if !s.Phys.Contains(gpa, len(buf)) {
		return fmt.Errorf("mem: write [%#x,+%d) unmapped", gpa, len(buf))
	}
	s.Phys.WriteAt(gpa, buf)
	return nil
}

// Contains implements PhysIO.
func (s SlabIO) Contains(gpa GPA, n int) bool { return s.Phys.Contains(gpa, n) }

// Size implements PhysIO.
func (s SlabIO) Size() uint64 { return s.Phys.Size() }

// Vec is one segment of a scatter-gather guest-physical transfer.
type Vec struct {
	GPA GPA
	Buf []byte
}

// ReadPhysVec implements PhysIO; slab access has no per-call crossing
// cost, so this is just the scalar loop.
func (s SlabIO) ReadPhysVec(vecs []Vec) error {
	for _, v := range vecs {
		if err := s.ReadPhys(v.GPA, v.Buf); err != nil {
			return err
		}
	}
	return nil
}

// WritePhysVec implements PhysIO.
func (s SlabIO) WritePhysVec(vecs []Vec) error {
	for _, v := range vecs {
		if err := s.WritePhys(v.GPA, v.Buf); err != nil {
			return err
		}
	}
	return nil
}

// ReadU64 is a helper reading a little-endian uint64 through a PhysReader.
func ReadU64(r PhysReader, gpa GPA) (uint64, error) {
	var b [8]byte
	if err := r.ReadPhys(gpa, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteU64 writes a little-endian uint64 through a PhysWriter.
func WriteU64(w PhysWriter, gpa GPA, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return w.WritePhys(gpa, b[:])
}

// PhysPages allocates guest physical pages: page-table pages for the
// pagetable mapper, rings and bounce buffers for virtio drivers.
type PhysPages interface {
	AllocPages(n int) (GPA, error)
}

// BumpAlloc is the PhysPages that hands out page-aligned guest
// physical ranges from a fixed window, low to high. The guest kernel
// uses one for page tables and virtqueue pages; the sideloader uses
// another inside its own memslot.
type BumpAlloc struct {
	next GPA
	end  GPA
}

// NewBumpAlloc returns an allocator over [start, end).
func NewBumpAlloc(start, end GPA) *BumpAlloc {
	return &BumpAlloc{next: GPA(PageAlign(uint64(start))), end: end}
}

// AllocPages reserves n pages and returns the base GPA.
func (a *BumpAlloc) AllocPages(n int) (GPA, error) {
	need := uint64(n) * PageSize
	if uint64(a.end-a.next) < need {
		return 0, fmt.Errorf("mem: bump allocator exhausted (want %d pages, %#x left)", n, a.end-a.next)
	}
	g := a.next
	a.next += GPA(need)
	return g, nil
}

// Used reports how many bytes have been handed out.
func (a *BumpAlloc) Used() uint64 { return uint64(a.next) }
