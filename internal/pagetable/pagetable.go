// Package pagetable implements bit-accurate x86-64 four-level page
// tables encoded in guest physical memory.
//
// The guest kernel builds its address space with Mapper at boot; the
// VMSH sideloader later *walks the same bytes* through the hypervisor's
// memory (mem.PhysReader over process_vm_readv) to locate the kernel in
// the KASLR range, and extends the tables to map the side-loaded
// library — exactly the introspection the paper describes in §4.1-4.2.
package pagetable

import (
	"encoding/binary"
	"fmt"

	"vmsh/internal/mem"
)

// Page table entry flag bits (x86-64 encoding; these double as the
// generic permission flags callers pass to Map, which each Format
// translates to its own descriptor bits).
const (
	FlagPresent = 1 << 0
	FlagWrite   = 1 << 1
	FlagUser    = 1 << 2
	FlagAccess  = 1 << 5
	FlagDirty   = 1 << 6
	FlagGlobal  = 1 << 8
	FlagNX      = 1 << 63

	addrMask = 0x000ffffffffff000 // bits 12..51
)

// Format abstracts the per-architecture descriptor encoding: both
// x86-64 long mode and the arm64 4 KiB granule use 512-entry tables
// indexed by the same 9-bit VA slices, so only the entry bit layout
// differs — exactly the "page table handling" part of the paper's
// arm64 port plan.
type Format interface {
	// MakeTable encodes a non-leaf entry pointing at the next table.
	MakeTable(next mem.GPA) uint64
	// MakeLeaf encodes a 4 KiB leaf mapping with generic flags.
	MakeLeaf(gpa mem.GPA, flags uint64) uint64
	// Present reports whether the entry is valid.
	Present(e uint64) bool
	// Addr extracts the physical address.
	Addr(e uint64) mem.GPA
}

// X86Format is the x86-64 long-mode encoding.
type X86Format struct{}

// MakeTable implements Format.
func (X86Format) MakeTable(next mem.GPA) uint64 {
	return uint64(next)&addrMask | FlagPresent | FlagWrite
}

// MakeLeaf implements Format.
func (X86Format) MakeLeaf(gpa mem.GPA, flags uint64) uint64 {
	return uint64(gpa)&addrMask | flags | FlagPresent
}

// Present implements Format.
func (X86Format) Present(e uint64) bool { return e&FlagPresent != 0 }

// Addr implements Format.
func (X86Format) Addr(e uint64) mem.GPA { return mem.GPA(e & addrMask) }

// ARM64 descriptor bits (4 KiB granule, stage 1).
const (
	arm64Valid = 1 << 0
	arm64Table = 1 << 1 // also the "page" bit at level 3
	arm64AF    = 1 << 10
	arm64RO    = 1 << 7 // AP[2]: set = read-only
	arm64NG    = 1 << 11
)

// ARM64Format is the AArch64 VMSAv8-64 4 KiB-granule encoding.
type ARM64Format struct{}

// MakeTable implements Format.
func (ARM64Format) MakeTable(next mem.GPA) uint64 {
	return uint64(next)&addrMask | arm64Valid | arm64Table
}

// MakeLeaf implements Format.
func (ARM64Format) MakeLeaf(gpa mem.GPA, flags uint64) uint64 {
	e := uint64(gpa)&addrMask | arm64Valid | arm64Table | arm64AF
	if flags&FlagWrite == 0 {
		e |= arm64RO
	}
	if flags&FlagGlobal == 0 {
		e |= arm64NG
	}
	return e
}

// Present implements Format.
func (ARM64Format) Present(e uint64) bool { return e&arm64Valid != 0 }

// Addr implements Format.
func (ARM64Format) Addr(e uint64) mem.GPA { return mem.GPA(e & addrMask) }

const (
	entriesPerTable = 512
	levels          = 4
)

// index returns the 9-bit table index of gva at the given level
// (3 = PML4 .. 0 = PT).
func index(gva mem.GVA, level int) uint64 {
	shift := uint(12 + 9*level)
	return (uint64(gva) >> shift) & 0x1ff
}

// Canonical reports whether gva is a canonical 48-bit address.
func Canonical(gva mem.GVA) bool {
	v := uint64(gva)
	top := v >> 47
	return top == 0 || top == 0x1ffff
}

// Mapper builds page tables in guest physical memory.
type Mapper struct {
	IO    mem.PhysIO
	Alloc mem.PhysPages
	Root  mem.GPA // top-level table physical base
	// Fmt selects the descriptor encoding; nil means x86-64.
	Fmt Format

	// journal, when armed with StartJournal, records the previous
	// value of every table entry the mapper overwrites — the
	// sideloader extends a *live guest's* page tables, and a failed
	// attach must be able to put every descriptor back byte-for-byte.
	journaling bool
	journal    []EntryWrite
}

// EntryWrite is one journalled table-entry store: where it went and
// what the eight bytes held before.
type EntryWrite struct {
	GPA mem.GPA
	Old uint64
}

// StartJournal begins recording entry overwrites (see UndoJournal).
func (m *Mapper) StartJournal() {
	m.journaling = true
	m.journal = m.journal[:0]
}

// UndoJournal restores every journalled entry to its prior value, in
// reverse store order, through the mapper's own PhysIO view. The
// journal is consumed. Table pages the mapper *allocated* (from the
// sideloader's private slot) are not touched — they become garbage the
// moment the entries pointing at them are restored.
func (m *Mapper) UndoJournal() error {
	for i := len(m.journal) - 1; i >= 0; i-- {
		e := m.journal[i]
		if err := mem.WriteU64(m.IO, e.GPA, e.Old); err != nil {
			return err
		}
	}
	m.journal = m.journal[:0]
	return nil
}

// writeEntry stores one table entry, journalling the previous value
// first when recording is armed.
func (m *Mapper) writeEntry(entryGPA mem.GPA, old, val uint64) error {
	if m.journaling {
		m.journal = append(m.journal, EntryWrite{GPA: entryGPA, Old: old})
	}
	return mem.WriteU64(m.IO, entryGPA, val)
}

func (m *Mapper) fmt() Format {
	if m.Fmt == nil {
		return X86Format{}
	}
	return m.Fmt
}

// NewMapper allocates a fresh PML4 and returns a mapper rooted at it.
func NewMapper(io mem.PhysIO, alloc mem.PhysPages) (*Mapper, error) {
	root, err := alloc.AllocPages(1)
	if err != nil {
		return nil, err
	}
	if err := zeroPage(io, root); err != nil {
		return nil, err
	}
	return &Mapper{IO: io, Alloc: alloc, Root: root}, nil
}

// AttachMapper returns a mapper over an existing root table. The
// sideloader uses this to extend the guest's live tables with pages
// from its own memslot allocator.
func AttachMapper(io mem.PhysIO, alloc mem.PhysPages, root mem.GPA) *Mapper {
	return &Mapper{IO: io, Alloc: alloc, Root: root}
}

func zeroPage(w mem.PhysWriter, gpa mem.GPA) error {
	var zero [mem.PageSize]byte
	return w.WritePhys(gpa, zero[:])
}

// Map installs a 4KiB mapping gva -> gpa with the given flags
// (FlagPresent is implied). Intermediate tables are allocated on
// demand. Remapping an existing entry overwrites it.
func (m *Mapper) Map(gva mem.GVA, gpa mem.GPA, flags uint64) error {
	if !Canonical(gva) {
		return fmt.Errorf("pagetable: non-canonical gva %#x", gva)
	}
	if uint64(gva)%mem.PageSize != 0 || uint64(gpa)%mem.PageSize != 0 {
		return fmt.Errorf("pagetable: unaligned mapping %#x -> %#x", gva, gpa)
	}
	f := m.fmt()
	table := m.Root
	for level := levels - 1; level > 0; level-- {
		entryGPA := table + mem.GPA(index(gva, level)*8)
		ent, err := mem.ReadU64(m.IO, entryGPA)
		if err != nil {
			return err
		}
		if !f.Present(ent) {
			next, err := m.Alloc.AllocPages(1)
			if err != nil {
				return err
			}
			if err := zeroPage(m.IO, next); err != nil {
				return err
			}
			old := ent
			ent = f.MakeTable(next)
			if err := m.writeEntry(entryGPA, old, ent); err != nil {
				return err
			}
		}
		table = f.Addr(ent)
	}
	entryGPA := table + mem.GPA(index(gva, 0)*8)
	old, err := mem.ReadU64(m.IO, entryGPA)
	if err != nil {
		return err
	}
	return m.writeEntry(entryGPA, old, f.MakeLeaf(gpa, flags))
}

// MapRange maps n contiguous bytes starting at (gva, gpa), page by page.
func (m *Mapper) MapRange(gva mem.GVA, gpa mem.GPA, n uint64, flags uint64) error {
	for off := uint64(0); off < n; off += mem.PageSize {
		if err := m.Map(gva+mem.GVA(off), gpa+mem.GPA(off), flags); err != nil {
			return err
		}
	}
	return nil
}

// Walker performs read-only translation over page tables that may be
// observed through any mem.PhysReader — in VMSH's case, the
// process_vm_readv view of the hypervisor's guest mapping.
type Walker struct {
	R    mem.PhysReader
	Root mem.GPA
	// Fmt selects the descriptor encoding; nil means x86-64.
	Fmt Format

	// ent receives each table entry, so one Walker serves one
	// goroutine at a time. A buffer passed through the PhysReader
	// interface escapes, so a local one would cost a heap allocation
	// per entry read.
	ent [8]byte
}

// entry reads the table entry at gpa.
func (w *Walker) entry(gpa mem.GPA) (uint64, error) {
	if err := w.R.ReadPhys(gpa, w.ent[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(w.ent[:]), nil
}

func (w *Walker) fmt() Format {
	if w.Fmt == nil {
		return X86Format{}
	}
	return w.Fmt
}

// Translate resolves gva to (gpa, flags). It returns ok=false for
// non-present mappings and an error only for unreadable table pages.
func (w *Walker) Translate(gva mem.GVA) (gpa mem.GPA, flags uint64, ok bool, err error) {
	if !Canonical(gva) {
		return 0, 0, false, nil
	}
	f := w.fmt()
	table := w.Root
	for level := levels - 1; level > 0; level-- {
		ent, err := w.entry(table + mem.GPA(index(gva, level)*8))
		if err != nil {
			return 0, 0, false, err
		}
		if !f.Present(ent) {
			return 0, 0, false, nil
		}
		table = f.Addr(ent)
	}
	ent, err := w.entry(table + mem.GPA(index(gva, 0)*8))
	if err != nil {
		return 0, 0, false, err
	}
	if !f.Present(ent) {
		return 0, 0, false, nil
	}
	return f.Addr(ent) + mem.GPA(uint64(gva)&0xfff), ent &^ addrMask, true, nil
}

// Mapped is one contiguous present run found by VisitRange.
type Mapped struct {
	GVA   mem.GVA
	GPA   mem.GPA
	Size  uint64
	Flags uint64
}

// VisitRange scans [start, end) page by page and reports maximal runs
// that are contiguous in both virtual and physical space with equal
// flags. This is how the sideloader discovers where KASLR placed the
// kernel image.
func (w *Walker) VisitRange(start, end mem.GVA, visit func(Mapped) bool) error {
	var run *Mapped
	flush := func() bool {
		if run == nil {
			return true
		}
		r := *run
		run = nil
		return visit(r)
	}
	for gva := start; gva < end; gva += mem.PageSize {
		gpa, flags, ok, err := w.Translate(gva)
		if err != nil {
			return err
		}
		if !ok {
			if !flush() {
				return nil
			}
			continue
		}
		if run != nil && run.GVA+mem.GVA(run.Size) == gva &&
			run.GPA+mem.GPA(run.Size) == gpa && run.Flags == flags {
			run.Size += mem.PageSize
			continue
		}
		if !flush() {
			return nil
		}
		run = &Mapped{GVA: gva, GPA: gpa, Size: mem.PageSize, Flags: flags}
	}
	flush()
	return nil
}

// ReadVirt reads len(buf) bytes at gva by translating page by page.
type VirtIO struct {
	Walker *Walker
	W      mem.PhysWriter // optional; nil means read-only
}

// ReadVirt fills buf from guest-virtual memory.
func (v *VirtIO) ReadVirt(gva mem.GVA, buf []byte) error {
	return v.eachPage(gva, len(buf), func(gpa mem.GPA, off, n int) error {
		return v.Walker.R.ReadPhys(gpa, buf[off:off+n])
	})
}

// WriteVirt stores buf at guest-virtual gva.
func (v *VirtIO) WriteVirt(gva mem.GVA, buf []byte) error {
	if v.W == nil {
		return fmt.Errorf("pagetable: read-only virtual view")
	}
	return v.eachPage(gva, len(buf), func(gpa mem.GPA, off, n int) error {
		return v.W.WritePhys(gpa, buf[off:off+n])
	})
}

func (v *VirtIO) eachPage(gva mem.GVA, total int, f func(gpa mem.GPA, off, n int) error) error {
	off := 0
	for off < total {
		page := gva + mem.GVA(off)
		gpa, _, ok, err := v.Walker.Translate(page)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("pagetable: %#x not mapped", page)
		}
		n := mem.PageSize - int(uint64(page)&0xfff)
		if n > total-off {
			n = total - off
		}
		if err := f(gpa, off, n); err != nil {
			return err
		}
		off += n
	}
	return nil
}
