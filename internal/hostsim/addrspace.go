package hostsim

import (
	"fmt"
	"sort"
	"time"

	"vmsh/internal/faults"
	"vmsh/internal/mem"
	"vmsh/internal/vclock"
)

// Mapping is one region of a process's virtual address space. Every
// mapping is backed by a mem.Phys slab; guest RAM mappings alias the
// same slab the KVM memslot points at, so writes through
// process_vm_writev are visible to the guest and vice versa — the same
// aliasing Figure 3 of the paper shows.
type Mapping struct {
	HVA  mem.HVA
	Size uint64
	Name string
	Phys *mem.Phys // backing slab; offset 0 corresponds to HVA
}

// End returns the first address past the mapping.
func (m *Mapping) End() mem.HVA { return m.HVA + mem.HVA(m.Size) }

// AddrSpace is a process's virtual memory map.
type AddrSpace struct {
	mappings []*Mapping
	nextAnon mem.HVA
}

// NewAddrSpace returns an empty address space. Anonymous mappings are
// handed out from a conventional mmap area.
func NewAddrSpace() *AddrSpace {
	return &AddrSpace{nextAnon: 0x7f5500000000}
}

// MapPhys installs a mapping of slab at hva under the given name.
func (a *AddrSpace) MapPhys(hva mem.HVA, slab *mem.Phys, name string) (*Mapping, error) {
	m := &Mapping{HVA: hva, Size: slab.Size(), Name: name, Phys: slab}
	for _, other := range a.mappings {
		if m.HVA < other.End() && other.HVA < m.End() {
			return nil, fmt.Errorf("hostsim: mapping %q overlaps %q", name, other.Name)
		}
	}
	a.mappings = append(a.mappings, m)
	sort.Slice(a.mappings, func(i, j int) bool { return a.mappings[i].HVA < a.mappings[j].HVA })
	return m, nil
}

// MapAnon allocates size bytes of fresh zeroed memory at a
// kernel-chosen address (the mmap(NULL, ...) path used by injected
// allocations).
func (a *AddrSpace) MapAnon(size uint64, name string) (*Mapping, error) {
	hva := a.nextAnon
	a.nextAnon += mem.HVA(mem.PageAlign(size) + mem.PageSize)
	slab := mem.NewPhys(0, mem.PageAlign(size))
	return a.MapPhys(hva, slab, name)
}

// Unmap removes the mapping starting exactly at hva.
func (a *AddrSpace) Unmap(hva mem.HVA) error {
	for i, m := range a.mappings {
		if m.HVA == hva {
			a.mappings = append(a.mappings[:i], a.mappings[i+1:]...)
			return nil
		}
	}
	return ErrInval
}

// Find returns the mapping containing hva.
func (a *AddrSpace) Find(hva mem.HVA) (*Mapping, bool) {
	for _, m := range a.mappings {
		if hva >= m.HVA && hva < m.End() {
			return m, true
		}
	}
	return nil, false
}

// Mappings returns a snapshot sorted by address.
func (a *AddrSpace) Mappings() []*Mapping {
	out := make([]*Mapping, len(a.mappings))
	copy(out, a.mappings)
	return out
}

// read/write perform raw access without cost accounting; the syscall
// layer charges separately. A range may span adjacent mappings; an
// unmapped byte fails the access after the chunks before it moved.
func (a *AddrSpace) read(hva mem.HVA, buf []byte) error {
	for len(buf) > 0 {
		gpa, slab, n, err := a.chunk(hva, len(buf))
		if err != nil {
			return err
		}
		slab.ReadAt(gpa, buf[:n])
		hva += mem.HVA(n)
		buf = buf[n:]
	}
	return nil
}

func (a *AddrSpace) write(hva mem.HVA, buf []byte) error {
	for len(buf) > 0 {
		gpa, slab, n, err := a.chunk(hva, len(buf))
		if err != nil {
			return err
		}
		slab.WriteAt(gpa, buf[:n])
		hva += mem.HVA(n)
		buf = buf[n:]
	}
	return nil
}

// chunk resolves the first piece of an n-byte access at hva: the slab
// address hva maps to and how many of the n bytes its mapping holds.
func (a *AddrSpace) chunk(hva mem.HVA, n int) (mem.GPA, *mem.Phys, int, error) {
	m, ok := a.Find(hva)
	if !ok {
		return 0, nil, 0, fmt.Errorf("%w: hva %#x", ErrFault, hva)
	}
	off := uint64(hva - m.HVA)
	if rest := m.Size - off; uint64(n) > rest {
		n = int(rest)
	}
	return m.Phys.Base + mem.GPA(off), m.Phys, n, nil
}

// ReadMem reads target memory without a permission model — only the
// simulation's own kernel-side components (KVM resolving a memslot's
// userspace_addr) use it. Userspace actors must go through
// ProcessVMRead.
func (p *Process) ReadMem(hva mem.HVA, buf []byte) error { return p.AS.read(hva, buf) }

// WriteMem is the kernel-side counterpart of ReadMem.
func (p *Process) WriteMem(hva mem.HVA, buf []byte) error { return p.AS.write(hva, buf) }

// mayAccess implements the ptrace-style access check shared by
// process_vm_* and ptrace attach.
func mayAccess(caller, target *Process) bool {
	if caller == target {
		return true
	}
	if caller.Creds.Has(CapSysPtrace) {
		return true
	}
	return caller.Creds.UID == target.Creds.UID
}

// IoVec is one segment of a vectored process_vm transfer: a window of
// the target's address space and the local buffer it is copied
// from/to.
type IoVec struct {
	HVA mem.HVA
	Buf []byte
}

// IoVecTotal sums the segment lengths of a vector.
func IoVecTotal(iovs []IoVec) int {
	n := 0
	for _, v := range iovs {
		n += len(v.Buf)
	}
	return n
}

// processVMCommon resolves the target and enforces the ptrace-style
// access check, then charges exactly one syscall plus the vectored
// copy: one ProcessVMBase regardless of segment count, and bandwidth
// over the total byte count. This is the whole point of
// process_vm_readv over per-field reads — permission and entry costs
// are paid once per call, not once per segment. op is the crossing
// class (OpProcVMRead/OpProcVMWrite); its variant ("readv"/"writev")
// names the span on the host:procvm trace track.
func (h *Host) processVMCommon(caller *Process, op faults.Op, targetPID, totalBytes int) (*Process, error) {
	target := h.lastTarget
	if target == nil || target.PID != targetPID {
		var ok bool
		if target, ok = h.procs[targetPID]; !ok {
			return nil, ErrNoEnt
		}
		h.lastTarget = target
	}
	if !mayAccess(caller, target) {
		return nil, ErrPerm
	}
	if err := h.Faults.Check(op); err != nil {
		return nil, err
	}
	sp := h.trProcVM.Span("procvm", string(op[len("procvm:"):]))
	caller.chargeSyscall()
	h.Clock.Advance(h.Costs.ProcessVMBase + h.copyCharge.of(totalBytes, h.Costs.ProcessVMBW))
	sp.End1("bytes", int64(totalBytes))
	h.ctrProcVMCalls.Inc()
	h.ctrProcVMBytes.Add(int64(totalBytes))
	return target, nil
}

// copyMemo remembers vclock.Copy's result for the last (size,
// bandwidth) pair: the page-table walk makes hundreds of thousands of
// 8-byte crossings in a row. The zero value is a valid memo of
// Copy(0, 0) = 0.
type copyMemo struct {
	n  int
	bw float64
	d  time.Duration
}

// of returns vclock.Copy(n, bw), computing it only when the pair
// changes.
func (m *copyMemo) of(n int, bw float64) time.Duration {
	if n != m.n || bw != m.bw {
		m.n, m.bw, m.d = n, bw, vclock.Copy(n, bw)
	}
	return m.d
}

// ProcessVMReadv is the vectored process_vm_readv: every segment is
// copied out of the target under a single syscall charge. Segments are
// processed in order; like the real syscall, a faulting segment aborts
// the call after earlier segments already transferred.
func (h *Host) ProcessVMReadv(caller *Process, targetPID int, iovs []IoVec) error {
	target, err := h.processVMCommon(caller, faults.OpProcVMRead, targetPID, IoVecTotal(iovs))
	if err != nil {
		h.Faults.Observe(faults.OpProcVMRead, iovArgs(targetPID, iovs), faults.NewDigest(), err)
		return err
	}
	for _, v := range iovs {
		if err := target.AS.read(v.HVA, v.Buf); err != nil {
			h.Faults.Observe(faults.OpProcVMRead, iovArgs(targetPID, iovs), faults.NewDigest(), err)
			return err
		}
	}
	if h.Faults.Observing() {
		res := faults.NewDigest()
		for _, v := range iovs {
			res = res.Bytes(v.Buf)
		}
		h.Faults.Observe(faults.OpProcVMRead, iovArgs(targetPID, iovs), res, nil)
	}
	return nil
}

// iovArgs digests the shape of a process_vm crossing: target pid,
// vector count, and each (address, length) pair. Payload bytes go
// into the result digest instead, so argument digests identify the
// request even when the copy fails.
func iovArgs(pid int, iovs []IoVec) faults.Digest {
	d := faults.NewDigest().U64(uint64(pid)).U64(uint64(len(iovs)))
	for _, v := range iovs {
		d = d.U64(uint64(v.HVA)).U64(uint64(len(v.Buf)))
	}
	return d
}

// ProcessVMWritev is the vectored process_vm_writev.
func (h *Host) ProcessVMWritev(caller *Process, targetPID int, iovs []IoVec) error {
	target, err := h.processVMCommon(caller, faults.OpProcVMWrite, targetPID, IoVecTotal(iovs))
	if err != nil {
		h.Faults.Observe(faults.OpProcVMWrite, iovArgs(targetPID, iovs), faults.NewDigest(), err)
		return err
	}
	for _, v := range iovs {
		if err := target.AS.write(v.HVA, v.Buf); err != nil {
			h.Faults.Observe(faults.OpProcVMWrite, iovArgs(targetPID, iovs), faults.NewDigest(), err)
			return err
		}
	}
	if h.Faults.Observing() {
		res := faults.NewDigest()
		for _, v := range iovs {
			res = res.Bytes(v.Buf)
		}
		h.Faults.Observe(faults.OpProcVMWrite, iovArgs(targetPID, iovs), res, nil)
	}
	return nil
}

// ProcessVMRead is the scalar process_vm_readv entry point: one
// segment, same charges as a one-element vector.
func (h *Host) ProcessVMRead(caller *Process, targetPID int, hva mem.HVA, buf []byte) error {
	iov := [1]IoVec{{HVA: hva, Buf: buf}}
	return h.ProcessVMReadv(caller, targetPID, iov[:])
}

// ProcessVMWrite is the scalar process_vm_writev entry point.
func (h *Host) ProcessVMWrite(caller *Process, targetPID int, hva mem.HVA, buf []byte) error {
	iov := [1]IoVec{{HVA: hva, Buf: buf}}
	return h.ProcessVMWritev(caller, targetPID, iov[:])
}
