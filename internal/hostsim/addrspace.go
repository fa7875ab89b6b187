package hostsim

import (
	"fmt"
	"sort"
	"sync"

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
	mu       sync.Mutex
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
	a.mu.Lock()
	defer a.mu.Unlock()
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
	a.mu.Lock()
	hva := a.nextAnon
	a.nextAnon += mem.HVA(mem.PageAlign(size) + mem.PageSize)
	a.mu.Unlock()
	slab := mem.NewPhys(0, mem.PageAlign(size))
	return a.MapPhys(hva, slab, name)
}

// Unmap removes the mapping starting exactly at hva.
func (a *AddrSpace) Unmap(hva mem.HVA) error {
	a.mu.Lock()
	defer a.mu.Unlock()
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
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, m := range a.mappings {
		if hva >= m.HVA && hva < m.End() {
			return m, true
		}
	}
	return nil, false
}

// Mappings returns a snapshot sorted by address.
func (a *AddrSpace) Mappings() []*Mapping {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]*Mapping, len(a.mappings))
	copy(out, a.mappings)
	return out
}

// read/write perform raw access without cost accounting; the syscall
// layer charges separately.
func (a *AddrSpace) read(hva mem.HVA, buf []byte) error {
	return a.each(hva, len(buf), func(m *Mapping, off uint64, b []byte) {
		m.Phys.ReadAt(m.Phys.Base+mem.GPA(off), b)
	}, buf)
}

func (a *AddrSpace) write(hva mem.HVA, buf []byte) error {
	return a.each(hva, len(buf), func(m *Mapping, off uint64, b []byte) {
		m.Phys.WriteAt(m.Phys.Base+mem.GPA(off), b)
	}, buf)
}

func (a *AddrSpace) each(hva mem.HVA, n int, f func(m *Mapping, off uint64, b []byte), buf []byte) error {
	done := 0
	for done < n {
		m, ok := a.Find(hva + mem.HVA(done))
		if !ok {
			return fmt.Errorf("%w: hva %#x", ErrFault, hva+mem.HVA(done))
		}
		off := uint64(hva+mem.HVA(done)) - uint64(m.HVA)
		chunk := int(m.Size - off)
		if chunk > n-done {
			chunk = n - done
		}
		f(m, off, buf[done:done+chunk])
		done += chunk
	}
	return nil
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
	target, ok := h.Process(targetPID)
	if !ok {
		return nil, ErrNoEnt
	}
	if !mayAccess(caller, target) {
		return nil, ErrPerm
	}
	if err := h.Faults.Check(op); err != nil {
		return nil, err
	}
	sp := h.trProcVM.Span("procvm", string(op[len("procvm:"):]))
	caller.chargeSyscall()
	h.Clock.Advance(h.Costs.ProcessVMBase + vclock.Copy(totalBytes, h.Costs.ProcessVMBW))
	sp.End1("bytes", int64(totalBytes))
	h.ctrProcVMCalls.Inc()
	h.ctrProcVMBytes.Add(int64(totalBytes))
	return target, nil
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
	return h.ProcessVMReadv(caller, targetPID, []IoVec{{HVA: hva, Buf: buf}})
}

// ProcessVMWrite is the scalar process_vm_writev entry point.
func (h *Host) ProcessVMWrite(caller *Process, targetPID int, hva mem.HVA, buf []byte) error {
	return h.ProcessVMWritev(caller, targetPID, []IoVec{{HVA: hva, Buf: buf}})
}
