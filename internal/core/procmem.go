package core

import (
	"fmt"
	"sort"

	"vmsh/internal/hostsim"
	"vmsh/internal/kvm"
	"vmsh/internal/mem"
	"vmsh/internal/obs"
)

// procMem is VMSH's view of guest physical memory: every access is a
// process_vm_readv/writev into the hypervisor's mapping of the guest,
// translated through the memslot table recovered by the eBPF probe.
// No data caching — the guest mutates these bytes concurrently
// (virtqueue indices), so reads must always hit the live mapping. The
// translation table itself is stable between slot registrations, so
// lookups use a sorted-slot binary search with a last-hit cache:
// device traffic is heavily clustered (ring pages, then data pages in
// the same slot), making the cache hit on almost every access.
type procMem struct {
	host  *hostsim.Host
	self  *hostsim.Process
	pid   int
	slots []kvm.MemSlotInfo // sorted by GPA, non-overlapping

	lastHit int // index of the slot that served the last lookup

	// Fast-path observability: session-registry counters (read via
	// snapshot in Session.Stats and Session.Metrics).
	calls        *obs.Counter // process_vm_* syscalls issued
	bytesRead    *obs.Counter
	bytesWritten *obs.Counter
}

func newProcMem(host *hostsim.Host, self *hostsim.Process, pid int, slots []kvm.MemSlotInfo, reg *obs.Registry) *procMem {
	pm := &procMem{host: host, self: self, pid: pid,
		calls:        reg.Counter("procvm.calls"),
		bytesRead:    reg.Counter("procvm.bytes_read"),
		bytesWritten: reg.Counter("procvm.bytes_written"),
	}
	for _, s := range slots {
		pm.addSlot(s)
	}
	return pm
}

// addSlot extends the translator after VMSH installs its own memslot,
// keeping the table sorted so lookups can bisect.
func (pm *procMem) addSlot(s kvm.MemSlotInfo) {
	i := sort.Search(len(pm.slots), func(i int) bool { return pm.slots[i].GPA > s.GPA })
	pm.slots = append(pm.slots, kvm.MemSlotInfo{})
	copy(pm.slots[i+1:], pm.slots[i:])
	pm.slots[i] = s
	pm.lastHit = 0
}

// removeSlot drops a slot from the translator (rollback of addSlot,
// after the memslot itself was deleted from the VM).
func (pm *procMem) removeSlot(slot uint32) {
	for i, s := range pm.slots {
		if s.Slot == slot {
			pm.slots = append(pm.slots[:i], pm.slots[i+1:]...)
			pm.lastHit = 0
			return
		}
	}
}

// slotFor returns the index of the slot containing gpa, or -1.
func (pm *procMem) slotFor(gpa mem.GPA) int {
	if i := pm.lastHit; i < len(pm.slots) {
		if s := pm.slots[i]; gpa >= s.GPA && uint64(gpa-s.GPA) < s.Size {
			return i
		}
	}
	// First slot starting beyond gpa; the candidate is its predecessor.
	i := sort.Search(len(pm.slots), func(i int) bool { return pm.slots[i].GPA > gpa }) - 1
	if i < 0 {
		return -1
	}
	if s := pm.slots[i]; uint64(gpa-s.GPA) < s.Size {
		pm.lastHit = i
		return i
	}
	return -1
}

// resolve translates [gpa, gpa+n) into host-virtual segments,
// splitting the range wherever it crosses from one memslot into the
// next. GPA-adjacent slots need not be HVA-adjacent (hypervisors mmap
// each region independently), which is why a straddling access must
// become multiple iovec segments rather than one long copy.
func (pm *procMem) resolve(gpa mem.GPA, buf []byte, out []hostsim.IoVec) ([]hostsim.IoVec, error) {
	for len(buf) > 0 {
		i := pm.slotFor(gpa)
		if i < 0 {
			return nil, fmt.Errorf("vmsh: gpa [%#x,+%d) not in any memslot", gpa, len(buf))
		}
		s := &pm.slots[i]
		off := uint64(gpa - s.GPA)
		chunk := min(uint64(len(buf)), s.Size-off)
		out = append(out, hostsim.IoVec{HVA: s.HVA + mem.HVA(off), Buf: buf[:chunk]})
		gpa += mem.GPA(chunk)
		buf = buf[chunk:]
	}
	return out, nil
}

// Contains implements mem.PhysIO: whether the memslot table covers
// [gpa, gpa+n), answered without a crossing. It holds exactly when
// resolve would succeed.
func (pm *procMem) Contains(gpa mem.GPA, n int) bool {
	for n > 0 {
		i := pm.slotFor(gpa)
		if i < 0 {
			return false
		}
		s := &pm.slots[i]
		chunk := min(uint64(n), s.Size-uint64(gpa-s.GPA))
		gpa += mem.GPA(chunk)
		n -= int(chunk)
	}
	return true
}

// Size implements mem.PhysIO: the bytes the memslot table covers.
func (pm *procMem) Size() uint64 {
	var n uint64
	for _, s := range pm.slots {
		n += s.Size
	}
	return n
}

// ReadPhys implements mem.PhysIO. A range inside one slot issues
// exactly one scalar process_vm_readv (the pre-fast-path behaviour);
// a range straddling slots becomes one vectored call.
func (pm *procMem) ReadPhys(gpa mem.GPA, buf []byte) error {
	v := [1]mem.Vec{{GPA: gpa, Buf: buf}}
	return pm.ReadPhysVec(v[:])
}

// WritePhys implements mem.PhysIO.
func (pm *procMem) WritePhys(gpa mem.GPA, buf []byte) error {
	v := [1]mem.Vec{{GPA: gpa, Buf: buf}}
	return pm.WritePhysVec(v[:])
}

// ReadPhysVec implements mem.PhysIO: all segments of all vecs
// are fetched by a single simulated process_vm_readv, paying one
// syscall + one base cost + bandwidth over the total byte count.
func (pm *procMem) ReadPhysVec(vecs []mem.Vec) error {
	var stack [maxStackIovs]hostsim.IoVec
	iovs, n, err := pm.resolveVecs(vecs, stack[:0])
	if err != nil {
		return err
	}
	if err := pm.host.ProcessVMReadv(pm.self, pm.pid, iovs); err != nil {
		return err
	}
	pm.calls.Add(1)
	pm.bytesRead.Add(int64(n))
	return nil
}

// WritePhysVec implements mem.PhysIO.
func (pm *procMem) WritePhysVec(vecs []mem.Vec) error {
	var stack [maxStackIovs]hostsim.IoVec
	iovs, n, err := pm.resolveVecs(vecs, stack[:0])
	if err != nil {
		return err
	}
	if err := pm.host.ProcessVMWritev(pm.self, pm.pid, iovs); err != nil {
		return err
	}
	pm.calls.Add(1)
	pm.bytesWritten.Add(int64(n))
	return nil
}

// maxStackIovs is how many host segments a crossing resolves into
// before its iovec array moves to the heap.
const maxStackIovs = 4

// resolveVecs appends the host segments of vecs to iovs and returns
// them with the byte count of vecs. A lone segment inside the slot
// that served the last lookup, the walker's every crossing, resolves
// without the general loop.
func (pm *procMem) resolveVecs(vecs []mem.Vec, iovs []hostsim.IoVec) ([]hostsim.IoVec, int, error) {
	if len(vecs) == 1 && len(vecs[0].Buf) > 0 && pm.lastHit < len(pm.slots) {
		v, s := &vecs[0], &pm.slots[pm.lastHit]
		if off := uint64(v.GPA - s.GPA); v.GPA >= s.GPA && off < s.Size && uint64(len(v.Buf)) <= s.Size-off {
			return append(iovs, hostsim.IoVec{HVA: s.HVA + mem.HVA(off), Buf: v.Buf}), len(v.Buf), nil
		}
	}
	n := 0
	for _, v := range vecs {
		var err error
		if iovs, err = pm.resolve(v.GPA, v.Buf, iovs); err != nil {
			return nil, 0, err
		}
		n += len(v.Buf)
	}
	return iovs, n, nil
}

// maxGPAEnd returns the highest in-use guest physical address; VMSH
// allocates its slot above it (§4.2: hypervisors allocate low to
// high, so the top of the address space is free).
func (pm *procMem) maxGPAEnd() mem.GPA {
	var max mem.GPA
	for _, s := range pm.slots {
		if end := s.GPA + mem.GPA(s.Size); end > max {
			max = end
		}
	}
	return max
}
