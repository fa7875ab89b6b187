package hostsim

import (
	"fmt"
	"time"

	"vmsh/internal/mem"
	"vmsh/internal/vclock"
)

// Disk is the NVMe-class backing store (the paper's dedicated Intel
// P4600). All host files live on it; every access charges device time
// to the virtual clock according to the cost model.
type Disk struct {
	clock *vclock.Clock
	costs *vclock.Costs
	// QueueDepth is the assumed device-side parallelism for latency
	// amortisation; fio-style workloads set it per run.
	QueueDepth int

	reads, writes           int64
	bytesRead, bytesWritten int64
}

// NewDisk returns a disk bound to the given clock/cost model.
func NewDisk(clock *vclock.Clock, costs *vclock.Costs) *Disk {
	return &Disk{clock: clock, costs: costs, QueueDepth: 1}
}

// ChargeRead accounts one read command of n bytes.
func (d *Disk) ChargeRead(n int) {
	d.reads++
	d.bytesRead += int64(n)
	d.clock.Advance(vclock.DeviceTime(n, d.costs.NVMeReadLat, d.costs.NVMeReadBW, d.costs.NVMeSegment, d.QueueDepth))
}

// ChargeWrite accounts one write command of n bytes.
func (d *Disk) ChargeWrite(n int) {
	d.writes++
	d.bytesWritten += int64(n)
	d.clock.Advance(vclock.DeviceTime(n, d.costs.NVMeWriteLat, d.costs.NVMeWriteBW, d.costs.NVMeSegment, d.QueueDepth))
}

// ChargeFlush accounts a cache flush.
func (d *Disk) ChargeFlush() { d.clock.Advance(d.costs.NVMeFlush) }

// Stats returns cumulative command/byte counters.
func (d *Disk) Stats() (reads, writes, bytesRead, bytesWritten int64) {
	return d.reads, d.writes, d.bytesRead, d.bytesWritten
}

// HostFile is a file on the host filesystem (VM images, the vmsh fs
// image). Its bytes live in a sparse page store, so an image costs
// memory only for the pages written with data. Pages can be cached in
// the host page cache; direct mode bypasses the cache like O_DIRECT.
type HostFile struct {
	Name   string
	disk   *Disk
	costs  *vclock.Costs
	clock  *vclock.Clock
	Direct bool // O_DIRECT: every access hits the device

	data   *mem.Pages
	cached map[int64]bool // 4KiB page residency in host page cache
	dirty  map[int64]bool
}

const hostPage = 4096

// CreateFile makes (or truncates) a host file of the given size.
func (h *Host) CreateFile(name string, size int64, direct bool) *HostFile {
	f := &HostFile{
		Name:   name,
		disk:   h.Disk,
		costs:  h.Costs,
		clock:  h.Clock,
		Direct: direct,
		data:   mem.NewPages(uint64(size)),
		cached: make(map[int64]bool),
		dirty:  make(map[int64]bool),
	}
	h.files[name] = f
	return f
}

// OpenFile looks a file up by name.
func (h *Host) OpenFile(name string) (*HostFile, error) {
	f, ok := h.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: host file %s", ErrNoEnt, name)
	}
	return f, nil
}

// DiskRef returns the disk this file lives on.
func (f *HostFile) DiskRef() *Disk { return f.disk }

// Size returns the file length.
func (f *HostFile) Size() int64 { return int64(f.data.Size()) }

// inRange reports whether [off, off+n) lies inside the file. It never
// computes the end, so an offset near math.MaxInt64 cannot wrap back
// into range.
func (f *HostFile) inRange(off int64, n int) bool {
	size := f.Size()
	return off >= 0 && int64(n) <= size && off <= size-int64(n)
}

// ReadAt reads into buf at off, charging either device or page-cache
// costs depending on mode and residency.
func (f *HostFile) ReadAt(buf []byte, off int64) error {
	if !f.inRange(off, len(buf)) {
		return fmt.Errorf("%w: read [%d,+%d) beyond %s (%d bytes)", ErrInval, off, len(buf), f.Name, f.data.Size())
	}
	f.charge(off, len(buf), false)
	f.data.ReadAt(buf, uint64(off))
	return nil
}

// WriteAt writes buf at off.
func (f *HostFile) WriteAt(buf []byte, off int64) error {
	if !f.inRange(off, len(buf)) {
		return fmt.Errorf("%w: write [%d,+%d) beyond %s (%d bytes)", ErrInval, off, len(buf), f.Name, f.data.Size())
	}
	f.charge(off, len(buf), true)
	f.data.WriteAt(buf, uint64(off))
	return nil
}

// charge accounts one access.
func (f *HostFile) charge(off int64, n int, write bool) {
	if f.Direct {
		if write {
			f.disk.ChargeWrite(n)
		} else {
			f.disk.ChargeRead(n)
		}
		return
	}
	// Buffered: count cache misses page by page; hits cost page-cache
	// handling plus the copy.
	first, last := off/hostPage, (off+int64(n)-1)/hostPage
	missBytes := 0
	for p := first; p <= last; p++ {
		if !f.cached[p] {
			f.cached[p] = true
			missBytes += hostPage
		}
		if write {
			f.dirty[p] = true
		}
	}
	if missBytes > 0 && !write {
		f.disk.ChargeRead(missBytes)
	}
	pages := int(last - first + 1)
	f.clock.Advance(time.Duration(pages)*f.costs.PageCacheHit + vclock.Copy(n, f.costs.MemcpyBW))
}

// Fsync writes back all dirty pages.
func (f *HostFile) Fsync() error {
	nd := len(f.dirty)
	if nd > 0 {
		f.disk.ChargeWrite(nd * hostPage)
		f.dirty = make(map[int64]bool)
	}
	f.disk.ChargeFlush()
	return nil
}

// Pages exposes the raw contents (mmap view). Accesses through the
// returned store are not charged.
func (f *HostFile) Pages() *mem.Pages { return f.data }

// SectorSize is the addressing granularity of a HostFileDevice.
const SectorSize = 512

// CheckAligned validates sector alignment of an access.
func CheckAligned(off int64, n int) error {
	if off%SectorSize != 0 || n%SectorSize != 0 {
		return fmt.Errorf("hostsim: unaligned access off=%d len=%d", off, n)
	}
	return nil
}

// HostFileDevice is a storage.BlockBackend served directly from a host
// file: the "native" baseline with no virtualisation in the path, and
// the device images are built on. Accesses must be sector-aligned, and
// the NVMe-class device supports forced-unit-access (FUA).
type HostFileDevice struct{ F *HostFile }

// NewHostFileDevice wraps a host file; direct files model the raw
// partition access the paper's native runs use.
func NewHostFileDevice(f *HostFile) *HostFileDevice { return &HostFileDevice{F: f} }

// ReadAt implements storage.BlockBackend.
func (d *HostFileDevice) ReadAt(off int64, buf []byte) error {
	if err := CheckAligned(off, len(buf)); err != nil {
		return err
	}
	return d.F.ReadAt(buf, off)
}

// WriteAt implements storage.BlockBackend.
func (d *HostFileDevice) WriteAt(off int64, buf []byte) error {
	if err := CheckAligned(off, len(buf)); err != nil {
		return err
	}
	return d.F.WriteAt(buf, off)
}

// Flush implements storage.BlockBackend.
func (d *HostFileDevice) Flush() error { return d.F.Fsync() }

// Size implements storage.BlockBackend.
func (d *HostFileDevice) Size() int64 { return d.F.Size() }

// SupportsFUA implements storage.BlockBackend.
func (d *HostFileDevice) SupportsFUA() bool { return true }

// HostFileFD is the fd-table wrapper for an open host file.
type HostFileFD struct {
	File *HostFile
}

// ProcLink implements FD.
func (h *HostFileFD) ProcLink() string { return h.File.Name }
