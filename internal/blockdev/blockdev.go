// Package blockdev defines the guest-facing block device contract and
// the host-native implementation used for baselines.
package blockdev

import (
	"fmt"

	"vmsh/internal/hostsim"
	"vmsh/internal/storage"
)

// SectorSize is the addressing granularity.
const SectorSize = 512

// Device is a byte-addressed block device; the contract now lives in
// internal/storage as BlockBackend (this alias keeps every existing
// implementation and caller source-compatible). Implementations
// charge their own costs to the virtual clock. Note for FUA: the
// virtio paths do not negotiate forced-unit-access, which is why
// quota persistence (and its three xfstests) fail there on both
// qemu-blk and vmsh-blk (§6.1).
type Device = storage.BlockBackend

// CheckAligned validates sector alignment of an access.
func CheckAligned(off int64, n int) error {
	if off%SectorSize != 0 || n%SectorSize != 0 {
		return fmt.Errorf("blockdev: unaligned access off=%d len=%d", off, n)
	}
	return nil
}

// HostFileDevice serves a device directly from a host file — the
// "native" baseline with no virtualisation in the path.
type HostFileDevice struct {
	F *hostsim.HostFile
	// FUA is supported by the NVMe-class device itself.
	fua bool
}

// NewHostFileDevice wraps a host file; direct files model the raw
// partition access the paper's native runs use.
func NewHostFileDevice(f *hostsim.HostFile) *HostFileDevice {
	return &HostFileDevice{F: f, fua: true}
}

// ReadAt implements Device.
func (d *HostFileDevice) ReadAt(off int64, buf []byte) error {
	if err := CheckAligned(off, len(buf)); err != nil {
		return err
	}
	return d.F.ReadAt(buf, off)
}

// WriteAt implements Device.
func (d *HostFileDevice) WriteAt(off int64, buf []byte) error {
	if err := CheckAligned(off, len(buf)); err != nil {
		return err
	}
	return d.F.WriteAt(buf, off)
}

// Flush implements Device.
func (d *HostFileDevice) Flush() error { return d.F.Fsync() }

// Size implements Device.
func (d *HostFileDevice) Size() int64 { return d.F.Size() }

// SupportsFUA implements Device.
func (d *HostFileDevice) SupportsFUA() bool { return d.fua }

// SetQueueDepth implements Device.
func (d *HostFileDevice) SetQueueDepth(qd int) {
	if qd < 1 {
		qd = 1
	}
	d.F.DiskRef().QueueDepth = qd
}
