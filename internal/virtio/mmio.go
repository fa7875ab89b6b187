package virtio

import (
	"encoding/binary"

	"vmsh/internal/faults"
	"vmsh/internal/mem"
	"vmsh/internal/obs"
)

// virtio-mmio register offsets (device version 2).
const (
	RegMagicValue      = 0x000
	RegVersion         = 0x004
	RegDeviceID        = 0x008
	RegVendorID        = 0x00c
	RegDeviceFeatures  = 0x010
	RegDeviceFeatSel   = 0x014
	RegDriverFeatures  = 0x020
	RegDriverFeatSel   = 0x024
	RegQueueSel        = 0x030
	RegQueueNumMax     = 0x034
	RegQueueNum        = 0x038
	RegQueueReady      = 0x044
	RegQueueNotify     = 0x050
	RegInterruptStatus = 0x060
	RegInterruptACK    = 0x064
	RegStatus          = 0x070
	RegQueueDescLow    = 0x080
	RegQueueDescHigh   = 0x084
	RegQueueDriverLow  = 0x090
	RegQueueDriverHigh = 0x094
	RegQueueDeviceLow  = 0x0a0
	RegQueueDeviceHigh = 0x0a4
	RegConfig          = 0x100
)

// MagicValue is "virt" little-endian.
const MagicValue = 0x74726976

// Device IDs.
const (
	DeviceIDNet     = 1
	DeviceIDBlock   = 2
	DeviceIDConsole = 3
)

// Device status bits.
const (
	StatusAcknowledge = 1
	StatusDriver      = 2
	StatusDriverOK    = 4
	StatusFeaturesOK  = 8
	StatusFailed      = 0x80
)

// Block device feature bits (subset).
const (
	BlkFSegMax = 1 << 2
	BlkFFlush  = 1 << 9
	// BlkFFUA would be 1 << 13; deliberately not offered — see
	// storage.BlockBackend.SupportsFUA.
)

// Net device feature bits (subset).
const (
	// NetFMac: the device exposes its MAC address in config space.
	NetFMac = 1 << 5
)

// MMIOSize is the register window size per device.
const MMIOSize = 0x200

// queueState holds the per-queue registers.
type queueState struct {
	numMax int
	num    uint32
	ready  bool
	desc   uint64
	driver uint64
	device uint64
	// dq is the live device-side view; its ring cursors (lastAvail,
	// usedIdx) must persist across notifies.
	dq *DeviceQueue
}

// MMIODev is a generic virtio-mmio device: register state machine plus
// hooks for the concrete device (blk, console).
type MMIODev struct {
	Base     mem.GPA
	ID       uint32
	Features uint64
	Mem      mem.PhysIO

	// OnNotify is invoked for QueueNotify writes with the queue index.
	OnNotify func(q int)
	// OnDriverOK is invoked when the driver finishes initialisation.
	OnDriverOK func()
	// ConfigSpace is the raw device config (e.g. capacity for blk).
	ConfigSpace []byte

	// Trace is the device's trace track; IRQs counts raised
	// interrupts. ReqLat[q], when non-nil, receives the avail-publish
	// to used-publish virtual-time latency of every chain queue q
	// completes (the driver side must set a matching ReqName — see
	// DriverQueue.Trace). All are optional.
	Trace  obs.Track
	IRQs   *obs.Counter
	ReqLat []*obs.Histogram

	// Faults, when non-nil, is the host's crossing plane: the blk and
	// net data paths check their requests against its fault plan (an
	// injected "vq:blk" fault completes the request with an IO-error
	// status byte, a "vq:net" fault drops the frame; the service pass
	// keeps going either way), and its tap observes one TapOp crossing
	// per virtqueue service pass (the record/replay hook). TapOp is the
	// crossing class name ("vq:blk", "vq:cons", "vq:net").
	Faults *faults.Injector
	TapOp  faults.Op

	queues      []queueState
	queueSel    uint64 // as the guest wrote it; see selected
	status      uint32
	featSel     uint32
	driverFeats uint64
	intrStatus  uint32
	intrCount   int64
}

// NewMMIODev builds a device with the given queue size maxima.
func NewMMIODev(base mem.GPA, id uint32, features uint64, queueMax []int, m mem.PhysIO) *MMIODev {
	d := &MMIODev{Base: base, ID: id, Features: features, Mem: m}
	for _, qm := range queueMax {
		d.queues = append(d.queues, queueState{numMax: qm})
	}
	return d
}

// DriverFeatures returns the feature bits the driver acknowledged.
func (d *MMIODev) DriverFeatures() uint64 { return d.driverFeats }

// DeviceQueue returns the device-side view of queue q, creating it
// from the programmed registers on first use, or nil when the device
// has no queue q. Ring cursors persist until the driver toggles
// QueueReady.
func (d *MMIODev) DeviceQueue(q int) *DeviceQueue {
	if q < 0 || q >= len(d.queues) {
		return nil
	}
	st := &d.queues[q]
	if st.dq == nil {
		st.dq = &DeviceQueue{
			M:     d.Mem,
			Size:  int(st.num),
			Desc:  mem.GPA(st.desc),
			Avail: mem.GPA(st.driver),
			Used:  mem.GPA(st.device),
			Trace: d.Trace,
		}
		if q < len(d.ReqLat) {
			st.dq.Lat = d.ReqLat[q]
		}
	}
	return st.dq
}

// liveQueue is DeviceQueue for a queue the driver has fully
// configured: ready, with a size between 1 and its maximum. It returns
// nil for any other q.
func (d *MMIODev) liveQueue(q int) *DeviceQueue {
	if q < 0 || q >= len(d.queues) {
		return nil
	}
	if st := &d.queues[q]; !st.ready || st.num == 0 || st.num > uint32(st.numMax) {
		return nil
	}
	return d.DeviceQueue(q)
}

// selected returns the registers of the queue the guest selected. Past
// the device's queues it returns a blank queue, so a register read
// sees 0 and a write goes nowhere.
func (d *MMIODev) selected() *queueState {
	if d.queueSel < uint64(len(d.queues)) {
		return &d.queues[d.queueSel]
	}
	return &queueState{}
}

// RaiseInterrupt latches the used-buffer interrupt bit. The caller
// signals the actual irq (irqfd or direct injection).
func (d *MMIODev) RaiseInterrupt() {
	d.intrStatus |= 1
	d.intrCount++
	d.IRQs.Inc()
	d.Trace.Event("irq", "raise")
}

// interrupt latches the used-buffer interrupt and signals it.
func (d *MMIODev) interrupt(signal func()) {
	d.RaiseInterrupt()
	if signal != nil {
		signal()
	}
}

// InterruptCount reports how many interrupts this device has raised —
// the IRQ-coalescing observable surfaced through core.Session stats.
func (d *MMIODev) InterruptCount() int64 { return d.intrCount }

// MMIO implements the register access protocol; it satisfies
// kvm.MMIOHandler structurally.
func (d *MMIODev) MMIO(gpa mem.GPA, size int, write bool, value uint64) uint64 {
	off := int(gpa - d.Base)
	switch {
	case off >= RegConfig:
		return d.configAccess(off-RegConfig, size, write)
	case write:
		d.writeReg(off, value)
		return 0
	}
	return d.readReg(off)
}

func (d *MMIODev) readReg(off int) uint64 {
	switch off {
	case RegMagicValue:
		return MagicValue
	case RegVersion:
		return 2
	case RegDeviceID:
		return uint64(d.ID)
	case RegVendorID:
		return 0x564d5348 // "VMSH"
	case RegDeviceFeatures:
		if d.featSel == 0 {
			return d.Features & 0xffffffff
		}
		return d.Features >> 32
	case RegQueueNumMax:
		return uint64(d.selected().numMax)
	case RegQueueReady:
		if d.selected().ready {
			return 1
		}
		return 0
	case RegInterruptStatus:
		return uint64(d.intrStatus)
	case RegStatus:
		return uint64(d.status)
	}
	return 0
}

// writeReg applies a register write, then runs the register's hook:
// OnDriverOK for a Status write that sets DRIVER_OK, OnNotify for a
// QueueNotify of a queue the device has.
func (d *MMIODev) writeReg(off int, value uint64) {
	switch off {
	case RegDeviceFeatSel:
		d.featSel = uint32(value)
	case RegDriverFeatSel:
		d.featSel = uint32(value)
	case RegDriverFeatures:
		if d.featSel == 0 {
			d.driverFeats = d.driverFeats&^uint64(0xffffffff) | value&0xffffffff
		} else {
			d.driverFeats = d.driverFeats&0xffffffff | value<<32
		}
	case RegQueueSel:
		d.queueSel = value
	case RegQueueNum:
		d.selected().num = uint32(value)
	case RegQueueReady:
		st := d.selected()
		st.ready = value == 1
		st.dq = nil // reconfiguration resets cursors
	case RegQueueDescLow:
		d.setAddr(&d.selected().desc, value, false)
	case RegQueueDescHigh:
		d.setAddr(&d.selected().desc, value, true)
	case RegQueueDriverLow:
		d.setAddr(&d.selected().driver, value, false)
	case RegQueueDriverHigh:
		d.setAddr(&d.selected().driver, value, true)
	case RegQueueDeviceLow:
		d.setAddr(&d.selected().device, value, false)
	case RegQueueDeviceHigh:
		d.setAddr(&d.selected().device, value, true)
	case RegInterruptACK:
		d.intrStatus &^= uint32(value)
	case RegStatus:
		prev := d.status
		d.status = uint32(value)
		if value&StatusDriverOK != 0 && prev&StatusDriverOK == 0 && d.OnDriverOK != nil {
			d.OnDriverOK()
		}
	case RegQueueNotify:
		if d.OnNotify != nil && value < uint64(len(d.queues)) {
			d.OnNotify(int(value))
		}
	}
}

func (d *MMIODev) setAddr(dst *uint64, value uint64, high bool) {
	if high {
		*dst = *dst&0xffffffff | value<<32
	} else {
		*dst = *dst&^uint64(0xffffffff) | value&0xffffffff
	}
}

func (d *MMIODev) configAccess(off, size int, write bool) uint64 {
	if write || off+size > len(d.ConfigSpace) {
		return 0
	}
	var buf [8]byte
	copy(buf[:], d.ConfigSpace[off:])
	v := binary.LittleEndian.Uint64(buf[:])
	if size >= 8 {
		return v
	}
	return v & (1<<(8*size) - 1)
}
