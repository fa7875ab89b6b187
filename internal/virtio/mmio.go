package virtio

import (
	"encoding/binary"
	"sync"

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
	// blockdev.Device.SupportsFUA.
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

	mu          sync.Mutex
	queues      []queueState
	queueSel    int
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
func (d *MMIODev) DriverFeatures() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.driverFeats
}

// DeviceQueue returns the device-side view of queue q, creating it
// from the programmed registers on first use. Ring cursors persist
// until the driver toggles QueueReady.
func (d *MMIODev) DeviceQueue(q int) *DeviceQueue {
	d.mu.Lock()
	defer d.mu.Unlock()
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

// queueLive reports whether queue q has been fully configured.
func (d *MMIODev) queueLive(q int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return q < len(d.queues) && d.queues[q].ready && d.queues[q].num > 0
}

// RaiseInterrupt latches the used-buffer interrupt bit. The caller
// signals the actual irq (irqfd or direct injection).
func (d *MMIODev) RaiseInterrupt() {
	d.mu.Lock()
	d.intrStatus |= 1
	d.intrCount++
	d.mu.Unlock()
	d.IRQs.Inc()
	d.Trace.Event("irq", "raise")
}

// InterruptCount reports how many interrupts this device has raised —
// the IRQ-coalescing observable surfaced through core.Session stats.
func (d *MMIODev) InterruptCount() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.intrCount
}

// MMIO implements the register access protocol; it satisfies
// kvm.MMIOHandler structurally.
func (d *MMIODev) MMIO(gpa mem.GPA, size int, write bool, value uint64) uint64 {
	off := int(gpa - d.Base)
	if off >= RegConfig {
		return d.configAccess(off-RegConfig, size, write, value)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !write {
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
			if d.queueSel < len(d.queues) {
				return uint64(d.queues[d.queueSel].numMax)
			}
			return 0
		case RegQueueReady:
			if d.queueSel < len(d.queues) && d.queues[d.queueSel].ready {
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
		d.queueSel = int(value)
	case RegQueueNum:
		if d.queueSel < len(d.queues) {
			d.queues[d.queueSel].num = uint32(value)
		}
	case RegQueueReady:
		if d.queueSel < len(d.queues) {
			d.queues[d.queueSel].ready = value == 1
			d.queues[d.queueSel].dq = nil // reconfiguration resets cursors
		}
	case RegQueueDescLow:
		d.setAddr(&d.queues[d.queueSel].desc, value, false)
	case RegQueueDescHigh:
		d.setAddr(&d.queues[d.queueSel].desc, value, true)
	case RegQueueDriverLow:
		d.setAddr(&d.queues[d.queueSel].driver, value, false)
	case RegQueueDriverHigh:
		d.setAddr(&d.queues[d.queueSel].driver, value, true)
	case RegQueueDeviceLow:
		d.setAddr(&d.queues[d.queueSel].device, value, false)
	case RegQueueDeviceHigh:
		d.setAddr(&d.queues[d.queueSel].device, value, true)
	case RegInterruptACK:
		d.intrStatus &^= uint32(value)
	case RegStatus:
		prev := d.status
		d.status = uint32(value)
		if value&StatusDriverOK != 0 && prev&StatusDriverOK == 0 && d.OnDriverOK != nil {
			d.mu.Unlock()
			d.OnDriverOK()
			d.mu.Lock()
		}
	case RegQueueNotify:
		if d.OnNotify != nil {
			q := int(value)
			d.mu.Unlock()
			d.OnNotify(q)
			d.mu.Lock()
		}
	}
	return 0
}

func (d *MMIODev) setAddr(dst *uint64, value uint64, high bool) {
	if high {
		*dst = *dst&0xffffffff | value<<32
	} else {
		*dst = *dst&^uint64(0xffffffff) | value&0xffffffff
	}
}

func (d *MMIODev) configAccess(off, size int, write bool, value uint64) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
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
