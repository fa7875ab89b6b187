package virtio

import (
	"errors"
	"testing"

	"vmsh/internal/mem"
)

func newDev() *MMIODev {
	slab := mem.NewPhys(0, 1<<20)
	return NewMMIODev(devBase, DeviceIDBlock, BlkFSegMax|BlkFFlush, []int{256, 64}, mem.SlabIO{Phys: slab})
}

func TestMMIOIdentityRegisters(t *testing.T) {
	d := newDev()
	if got := d.MMIO(devBase+RegMagicValue, 4, false, 0); got != MagicValue {
		t.Fatalf("magic %#x", got)
	}
	if got := d.MMIO(devBase+RegVersion, 4, false, 0); got != 2 {
		t.Fatalf("version %d", got)
	}
	if got := d.MMIO(devBase+RegDeviceID, 4, false, 0); got != DeviceIDBlock {
		t.Fatalf("device id %d", got)
	}
}

func TestMMIOFeatureWindows(t *testing.T) {
	d := newDev()
	d.Features = 0xdeadbeef00c0ffee
	d.MMIO(devBase+RegDeviceFeatSel, 4, true, 0)
	lo := d.MMIO(devBase+RegDeviceFeatures, 4, false, 0)
	d.MMIO(devBase+RegDeviceFeatSel, 4, true, 1)
	hi := d.MMIO(devBase+RegDeviceFeatures, 4, false, 0)
	if lo != 0x00c0ffee || hi != 0xdeadbeef {
		t.Fatalf("feature windows %#x %#x", lo, hi)
	}
	// Driver writes land in the right halves.
	d.MMIO(devBase+RegDriverFeatSel, 4, true, 0)
	d.MMIO(devBase+RegDriverFeatures, 4, true, 0x1111)
	d.MMIO(devBase+RegDriverFeatSel, 4, true, 1)
	d.MMIO(devBase+RegDriverFeatures, 4, true, 0x2222)
	if d.DriverFeatures() != 0x0000222200001111 {
		t.Fatalf("driver features %#x", d.DriverFeatures())
	}
}

func TestMMIOQueueSelection(t *testing.T) {
	d := newDev()
	d.MMIO(devBase+RegQueueSel, 4, true, 0)
	if got := d.MMIO(devBase+RegQueueNumMax, 4, false, 0); got != 256 {
		t.Fatalf("q0 max %d", got)
	}
	d.MMIO(devBase+RegQueueSel, 4, true, 1)
	if got := d.MMIO(devBase+RegQueueNumMax, 4, false, 0); got != 64 {
		t.Fatalf("q1 max %d", got)
	}
	// Absent queue reports 0.
	d.MMIO(devBase+RegQueueSel, 4, true, 7)
	if got := d.MMIO(devBase+RegQueueNumMax, 4, false, 0); got != 0 {
		t.Fatalf("absent queue max %d", got)
	}
}

func TestMMIOQueueAddressSplit(t *testing.T) {
	d := newDev()
	d.MMIO(devBase+RegQueueSel, 4, true, 0)
	d.MMIO(devBase+RegQueueNum, 4, true, 8)
	d.MMIO(devBase+RegQueueDescLow, 4, true, 0xdead0000)
	d.MMIO(devBase+RegQueueDescHigh, 4, true, 0x12)
	d.MMIO(devBase+RegQueueReady, 4, true, 1)
	dq := d.DeviceQueue(0)
	if dq.Desc != 0x12dead0000 {
		t.Fatalf("desc %#x", dq.Desc)
	}
	if dq.Size != 8 {
		t.Fatalf("size %d", dq.Size)
	}
}

func TestMMIOStatusDriverOKHook(t *testing.T) {
	d := newDev()
	fired := 0
	d.OnDriverOK = func() { fired++ }
	d.MMIO(devBase+RegStatus, 4, true, StatusAcknowledge)
	d.MMIO(devBase+RegStatus, 4, true, StatusAcknowledge|StatusDriver)
	if fired != 0 {
		t.Fatal("fired early")
	}
	ok := uint64(StatusAcknowledge | StatusDriver | StatusFeaturesOK | StatusDriverOK)
	d.MMIO(devBase+RegStatus, 4, true, ok)
	d.MMIO(devBase+RegStatus, 4, true, ok) // re-writing does not refire
	if fired != 1 {
		t.Fatalf("fired %d times", fired)
	}
	if got := d.MMIO(devBase+RegStatus, 4, false, 0); got != ok {
		t.Fatalf("status readback %#x", got)
	}
}

func TestMMIOInterruptLatch(t *testing.T) {
	d := newDev()
	if got := d.MMIO(devBase+RegInterruptStatus, 4, false, 0); got != 0 {
		t.Fatal("isr set at reset")
	}
	d.RaiseInterrupt()
	if got := d.MMIO(devBase+RegInterruptStatus, 4, false, 0); got != 1 {
		t.Fatalf("isr %d", got)
	}
	d.MMIO(devBase+RegInterruptACK, 4, true, 1)
	if got := d.MMIO(devBase+RegInterruptStatus, 4, false, 0); got != 0 {
		t.Fatal("ack did not clear")
	}
}

func TestMMIOConfigSpaceSizes(t *testing.T) {
	d := newDev()
	d.ConfigSpace = []byte{0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11}
	if got := d.MMIO(devBase+RegConfig, 4, false, 0); got != 0x55667788 {
		t.Fatalf("u32 config %#x", got)
	}
	if got := d.MMIO(devBase+RegConfig, 8, false, 0); got != 0x1122334455667788 {
		t.Fatalf("u64 config %#x", got)
	}
	if got := d.MMIO(devBase+RegConfig+4, 2, false, 0); got != 0x3344 {
		t.Fatalf("u16 config at +4 %#x", got)
	}
	// Past the config space reads zero.
	if got := d.MMIO(devBase+RegConfig+16, 4, false, 0); got != 0 {
		t.Fatalf("oob config %#x", got)
	}
}

// TestMMIOHookPanicRecovers: a device hook runs after its register
// write has taken effect, so a panic in a service path reaches the
// caller as itself — recoverable, with its own value — and the device
// stays usable.
func TestMMIOHookPanicRecovers(t *testing.T) {
	d := newDev()
	boom := errors.New("service path failed")
	d.OnNotify = func(int) { panic(boom) }
	d.OnDriverOK = func() { panic(boom) }
	for _, w := range []struct {
		reg   mem.GPA
		value uint64
	}{{RegQueueNotify, 0}, {RegStatus, StatusDriverOK}} {
		got := func() (r any) {
			defer func() { r = recover() }()
			d.MMIO(devBase+w.reg, 4, true, w.value)
			return nil
		}()
		if got != boom {
			t.Fatalf("write %#x: recovered %v, want the hook's own panic", w.reg, got)
		}
		if got := d.MMIO(devBase+RegMagicValue, 4, false, 0); got != MagicValue {
			t.Fatalf("device unusable after the hook panicked: magic %#x", got)
		}
	}
}

// TestMMIOGuestQueueIndexes: queue indexes come from the guest. One
// past the device's queues, or all-ones from an 8-byte write, selects
// no queue: its registers read 0 and writes to them go nowhere, and a
// notify for it reaches no hook.
func TestMMIOGuestQueueIndexes(t *testing.T) {
	for _, sel := range []uint64{2, 7, 1 << 32, ^uint64(0)} {
		d := newDev()
		notified := 0
		d.OnNotify = func(int) { notified++ }
		d.MMIO(devBase+RegQueueSel, 8, true, sel)
		for _, reg := range []mem.GPA{RegQueueNum, RegQueueDescLow, RegQueueDescHigh,
			RegQueueDriverLow, RegQueueDriverHigh, RegQueueDeviceLow, RegQueueDeviceHigh, RegQueueReady} {
			d.MMIO(devBase+reg, 4, true, 1)
		}
		if got := d.MMIO(devBase+RegQueueNumMax, 4, false, 0); got != 0 {
			t.Errorf("queue %#x: QueueNumMax %d, want 0", sel, got)
		}
		if got := d.MMIO(devBase+RegQueueReady, 4, false, 0); got != 0 {
			t.Errorf("queue %#x: QueueReady %d, want 0", sel, got)
		}
		for q := 0; q < 2; q++ {
			if dq := d.DeviceQueue(q); dq.Size != 0 || dq.Desc != 0 || d.liveQueue(q) != nil {
				t.Errorf("queue %#x: a write reached queue %d", sel, q)
			}
		}
		d.MMIO(devBase+RegQueueNotify, 8, true, sel)
		if notified != 0 {
			t.Errorf("queue %#x: notify reached the hook", sel)
		}
	}
	d := newDev()
	if d.DeviceQueue(-1) != nil || d.DeviceQueue(2) != nil || d.liveQueue(-1) != nil {
		t.Error("DeviceQueue/liveQueue accepted an index outside the device's queues")
	}
	// A size past the queue's maximum never makes it live.
	d.MMIO(devBase+RegQueueSel, 4, true, 1)
	d.MMIO(devBase+RegQueueNum, 4, true, 65)
	d.MMIO(devBase+RegQueueReady, 4, true, 1)
	if d.liveQueue(1) != nil {
		t.Error("queue 1 live with 65 entries, maximum 64")
	}
}
