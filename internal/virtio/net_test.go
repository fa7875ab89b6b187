package virtio

import (
	"bytes"
	"testing"

	"vmsh/internal/mem"
)

func setupNet(t *testing.T) (*NetDriver, *NetDevice, *Env) {
	t.Helper()
	env, io := newEnv()
	mac := [6]byte{0x52, 0x56, 0x4d, 0, 0, 1}
	dev := NewNetDevice(devBase, mac, io)
	env.Bus = &directBus{handler: dev}
	var drv *NetDriver
	dev.SignalIRQ = func() {
		if drv != nil {
			drv.HandleIRQ()
		}
	}
	d, err := ProbeNet(env, devBase)
	if err != nil {
		t.Fatal(err)
	}
	drv = d
	return d, dev, env
}

func TestNetProbeNegotiation(t *testing.T) {
	d, dev, _ := setupNet(t)
	if dev.Dev.DriverFeatures()&NetFMac == 0 {
		t.Fatal("driver did not accept NetFMac")
	}
	if d.MAC() != [6]byte{0x52, 0x56, 0x4d, 0, 0, 1} {
		t.Fatalf("MAC from config space = %x", d.MAC())
	}
}

func TestNetProbeWrongDeviceID(t *testing.T) {
	env, io := newEnv()
	dev := NewConsoleDevice(devBase, io)
	env.Bus = &directBus{handler: dev}
	if _, err := ProbeNet(env, devBase); err == nil {
		t.Fatal("net probe succeeded against a console device")
	}
}

func TestNetTransmitReachesSwitchSide(t *testing.T) {
	d, dev, _ := setupNet(t)
	var sent [][]byte
	dev.SendFrame = func(f []byte) { sent = append(sent, append([]byte(nil), f...)) }

	frame := bytes.Repeat([]byte{0xab}, 60)
	if err := d.Send(frame); err != nil {
		t.Fatal(err)
	}
	if len(sent) != 1 || !bytes.Equal(sent[0], frame) {
		t.Fatalf("device saw %d frames, first %x", len(sent), sent)
	}
	if d.TxFrames != 1 {
		t.Fatalf("TxFrames = %d", d.TxFrames)
	}
}

func TestNetReceiveDelivery(t *testing.T) {
	d, dev, _ := setupNet(t)
	var got [][]byte
	d.OnReceive = func(f []byte) { got = append(got, append([]byte(nil), f...)) }

	frames := [][]byte{
		bytes.Repeat([]byte{0x01}, 64),
		bytes.Repeat([]byte{0x02}, 1514),
		[]byte("short"),
	}
	for _, f := range frames {
		dev.DeliverToGuest(f)
	}
	if len(got) != len(frames) {
		t.Fatalf("guest received %d frames, want %d", len(got), len(frames))
	}
	for i := range frames {
		if !bytes.Equal(got[i], frames[i]) {
			t.Fatalf("frame %d mismatch: %d vs %d bytes", i, len(got[i]), len(frames[i]))
		}
	}
	if d.RxFrames != int64(len(frames)) {
		t.Fatalf("RxFrames = %d", d.RxFrames)
	}
}

// TestNetRxBackpressure floods more frames than there are posted rx
// buffers; the device must hold the excess until buffers repost.
func TestNetRxBackpressure(t *testing.T) {
	env, io := newEnv()
	dev := NewNetDevice(devBase, [6]byte{1, 2, 3, 4, 5, 6}, io)
	env.Bus = &directBus{handler: dev}
	// Defer IRQ handling: frames pile up in the device.
	irqs := 0
	dev.SignalIRQ = func() { irqs++ }
	d, err := ProbeNet(env, devBase)
	if err != nil {
		t.Fatal(err)
	}
	var got int
	d.OnReceive = func([]byte) { got++ }

	total := netRxBufCount + 10
	for i := 0; i < total; i++ {
		dev.DeliverToGuest([]byte{byte(i)})
	}
	// Only netRxBufCount buffers were posted; the rest are pending.
	if irqs == 0 {
		t.Fatal("no interrupt raised")
	}
	d.HandleIRQ() // harvest + repost buffers
	// Reposting alone doesn't notify the device; the driver's notify
	// doorbell does. Kick the rx queue as the driver would.
	env.Bus.MMIOWrite(devBase+RegQueueNotify, 4, NetRxQ)
	d.HandleIRQ()
	if got != total {
		t.Fatalf("guest received %d frames, want %d", got, total)
	}
}

// TestNetDeviceUsesOnlyPhysIO checks the external-device invariant: a
// net device given a counting PhysIO performs every queue and frame
// access through it.
func TestNetDeviceUsesOnlyPhysIO(t *testing.T) {
	env, io := newEnv()
	cio := &countingIO{PhysIO: io}
	dev := NewNetDevice(devBase, [6]byte{1, 2, 3, 4, 5, 6}, cio)
	env.Bus = &directBus{handler: dev}
	var drv *NetDriver
	dev.SignalIRQ = func() {
		if drv != nil {
			drv.HandleIRQ()
		}
	}
	d, err := ProbeNet(env, devBase)
	if err != nil {
		t.Fatal(err)
	}
	drv = d
	var rx int
	d.OnReceive = func([]byte) { rx++ }

	cio.reads, cio.writes = 0, 0
	if err := d.Send(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	dev.DeliverToGuest(make([]byte, 100))
	if rx != 1 {
		t.Fatalf("rx = %d", rx)
	}
	if cio.reads == 0 || cio.writes == 0 {
		t.Fatalf("device bypassed PhysIO: reads=%d writes=%d", cio.reads, cio.writes)
	}
}

type countingIO struct {
	mem.PhysIO
	reads  int
	writes int
}

func (c *countingIO) ReadPhys(gpa mem.GPA, buf []byte) error {
	c.reads++
	return c.PhysIO.ReadPhys(gpa, buf)
}

func (c *countingIO) WritePhys(gpa mem.GPA, buf []byte) error {
	c.writes++
	return c.PhysIO.WritePhys(gpa, buf)
}

func (c *countingIO) ReadPhysVec(vecs []mem.Vec) error {
	c.reads++
	return c.PhysIO.ReadPhysVec(vecs)
}

func (c *countingIO) WritePhysVec(vecs []mem.Vec) error {
	c.writes++
	return c.PhysIO.WritePhysVec(vecs)
}

func TestNetSendChargesClock(t *testing.T) {
	d, dev, env := setupNet(t)
	dev.SendFrame = func([]byte) {}
	before := env.Clock.Now()
	if err := d.Send(make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if env.Clock.Since(before) <= 0 {
		t.Fatal("net TX advanced no virtual time")
	}
}
