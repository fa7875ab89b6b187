package virtio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"testing/quick"

	"vmsh/internal/mem"
	"vmsh/internal/vclock"
)

// directBus routes guest MMIO accesses straight to a device handler —
// a stand-in for the kvm exit path in unit tests.
type directBus struct {
	handler interface {
		MMIO(gpa mem.GPA, size int, write bool, value uint64) uint64
	}
}

func (b *directBus) MMIORead(gpa mem.GPA, size int) uint64 {
	return b.handler.MMIO(gpa, size, false, 0)
}
func (b *directBus) MMIOWrite(gpa mem.GPA, size int, value uint64) {
	b.handler.MMIO(gpa, size, true, value)
}

// memBackend is an in-memory BlkBackend.
type memBackend struct{ data []byte }

func (m *memBackend) span(off int64, n int) ([]byte, error) {
	if off < 0 || off > int64(len(m.data))-int64(n) {
		return nil, fmt.Errorf("memBackend: [%d,+%d) past %d bytes", off, n, len(m.data))
	}
	return m.data[off : off+int64(n)], nil
}

func (m *memBackend) ReadBlk(off int64, buf []byte) error {
	b, err := m.span(off, len(buf))
	copy(buf, b)
	return err
}

func (m *memBackend) WriteBlk(off int64, buf []byte) error {
	b, err := m.span(off, len(buf))
	copy(b, buf)
	return err
}
func (m *memBackend) FlushBlk() error { return nil }
func (m *memBackend) Capacity() int64 { return int64(len(m.data)) }

func newEnv() (*Env, mem.SlabIO) {
	slab := mem.NewPhys(0, 64<<20)
	io := mem.SlabIO{Phys: slab}
	return &Env{
		Bus:   nil,
		Mem:   io,
		Alloc: mem.NewBumpAlloc(1<<20, 64<<20),
		Clock: vclock.New(),
		Costs: vclock.Default(),
	}, io
}

const devBase = mem.GPA(0xd0000000)

func TestQueueLayoutSizes(t *testing.T) {
	d, a, u := QueueLayout(256)
	if d != 4096 || a != 516 || u != 2052 {
		t.Fatalf("layout = %d/%d/%d", d, a, u)
	}
}

func TestDescCodecRoundTrip(t *testing.T) {
	_, io := newEnv()
	want := Desc{Addr: 0x123000, Len: 4096, Flags: DescFlagNext | DescFlagWrite, Next: 7}
	if err := writeDesc(io, 0x1000, 3, want); err != nil {
		t.Fatal(err)
	}
	got, err := readDesc(io, 0x1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("desc = %+v", got)
	}
}

func setupBlk(t *testing.T) (*BlkDriver, *BlkDevice, *memBackend, *Env) {
	t.Helper()
	env, io := newEnv()
	backend := &memBackend{data: make([]byte, 8<<20)}
	dev := NewBlkDevice(devBase, io, backend, env.Clock, env.Costs)
	env.Bus = &directBus{handler: dev}
	var drv *BlkDriver
	dev.SignalIRQ = func() {
		if drv != nil {
			drv.HandleIRQ()
		}
	}
	d, err := ProbeBlk(env, devBase)
	if err != nil {
		t.Fatal(err)
	}
	drv = d
	return d, dev, backend, env
}

func TestBlkProbeNegotiation(t *testing.T) {
	d, dev, _, _ := setupBlk(t)
	if d.Size() != 8<<20 {
		t.Fatalf("capacity = %d", d.Size())
	}
	if dev.Dev.DriverFeatures()&BlkFFlush == 0 {
		t.Fatal("driver did not accept FLUSH")
	}
	if d.SupportsFUA() {
		t.Fatal("FUA must not be negotiated over virtio")
	}
}

func TestBlkProbeWrongDeviceID(t *testing.T) {
	env, io := newEnv()
	dev := NewConsoleDevice(devBase, io)
	env.Bus = &directBus{handler: dev}
	if _, err := ProbeBlk(env, devBase); err == nil {
		t.Fatal("blk probe succeeded against a console device")
	}
}

func TestBlkReadWriteRoundTrip(t *testing.T) {
	d, _, backend, _ := setupBlk(t)
	msg := bytes.Repeat([]byte("0123456789abcdef"), 256) // 4 KiB
	if err := d.WriteAt(4096, msg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(backend.data[4096:8192], msg) {
		t.Fatal("payload did not reach backend through the virtqueue")
	}
	got := make([]byte, 4096)
	if err := d.ReadAt(4096, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("read back mismatch")
	}
}

func TestBlkLargeRequestSegmented(t *testing.T) {
	d, dev, backend, _ := setupBlk(t)
	big := make([]byte, 2<<20)
	for i := range big {
		big[i] = byte(i * 31)
	}
	if err := d.WriteAt(0, big); err != nil {
		t.Fatal(err)
	}
	if dev.Requests != 16 { // 2 MiB / 128 KiB segments
		t.Fatalf("device saw %d requests, want 16", dev.Requests)
	}
	if !bytes.Equal(backend.data[:len(big)], big) {
		t.Fatal("large write corrupted")
	}
}

func TestBlkUnalignedRejected(t *testing.T) {
	d, _, _, _ := setupBlk(t)
	if err := d.WriteAt(100, make([]byte, 512)); err == nil {
		t.Fatal("unaligned offset accepted")
	}
	if err := d.ReadAt(0, make([]byte, 100)); err == nil {
		t.Fatal("unaligned length accepted")
	}
}

// rawBlkRequest publishes one request with a hand-built header, so a
// test can send a sector the driver's int64 offsets cannot express. It
// returns the status byte and the payload buffer as the device left it
// (pre-filled with 0xee so untouched bytes show).
func rawBlkRequest(t *testing.T, d *BlkDriver, typ uint32, sector uint64, n int) (byte, []byte) {
	t.Helper()
	hdrGPA, dataGPA := d.bounce, d.bounce+mem.PageSize
	statusGPA := d.bounce + mem.GPA(d.bounceSz-mem.PageSize)
	hdr := make([]byte, blkHdrSize)
	binary.LittleEndian.PutUint32(hdr[0:], typ)
	binary.LittleEndian.PutUint64(hdr[8:], sector)
	payload := bytes.Repeat([]byte{0xee}, n)
	for _, w := range []struct {
		gpa mem.GPA
		b   []byte
	}{{hdrGPA, hdr}, {dataGPA, payload}, {statusGPA, []byte{0xff}}} {
		if err := d.env.Mem.WritePhys(w.gpa, w.b); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.q.Publish(0, []ChainElem{
		{Addr: hdrGPA, Len: blkHdrSize},
		{Addr: dataGPA, Len: uint32(n), Write: typ == BlkTIn},
		{Addr: statusGPA, Len: 1, Write: true},
	}); err != nil {
		t.Fatal(err)
	}
	d.env.Bus.MMIOWrite(d.base+RegQueueNotify, 4, 0)
	if !d.completed[0] {
		t.Fatal("request did not complete")
	}
	delete(d.completed, 0)
	var status [1]byte
	if err := d.env.Mem.ReadPhys(statusGPA, status[:]); err != nil {
		t.Fatal(err)
	}
	if err := d.env.Mem.ReadPhys(dataGPA, payload); err != nil {
		t.Fatal(err)
	}
	return status[0], payload
}

// TestBlkWrappingSectorIsIOErr: sector 2^55 has no int64 byte offset —
// 2^55 * 512 wraps to 0 — so a request for it must fail with an
// IO-error status on both service paths, never read or write sector 0.
func TestBlkWrappingSectorIsIOErr(t *testing.T) {
	for _, batch := range []bool{false, true} {
		d, dev, backend, _ := setupBlk(t)
		dev.Batch = batch
		sector0 := bytes.Repeat([]byte("s0"), 256)
		copy(backend.data, sector0)

		status, got := rawBlkRequest(t, d, BlkTIn, 1<<55, 512)
		if status != BlkStatusIOErr {
			t.Errorf("batch=%v: read of sector 2^55: status %d, want IOERR", batch, status)
		}
		if bytes.Equal(got, sector0) {
			t.Errorf("batch=%v: read of sector 2^55 returned sector 0's bytes", batch)
		}
		if status, _ := rawBlkRequest(t, d, BlkTOut, 1<<55, 512); status != BlkStatusIOErr {
			t.Errorf("batch=%v: write of sector 2^55: status %d, want IOERR", batch, status)
		}
		if !bytes.Equal(backend.data[:512], sector0) {
			t.Errorf("batch=%v: write of sector 2^55 overwrote sector 0", batch)
		}
	}
}

func TestBlkFlushReachesBackend(t *testing.T) {
	env, io := newEnv()
	flushed := 0
	backend := &flushCounter{memBackend{data: make([]byte, 1<<20)}, &flushed}
	dev := NewBlkDevice(devBase, io, backend, env.Clock, env.Costs)
	env.Bus = &directBus{handler: dev}
	var drv *BlkDriver
	dev.SignalIRQ = func() { drv.HandleIRQ() }
	d, err := ProbeBlk(env, devBase)
	if err != nil {
		t.Fatal(err)
	}
	drv = d
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if flushed != 1 {
		t.Fatalf("flushes = %d", flushed)
	}
}

type flushCounter struct {
	memBackend
	n *int
}

func (f *flushCounter) FlushBlk() error { *f.n++; return nil }

func TestBlkPropertyRoundTrip(t *testing.T) {
	d, _, _, _ := setupBlk(t)
	f := func(seed uint32, sectors uint8) bool {
		n := (int(sectors)%8 + 1) * 512
		off := int64(seed%1024) * 512
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(seed + uint32(i))
		}
		if err := d.WriteAt(off, buf); err != nil {
			return false
		}
		got := make([]byte, n)
		if err := d.ReadAt(off, got); err != nil {
			return false
		}
		return bytes.Equal(buf, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConsoleEcho(t *testing.T) {
	env, io := newEnv()
	dev := NewConsoleDevice(devBase, io)
	env.Bus = &directBus{handler: dev}
	var hostOut bytes.Buffer
	dev.Output = func(b []byte) { hostOut.Write(b) }
	var drv *ConsoleDriver
	dev.SignalIRQ = func() {
		if drv != nil {
			drv.HandleIRQ()
		}
	}
	c, err := ProbeConsole(env, devBase)
	if err != nil {
		t.Fatal(err)
	}
	drv = c
	var guestIn bytes.Buffer
	c.OnInput = func(b []byte) { guestIn.Write(b) }

	// Host -> guest.
	dev.SendToGuest([]byte("echo hello\n"))
	if guestIn.String() != "echo hello\n" {
		t.Fatalf("guest received %q", guestIn.String())
	}
	// Guest -> host.
	if err := c.Write([]byte("hello\n")); err != nil {
		t.Fatal(err)
	}
	if hostOut.String() != "hello\n" {
		t.Fatalf("host received %q", hostOut.String())
	}
}

func TestConsoleManyMessages(t *testing.T) {
	env, io := newEnv()
	dev := NewConsoleDevice(devBase, io)
	env.Bus = &directBus{handler: dev}
	var drv *ConsoleDriver
	dev.SignalIRQ = func() {
		if drv != nil {
			drv.HandleIRQ()
		}
	}
	c, err := ProbeConsole(env, devBase)
	if err != nil {
		t.Fatal(err)
	}
	drv = c
	var got bytes.Buffer
	c.OnInput = func(b []byte) { got.Write(b) }
	var want bytes.Buffer
	for i := 0; i < 100; i++ {
		msg := []byte("line\n")
		want.Write(msg)
		dev.SendToGuest(msg)
	}
	if got.String() != want.String() {
		t.Fatalf("received %d bytes, want %d", got.Len(), want.Len())
	}
}

func TestBlkChargesClock(t *testing.T) {
	d, _, _, env := setupBlk(t)
	before := env.Clock.Now()
	_ = d.WriteAt(0, make([]byte, 64*1024))
	if env.Clock.Since(before) <= 0 {
		t.Fatal("virtio IO advanced no virtual time")
	}
}
