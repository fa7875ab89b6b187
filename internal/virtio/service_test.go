package virtio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"vmsh/internal/mem"
)

// crossingLog is a device's view of guest memory that logs every
// crossing it makes: direction, segment count and byte count, one line
// each. It is vectored like VMSH's process_vm view, so a batched
// crossing is one line however many segments it carries. Interrupts the
// device signals are logged too, as "irq" lines.
type crossingLog struct {
	io  mem.SlabIO
	log bytes.Buffer
}

func (c *crossingLog) note(dir string, vecs []mem.Vec) {
	n := 0
	for _, v := range vecs {
		n += len(v.Buf)
	}
	fmt.Fprintf(&c.log, "%s %d %d\n", dir, len(vecs), n)
}

func (c *crossingLog) ReadPhys(gpa mem.GPA, buf []byte) error {
	return c.ReadPhysVec([]mem.Vec{{GPA: gpa, Buf: buf}})
}

func (c *crossingLog) WritePhys(gpa mem.GPA, buf []byte) error {
	return c.WritePhysVec([]mem.Vec{{GPA: gpa, Buf: buf}})
}

func (c *crossingLog) ReadPhysVec(vecs []mem.Vec) error {
	c.note("r", vecs)
	return c.io.ReadPhysVec(vecs)
}

func (c *crossingLog) WritePhysVec(vecs []mem.Vec) error {
	c.note("w", vecs)
	return c.io.WritePhysVec(vecs)
}

func (c *crossingLog) Contains(gpa mem.GPA, n int) bool { return c.io.Contains(gpa, n) }

func (c *crossingLog) Size() uint64 { return c.io.Size() }

// digest is the FNV-64a of the log.
func (c *crossingLog) digest() uint64 {
	h := fnv.New64a()
	h.Write(c.log.Bytes())
	return h.Sum64()
}

// serviceMix runs a fixed mix of requests through blk, console and net
// devices whose guest-memory crossings all land in one log. The guest
// drivers use the slab directly, so only the devices' crossings count.
func serviceMix(t *testing.T, batch bool) *crossingLog {
	t.Helper()
	env, io := newEnv()
	rec := &crossingLog{io: io}
	irq := func(handle func()) func() {
		return func() {
			rec.log.WriteString("irq\n")
			handle()
		}
	}

	// Blk: a read, a write, a flush, an 8-request burst and a chain
	// too short to carry a status byte.
	backend := &memBackend{data: make([]byte, 8<<20)}
	blk := NewBlkDevice(devBase, rec, backend, env.Clock, env.Costs)
	blk.Batch = batch
	env.Bus = &directBus{handler: blk}
	var bd *BlkDriver
	blk.SignalIRQ = irq(func() { bd.HandleIRQ() })
	bd, err := ProbeBlk(env, devBase)
	if err != nil {
		t.Fatal(err)
	}
	page := bytes.Repeat([]byte{0x5a}, 4096)
	if err := bd.WriteAt(8192, page); err != nil {
		t.Fatal(err)
	}
	if err := bd.ReadAt(8192, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := bd.Flush(); err != nil {
		t.Fatal(err)
	}
	var burst []BlkReq
	for i := 0; i < 8; i++ {
		typ := uint32(BlkTIn)
		if i%2 == 1 {
			typ = BlkTOut
		}
		burst = append(burst, BlkReq{Typ: typ, Off: int64(i) * 4096, Buf: make([]byte, 512*(i+1))})
	}
	if err := bd.SubmitBatch(burst); err != nil {
		t.Fatal(err)
	}
	if err := bd.q.Publish(0, []ChainElem{{Addr: bd.bounce, Len: blkHdrSize}}); err != nil {
		t.Fatal(err)
	}
	env.Bus.MMIOWrite(devBase+RegQueueNotify, 4, 0)

	// Console: a tx write and an rx message longer than one buffer.
	const consBase = devBase + MMIOSize
	cons := NewConsoleDevice(consBase, rec)
	cons.Batch = batch
	cons.Output = func([]byte) {}
	env.Bus = &directBus{handler: cons}
	var cd *ConsoleDriver
	cons.SignalIRQ = irq(func() { cd.HandleIRQ() })
	if cd, err = ProbeConsole(env, consBase); err != nil {
		t.Fatal(err)
	}
	var in bytes.Buffer
	cd.OnInput = func(b []byte) { in.Write(b) }
	if err := cd.Write([]byte("hello from the guest\n")); err != nil {
		t.Fatal(err)
	}
	long := bytes.Repeat([]byte("0123456789"), 150)
	cons.SendToGuest(long)
	if !bytes.Equal(in.Bytes(), long) {
		t.Fatalf("batch=%v: console rx delivered %d of %d bytes", batch, in.Len(), len(long))
	}

	// Net: a tx frame and an rx frame longer than its buffer.
	const netBase = consBase + MMIOSize
	nd := NewNetDevice(netBase, [6]byte{0x52, 0x56, 0x4d, 0, 0, 1}, rec)
	nd.Batch = batch
	nd.SendFrame = func([]byte) {}
	env.Bus = &directBus{handler: nd}
	var nr *NetDriver
	nd.SignalIRQ = irq(func() { nr.HandleIRQ() })
	if nr, err = ProbeNet(env, netBase); err != nil {
		t.Fatal(err)
	}
	var frames int
	nr.OnReceive = func([]byte) { frames++ }
	if err := nr.Send(bytes.Repeat([]byte{0xab}, 60)); err != nil {
		t.Fatal(err)
	}
	nd.DeliverToGuest(bytes.Repeat([]byte{0xcd}, 3000))
	if frames != 1 {
		t.Fatalf("batch=%v: net rx delivered %d frames, want 1", batch, frames)
	}
	return rec
}

// TestServiceCrossings pins every guest-memory crossing, not only the
// totals the ledger compares: the digest of each mode's crossing log
// over a fixed request mix. The per-chain grouping is the crossing
// pattern Figures 5 and 6 measure.
func TestServiceCrossings(t *testing.T) {
	for _, tc := range []struct {
		batch bool
		want  uint64
	}{
		{false, 0x69f1d67d50c8055f},
		{true, 0xb915a1a84b43ebca},
	} {
		rec := serviceMix(t, tc.batch)
		if got := rec.digest(); got != tc.want {
			t.Errorf("batch=%v: crossing log digest %#x, want %#x; log:\n%s", tc.batch, got, tc.want, rec.log.String())
		}
	}
}

// BenchmarkServiceQueue measures one virtqueue service pass: a burst
// of 16 reads of 4 KiB submitted behind one doorbell, served per chain
// and batched.
func BenchmarkServiceQueue(b *testing.B) {
	for _, mode := range []struct {
		name  string
		batch bool
	}{{"per_chain", false}, {"batched", true}} {
		b.Run(mode.name, func(b *testing.B) {
			env, io := newEnv()
			backend := &memBackend{data: make([]byte, 1<<20)}
			dev := NewBlkDevice(devBase, io, backend, env.Clock, env.Costs)
			dev.Batch = mode.batch
			env.Bus = &directBus{handler: dev}
			var drv *BlkDriver
			dev.SignalIRQ = func() { drv.HandleIRQ() }
			drv, err := ProbeBlk(env, devBase)
			if err != nil {
				b.Fatal(err)
			}
			reqs := make([]BlkReq, 16)
			for i := range reqs {
				reqs[i] = BlkReq{Typ: BlkTIn, Off: int64(i) * 4096, Buf: make([]byte, 4096)}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := drv.SubmitBatch(reqs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// publishFlushes publishes n flush requests as two-descriptor chains at
// table slots 0, 2, 4, ..., with their status bytes preset to 0xff.
func publishFlushes(t *testing.T, d *BlkDriver, n int) {
	t.Helper()
	var hdr [blkHdrSize]byte
	binary.LittleEndian.PutUint32(hdr[:], BlkTFlush)
	for i := 0; i < n; i++ {
		hdrGPA := d.bounce + mem.GPA(i*blkHdrSize)
		statusGPA := d.bounce + mem.PageSize + mem.GPA(i)
		if err := d.env.Mem.WritePhys(hdrGPA, hdr[:]); err != nil {
			t.Fatal(err)
		}
		if err := d.env.Mem.WritePhys(statusGPA, []byte{0xff}); err != nil {
			t.Fatal(err)
		}
		if err := d.q.Publish(2*i, []ChainElem{{Addr: hdrGPA, Len: blkHdrSize}, {Addr: statusGPA, Len: 1, Write: true}}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMalformedChainStopsQueue: in both groupings, a malformed avail
// head or descriptor chain stops the queue at that chain. The chains
// before it complete; it and the chains after it stay pending, and a
// later doorbell stops at it again.
func TestMalformedChainStopsQueue(t *testing.T) {
	for _, batch := range []bool{false, true} {
		for _, bad := range []string{"avail head", "descriptor link"} {
			d, dev, _, env := setupBlk(t)
			dev.Batch = batch
			publishFlushes(t, d, 3)
			switch bad {
			case "avail head": // avail slot 1 names a head past the table
				if err := env.Mem.WritePhys(d.q.Avail+4+2, []byte{0xff, 0xff}); err != nil {
					t.Fatal(err)
				}
			case "descriptor link": // chain 1's header links past the table
				if err := writeDesc(env.Mem, d.q.Desc, 2, Desc{Addr: d.bounce + blkHdrSize, Len: blkHdrSize, Flags: DescFlagNext, Next: 0xffff}); err != nil {
					t.Fatal(err)
				}
			}
			for doorbell := 1; doorbell <= 2; doorbell++ {
				env.Bus.MMIOWrite(devBase+RegQueueNotify, 4, 0)
				c := dev.Dev.DeviceQueue(0).Cursors()
				if dev.Requests != 1 || c.LastAvail != 1 || c.UsedIdx != 1 {
					t.Errorf("batch=%v, malformed %s, doorbell %d: %d requests served, cursors %+v; want the queue stopped after chain 0",
						batch, bad, doorbell, dev.Requests, c)
				}
			}
		}
	}
}

// failingIO fails every crossing that touches the byte at bad.
type failingIO struct {
	mem.SlabIO
	bad mem.GPA
}

func (f failingIO) check(vecs []mem.Vec) error {
	for _, v := range vecs {
		if f.bad >= v.GPA && f.bad < v.GPA+mem.GPA(len(v.Buf)) {
			return fmt.Errorf("failingIO: crossing touches %#x", f.bad)
		}
	}
	return nil
}

func (f failingIO) ReadPhys(gpa mem.GPA, buf []byte) error {
	return f.ReadPhysVec([]mem.Vec{{GPA: gpa, Buf: buf}})
}

func (f failingIO) WritePhys(gpa mem.GPA, buf []byte) error {
	return f.WritePhysVec([]mem.Vec{{GPA: gpa, Buf: buf}})
}

func (f failingIO) ReadPhysVec(vecs []mem.Vec) error {
	if err := f.check(vecs); err != nil {
		return err
	}
	return f.SlabIO.ReadPhysVec(vecs)
}

func (f failingIO) WritePhysVec(vecs []mem.Vec) error {
	if err := f.check(vecs); err != nil {
		return err
	}
	return f.SlabIO.WritePhysVec(vecs)
}

// TestFailedCrossingAbortsPass: in both groupings, a guest-memory
// crossing that fails aborts the service pass without completing its
// chains. Here the read payload cannot be written back: the request
// gets no status byte and no used entry, and the driver sees it never
// complete.
func TestFailedCrossingAbortsPass(t *testing.T) {
	for _, batch := range []bool{false, true} {
		env, io := newEnv()
		dev := NewBlkDevice(devBase, io, &memBackend{data: make([]byte, 1<<20)}, env.Clock, env.Costs)
		dev.Batch = batch
		env.Bus = &directBus{handler: dev}
		var drv *BlkDriver
		dev.SignalIRQ = func() { drv.HandleIRQ() }
		drv, err := ProbeBlk(env, devBase)
		if err != nil {
			t.Fatal(err)
		}
		dataGPA := drv.bounce + mem.PageSize
		statusGPA := drv.bounce + mem.GPA(drv.bounceSz-mem.PageSize)
		dev.Dev.Mem = failingIO{SlabIO: io, bad: dataGPA}
		if err := io.WritePhys(statusGPA, []byte{0xff}); err != nil {
			t.Fatal(err)
		}
		if err := drv.ReadAt(0, make([]byte, 4096)); err == nil {
			t.Errorf("batch=%v: read completed although its payload never reached the guest", batch)
		}
		var status [1]byte
		if err := io.ReadPhys(statusGPA, status[:]); err != nil {
			t.Fatal(err)
		}
		c := dev.Dev.DeviceQueue(0).Cursors()
		if status[0] != 0xff || c.UsedIdx != 0 || dev.Dev.InterruptCount() != 0 {
			t.Errorf("batch=%v: status byte %#x, used index %d, %d interrupts; want the pass aborted untouched",
				batch, status[0], c.UsedIdx, dev.Dev.InterruptCount())
		}
	}
}

// TestPopEmptyQueueAllocs: a pass over an empty queue reads the avail
// ring into the queue's own buffer and allocates nothing.
func TestPopEmptyQueueAllocs(t *testing.T) {
	for _, batch := range []bool{false, true} {
		_, dev, _, _ := setupBlk(t)
		dq := dev.Dev.DeviceQueue(0)
		x := crossings{m: dq.M, batch: batch}
		if n := testing.AllocsPerRun(100, func() {
			if chains, err := dq.pop(x, dq.Size); len(chains) != 0 || err != nil {
				t.Fatalf("batch=%v: empty queue popped %d chains, err %v", batch, len(chains), err)
			}
		}); n != 0 {
			t.Errorf("batch=%v: popping an empty queue: %v allocs, want 0", batch, n)
		}
	}
}

// hostileClaim is a descriptor length 32 times the 64 MiB of guest
// memory newEnv provides.
const hostileClaim = 1 << 31

// Every descriptor of an overlapping chain names the same 4 MiB inside
// newEnv's guest memory, so each lies in guest memory while a queue's
// worth of them claims many times the memory there is.
const (
	overlapGPA = mem.GPA(32 << 20)
	overlapLen = 4 << 20
)

// hostileBuffers returns a chain's hostile buffers: one descriptor
// claiming hostileClaim bytes at gpa, or, with overlap, n descriptors
// naming the same 4 MiB.
func hostileBuffers(gpa mem.GPA, n int, write, overlap bool) []ChainElem {
	if !overlap {
		return []ChainElem{{Addr: gpa, Len: hostileClaim, Write: write}}
	}
	elems := make([]ChainElem, n)
	for i := range elems {
		elems[i] = ChainElem{Addr: overlapGPA, Len: overlapLen, Write: write}
	}
	return elems
}

// TestHostileDescriptorLength: a descriptor whose claimed length runs
// past guest memory is refused before the device allocates for it, and
// so is a pass whose buffers, each inside guest memory, together claim
// more than the guest memory there is: a queue's worth of descriptors
// naming the same 4 MiB. In both groupings the pass aborts as on a
// failed crossing: nothing panics, no chain completes, nothing is
// delivered, and the pass allocates far less than the claim.
func TestHostileDescriptorLength(t *testing.T) {
	for _, tc := range []struct {
		name string
		// publish wires the device, publishes the hostile chain and
		// returns the device and the queue to notify.
		publish func(t *testing.T, env *Env, io mem.SlabIO, batch, overlap bool) (*MMIODev, int)
	}{
		{"blk read", func(t *testing.T, env *Env, io mem.SlabIO, batch, overlap bool) (*MMIODev, int) {
			return hostileBlk(t, env, io, batch, overlap, BlkTIn, true)
		}},
		{"blk write", func(t *testing.T, env *Env, io mem.SlabIO, batch, overlap bool) (*MMIODev, int) {
			return hostileBlk(t, env, io, batch, overlap, BlkTOut, false)
		}},
		{"console tx", func(t *testing.T, env *Env, io mem.SlabIO, batch, overlap bool) (*MMIODev, int) {
			cons := NewConsoleDevice(devBase, io)
			cons.Batch = batch
			cons.Output = func([]byte) { t.Error("console delivered output") }
			env.Bus = &directBus{handler: cons}
			cd, err := ProbeConsole(env, devBase)
			if err != nil {
				t.Fatal(err)
			}
			if err := cd.tx.Publish(0, hostileBuffers(cd.txBuf, cd.tx.Size, false, overlap)); err != nil {
				t.Fatal(err)
			}
			return cons.Dev, ConsoleTxQ
		}},
		{"net tx", func(t *testing.T, env *Env, io mem.SlabIO, batch, overlap bool) (*MMIODev, int) {
			nd := NewNetDevice(devBase, [6]byte{0x52, 0x56, 0x4d, 0, 0, 1}, io)
			nd.Batch = batch
			nd.SendFrame = func([]byte) { t.Error("net sent a frame") }
			env.Bus = &directBus{handler: nd}
			nr, err := ProbeNet(env, devBase)
			if err != nil {
				t.Fatal(err)
			}
			if err := nr.tx.Publish(0, hostileBuffers(nr.txBuf, nr.tx.Size, false, overlap)); err != nil {
				t.Fatal(err)
			}
			return nd.Dev, NetTxQ
		}},
	} {
		for _, overlap := range []bool{false, true} {
			for _, batch := range []bool{false, true} {
				env, io := newEnv()
				dev, q := tc.publish(t, env, io, batch, overlap)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				env.Bus.MMIOWrite(devBase+RegQueueNotify, 4, uint64(q))
				runtime.ReadMemStats(&after)
				if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
					t.Errorf("%s, overlap=%v, batch=%v: the pass allocated %d bytes", tc.name, overlap, batch, grew)
				}
				if c := dev.DeviceQueue(q).Cursors(); c.UsedIdx != 0 || dev.InterruptCount() != 0 {
					t.Errorf("%s, overlap=%v, batch=%v: used index %d, %d interrupts; want the pass aborted",
						tc.name, overlap, batch, c.UsedIdx, dev.InterruptCount())
				}
			}
		}
	}
}

// hostileBlk wires a blk device and publishes one request of type typ
// whose data segments are hostileBuffers, device-writable when write
// is set; with overlap they fill the queue.
func hostileBlk(t *testing.T, env *Env, io mem.SlabIO, batch, overlap bool, typ uint32, write bool) (*MMIODev, int) {
	t.Helper()
	dev := NewBlkDevice(devBase, io, &memBackend{data: make([]byte, 1<<20)}, env.Clock, env.Costs)
	dev.Batch = batch
	env.Bus = &directBus{handler: dev}
	d, err := ProbeBlk(env, devBase)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [blkHdrSize]byte
	binary.LittleEndian.PutUint32(hdr[:], typ)
	if err := io.WritePhys(d.bounce, hdr[:]); err != nil {
		t.Fatal(err)
	}
	elems := []ChainElem{{Addr: d.bounce, Len: blkHdrSize}}
	elems = append(elems, hostileBuffers(d.bounce+mem.PageSize, d.q.Size-2, write, overlap)...)
	elems = append(elems, ChainElem{Addr: d.bounce + 2*mem.PageSize, Len: 1, Write: true})
	if err := d.q.Publish(0, elems); err != nil {
		t.Fatal(err)
	}
	return dev.Dev, 0
}
