package virtio

import (
	"encoding/binary"
	"fmt"
	"time"

	"vmsh/internal/mem"
	"vmsh/internal/obs"
	"vmsh/internal/vclock"
)

// Bus is the guest's access to MMIO space; every access takes the full
// VM-exit dispatch path (implemented by kvm.VM).
type Bus interface {
	MMIORead(gpa mem.GPA, size int) uint64
	MMIOWrite(gpa mem.GPA, size int, value uint64)
}

// Env bundles what a guest driver needs from the kernel.
type Env struct {
	Bus   Bus
	Mem   mem.PhysIO
	Alloc mem.PhysPages
	Clock *vclock.Clock
	Costs *vclock.Costs
	// Trace, when set, is the driver-side trace track: request queues
	// open an async span per published request on it (blk.req, net.tx)
	// that the serving device closes.
	Trace obs.Track
}

func (e *Env) read32(gpa mem.GPA) uint32     { return uint32(e.Bus.MMIORead(gpa, 4)) }
func (e *Env) write32(gpa mem.GPA, v uint32) { e.Bus.MMIOWrite(gpa, 4, uint64(v)) }

// probeCommon performs the transport handshake shared by all drivers
// and returns the negotiated feature bits.
func probeCommon(env *Env, base mem.GPA, wantID uint32) (uint64, error) {
	if m := env.read32(base + RegMagicValue); m != MagicValue {
		return 0, fmt.Errorf("virtio: bad magic %#x at %#x", m, base)
	}
	if v := env.read32(base + RegVersion); v != 2 {
		return 0, fmt.Errorf("virtio: unsupported mmio version %d", v)
	}
	if id := env.read32(base + RegDeviceID); id != wantID {
		return 0, fmt.Errorf("virtio: device id %d, want %d", id, wantID)
	}
	env.write32(base+RegStatus, StatusAcknowledge)
	env.write32(base+RegStatus, StatusAcknowledge|StatusDriver)
	env.write32(base+RegDeviceFeatSel, 0)
	featLo := env.read32(base + RegDeviceFeatures)
	env.write32(base+RegDeviceFeatSel, 1)
	featHi := env.read32(base + RegDeviceFeatures)
	feats := uint64(featHi)<<32 | uint64(featLo)
	env.write32(base+RegDriverFeatSel, 0)
	env.write32(base+RegDriverFeatures, uint32(feats))
	env.write32(base+RegDriverFeatSel, 1)
	env.write32(base+RegDriverFeatures, uint32(feats>>32))
	env.write32(base+RegStatus, StatusAcknowledge|StatusDriver|StatusFeaturesOK)
	if env.read32(base+RegStatus)&StatusFeaturesOK == 0 {
		return 0, fmt.Errorf("virtio: device rejected features %#x", feats)
	}
	return feats, nil
}

// setupQueue allocates rings for queue q and programs the registers.
func setupQueue(env *Env, base mem.GPA, q, size int) (*DriverQueue, error) {
	env.write32(base+RegQueueSel, uint32(q))
	max := int(env.read32(base + RegQueueNumMax))
	if max == 0 {
		return nil, fmt.Errorf("virtio: queue %d absent", q)
	}
	if size > max {
		size = max
	}
	db, ab, ub := QueueLayout(size)
	pages := func(n int) int { return (n + mem.PageSize - 1) / mem.PageSize }
	descGPA, err := env.Alloc.AllocPages(pages(db))
	if err != nil {
		return nil, err
	}
	availGPA, err := env.Alloc.AllocPages(pages(ab))
	if err != nil {
		return nil, err
	}
	usedGPA, err := env.Alloc.AllocPages(pages(ub))
	if err != nil {
		return nil, err
	}
	env.write32(base+RegQueueNum, uint32(size))
	env.write32(base+RegQueueDescLow, uint32(descGPA))
	env.write32(base+RegQueueDescHigh, uint32(uint64(descGPA)>>32))
	env.write32(base+RegQueueDriverLow, uint32(availGPA))
	env.write32(base+RegQueueDriverHigh, uint32(uint64(availGPA)>>32))
	env.write32(base+RegQueueDeviceLow, uint32(usedGPA))
	env.write32(base+RegQueueDeviceHigh, uint32(uint64(usedGPA)>>32))
	env.write32(base+RegQueueReady, 1)
	dq := &DriverQueue{M: env.Mem, Size: size, Desc: descGPA, Avail: availGPA, Used: usedGPA}
	if err := dq.InitRings(); err != nil {
		return nil, err
	}
	return dq, nil
}

// BlkDriver is the guest virtio-blk driver; it satisfies
// storage.BlockBackend so the guest block layer and filesystems can
// sit on top of it.
type BlkDriver struct {
	env  *Env
	base mem.GPA
	q    *DriverQueue

	bounce   mem.GPA
	bounceSz int
	capacity int64
	segMax   int
	features uint64

	completed map[uint16]bool
	// Requests counts submitted requests.
	Requests int64
}

// ProbeBlk initialises a virtio-blk device at base.
func ProbeBlk(env *Env, base mem.GPA) (*BlkDriver, error) {
	feats, err := probeCommon(env, base, DeviceIDBlock)
	if err != nil {
		return nil, err
	}
	q, err := setupQueue(env, base, 0, 256)
	if err != nil {
		return nil, err
	}
	q.Trace = env.Trace
	q.ReqName = "blk.req"
	d := &BlkDriver{
		env: env, base: base, q: q,
		segMax:    128 * 1024,
		features:  feats,
		completed: make(map[uint16]bool),
	}
	// Bounce area: header page + up to 2 MiB data + status page.
	const dataPages = 512
	gpa, err := env.Alloc.AllocPages(dataPages + 2)
	if err != nil {
		return nil, err
	}
	d.bounce, d.bounceSz = gpa, (dataPages+2)*mem.PageSize
	// Capacity (in 512 sectors) from config space.
	lo := env.read32(base + RegConfig)
	hi := env.read32(base + RegConfig + 4)
	d.capacity = int64(uint64(hi)<<32|uint64(lo)) * 512
	env.write32(base+RegStatus, StatusAcknowledge|StatusDriver|StatusFeaturesOK|StatusDriverOK)
	return d, nil
}

// HandleIRQ is the completion interrupt handler. The driver follows
// the VIRTIO_F_EVENT_IDX discipline of modern virtio-blk: completions
// are harvested straight from the used ring in shared memory, with no
// InterruptStatus read or ACK on the hot path — which is also why the
// device's own performance is nearly independent of the MMIO trap
// mechanism (Figure 6, the two vmsh-blk variants).
func (d *BlkDriver) HandleIRQ() {
	for {
		u, ok, err := d.q.PopUsed()
		if err != nil || !ok {
			return
		}
		d.completed[uint16(u.ID)] = true
	}
}

// request performs one virtio-blk command of at most segMax bytes.
func (d *BlkDriver) request(typ uint32, off int64, buf []byte) error {
	return d.submitBurst([]BlkReq{{Typ: typ, Off: off, Buf: buf}})
}

// BlkReq is one request of a batched submission.
type BlkReq struct {
	Typ uint32
	Off int64
	Buf []byte
}

// SubmitBatch publishes a burst of requests as independent descriptor
// chains behind a single doorbell, the multi-chain counterpart of
// request. A batching device services the whole burst in one pass
// (one ring snapshot, vectored data movement, one interrupt); a
// per-chain device serves and interrupts them one by one. Bursts that
// exceed the bounce area or the ring are split transparently.
func (d *BlkDriver) SubmitBatch(reqs []BlkReq) error {
	// Oversized payloads split into segMax chains, as ReadAt/WriteAt do.
	split := make([]BlkReq, 0, len(reqs))
	for _, r := range reqs {
		for len(r.Buf) > d.segMax {
			split = append(split, BlkReq{Typ: r.Typ, Off: r.Off, Buf: r.Buf[:d.segMax]})
			r.Off += int64(d.segMax)
			r.Buf = r.Buf[d.segMax:]
		}
		split = append(split, r)
	}
	reqs = split
	for len(reqs) > 0 {
		n := d.burstFit(reqs)
		if err := d.submitBurst(reqs[:n]); err != nil {
			return err
		}
		reqs = reqs[n:]
	}
	return nil
}

// burstFit returns how many leading requests fit one burst: the hdr
// page bounds the count, the data area bounds the payload bytes and
// the ring bounds the descriptor slots.
func (d *BlkDriver) burstFit(reqs []BlkReq) int {
	dataPages := d.bounceSz/mem.PageSize - 2
	maxReqs := mem.PageSize / blkHdrSize
	pages, slots := 0, 0
	for i, r := range reqs {
		need := int(mem.PageAlign(uint64(len(r.Buf)))) / mem.PageSize
		elems := 2
		if len(r.Buf) > 0 {
			elems = 3
		}
		if i > 0 && (i >= maxReqs || pages+need > dataPages || slots+elems > d.q.Size) {
			return i
		}
		pages += need
		slots += elems
	}
	return len(reqs)
}

// submitBurst publishes one burst that fits the bounce area and the
// ring behind a single doorbell and harvests its synchronous
// completions. Request i's header and status byte are the i-th slots
// of the bounce area's header and status pages; the payloads follow
// one another, page-aligned, in between.
func (d *BlkDriver) submitBurst(reqs []BlkReq) error {
	hdrBase := d.bounce
	dataBase := d.bounce + mem.PageSize
	statusBase := d.bounce + mem.GPA(d.bounceSz-mem.PageSize)

	heads := make([]uint16, len(reqs))
	dataGPAs := make([]mem.GPA, len(reqs))
	slot, dataOff := 0, 0
	for i, r := range reqs {
		if r.Off%512 != 0 || len(r.Buf)%512 != 0 {
			return fmt.Errorf("virtio-blk: unaligned request off=%d len=%d", r.Off, len(r.Buf))
		}
		d.Requests++
		hdrGPA := hdrBase + mem.GPA(i*blkHdrSize)
		hdr := make([]byte, blkHdrSize)
		binary.LittleEndian.PutUint32(hdr[0:], r.Typ)
		binary.LittleEndian.PutUint64(hdr[8:], uint64(r.Off/512))
		if err := d.env.Mem.WritePhys(hdrGPA, hdr); err != nil {
			return err
		}
		elems := []ChainElem{{Addr: hdrGPA, Len: blkHdrSize}}
		if len(r.Buf) > 0 {
			dataGPAs[i] = dataBase + mem.GPA(dataOff)
			dataOff += int(mem.PageAlign(uint64(len(r.Buf))))
			if r.Typ == BlkTOut {
				// The payload moves through guest memory, but a real
				// driver DMA-maps the caller's pages rather than
				// copying, so no memcpy is charged — only the
				// per-descriptor mapping work below.
				if err := d.env.Mem.WritePhys(dataGPAs[i], r.Buf); err != nil {
					return err
				}
				elems = append(elems, ChainElem{Addr: dataGPAs[i], Len: uint32(len(r.Buf))})
			} else {
				elems = append(elems, ChainElem{Addr: dataGPAs[i], Len: uint32(len(r.Buf)), Write: true})
			}
		}
		elems = append(elems, ChainElem{Addr: statusBase + mem.GPA(i), Len: 1, Write: true})
		// Each request pays its own descriptor mapping work; only the
		// doorbell below is shared by the burst.
		d.env.Clock.Advance(time.Duration(len(elems)) * d.env.Costs.VirtqueueDesc)
		heads[i] = uint16(slot)
		if err := d.q.Publish(slot, elems); err != nil {
			return err
		}
		slot += len(elems)
	}
	// Doorbell: this MMIO write is the VM exit that reaches the device.
	d.env.Bus.MMIOWrite(d.base+RegQueueNotify, 4, 0)

	// Devices in this simulation complete synchronously, so the
	// completion interrupt has already run HandleIRQ by now.
	for i, r := range reqs {
		if !d.completed[heads[i]] {
			return fmt.Errorf("virtio-blk: request %d of %d did not complete", i+1, len(reqs))
		}
		delete(d.completed, heads[i])
		var status [1]byte
		if err := d.env.Mem.ReadPhys(statusBase+mem.GPA(i), status[:]); err != nil {
			return err
		}
		if status[0] != BlkStatusOK {
			return fmt.Errorf("virtio-blk: device status %d", status[0])
		}
		if r.Typ == BlkTIn && len(r.Buf) > 0 {
			if err := d.env.Mem.ReadPhys(dataGPAs[i], r.Buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadAt implements storage.BlockBackend.
func (d *BlkDriver) ReadAt(off int64, buf []byte) error { return d.requests(BlkTIn, off, buf) }

// WriteAt implements storage.BlockBackend.
func (d *BlkDriver) WriteAt(off int64, buf []byte) error { return d.requests(BlkTOut, off, buf) }

// requests moves buf with one request per segMax bytes, each behind
// its own doorbell.
func (d *BlkDriver) requests(typ uint32, off int64, buf []byte) error {
	for len(buf) > 0 {
		n := min(len(buf), d.segMax)
		if err := d.request(typ, off, buf[:n]); err != nil {
			return err
		}
		off += int64(n)
		buf = buf[n:]
	}
	return nil
}

// Flush implements storage.BlockBackend.
func (d *BlkDriver) Flush() error { return d.request(BlkTFlush, 0, nil) }

// Size implements storage.BlockBackend.
func (d *BlkDriver) Size() int64 { return d.capacity }

// SupportsFUA implements storage.BlockBackend: the device never offers the
// FUA feature bit, so forced-unit-access is unavailable through
// either virtio path.
func (d *BlkDriver) SupportsFUA() bool { return false }

// Queue exposes the driver's virtqueue so lifecycle operations can
// save and restore its Go-side cursors (CursorState); the ring bytes
// themselves travel with guest RAM.
func (d *BlkDriver) Queue() *DriverQueue { return d.q }

// ConsoleDriver is the guest virtio-console driver.
type ConsoleDriver struct {
	env  *Env
	base mem.GPA
	rx   *DriverQueue
	tx   *DriverQueue

	rxBufs  []mem.GPA
	txBuf   mem.GPA
	OnInput func([]byte)
}

const consoleBufSize = 1024

// ProbeConsole initialises a virtio-console device at base.
func ProbeConsole(env *Env, base mem.GPA) (*ConsoleDriver, error) {
	if _, err := probeCommon(env, base, DeviceIDConsole); err != nil {
		return nil, err
	}
	rx, err := setupQueue(env, base, ConsoleRxQ, 64)
	if err != nil {
		return nil, err
	}
	tx, err := setupQueue(env, base, ConsoleTxQ, 64)
	if err != nil {
		return nil, err
	}
	c := &ConsoleDriver{env: env, base: base, rx: rx, tx: tx}
	// Post 16 receive buffers.
	for i := 0; i < 16; i++ {
		gpa, err := env.Alloc.AllocPages(1)
		if err != nil {
			return nil, err
		}
		c.rxBufs = append(c.rxBufs, gpa)
		if err := rx.Publish(i, []ChainElem{{Addr: gpa, Len: consoleBufSize, Write: true}}); err != nil {
			return nil, err
		}
	}
	tb, err := env.Alloc.AllocPages(1)
	if err != nil {
		return nil, err
	}
	c.txBuf = tb
	env.write32(base+RegStatus, StatusAcknowledge|StatusDriver|StatusFeaturesOK|StatusDriverOK)
	// Tell the device buffers are available.
	env.Bus.MMIOWrite(base+RegQueueNotify, 4, ConsoleRxQ)
	return c, nil
}

// HandleIRQ drains received input and reposts buffers (used-ring
// polling, as in BlkDriver.HandleIRQ). Unlike the block path, the
// console consumer is an interactive blocked task, so the interrupt
// pays a scheduler wakeup.
func (c *ConsoleDriver) HandleIRQ() {
	c.env.Clock.Advance(c.env.Costs.GuestWake)
	for {
		u, ok, err := c.rx.PopUsed()
		if err != nil || !ok {
			break
		}
		if u.Len > 0 && int(u.ID) < len(c.rxBufs) {
			data := make([]byte, u.Len)
			if err := c.env.Mem.ReadPhys(c.rxBufs[u.ID], data); err == nil && c.OnInput != nil {
				c.OnInput(data)
			}
		}
		// Repost the buffer.
		_ = c.rx.Publish(int(u.ID), []ChainElem{{Addr: c.rxBufs[u.ID], Len: consoleBufSize, Write: true}})
	}
	// Drain tx completions too.
	for {
		if _, ok, err := c.tx.PopUsed(); err != nil || !ok {
			break
		}
	}
}

// Write sends guest output to the host console.
func (c *ConsoleDriver) Write(data []byte) error {
	for len(data) > 0 {
		n := len(data)
		if n > mem.PageSize {
			n = mem.PageSize
		}
		if err := c.env.Mem.WritePhys(c.txBuf, data[:n]); err != nil {
			return err
		}
		if err := c.tx.Publish(0, []ChainElem{{Addr: c.txBuf, Len: uint32(n)}}); err != nil {
			return err
		}
		c.env.Bus.MMIOWrite(c.base+RegQueueNotify, 4, ConsoleTxQ)
		data = data[n:]
	}
	return nil
}
