package virtio

import (
	"sync"
	"time"

	"vmsh/internal/faults"
	"vmsh/internal/mem"
)

// Net queue indices (virtio-net): 0 = receiveq, 1 = transmitq.
const (
	NetRxQ = 0
	NetTxQ = 1
)

// NetHdrSize is the size of struct virtio_net_hdr for a VIRTIO_F_
// VERSION_1 device: flags, gso_type, hdr_len, gso_size, csum_start,
// csum_offset, num_buffers. Neither side offers offloads, so every
// field stays zero, but the header still prefixes each frame on the
// wire format level — exactly like real virtio-net.
const NetHdrSize = 12

// NetFrameMax bounds a header-prefixed Ethernet frame in an rx buffer.
const NetFrameMax = 2048

// NetDevice is the device side of virtio-net. Like BlkDevice and
// ConsoleDevice it operates on guest memory exclusively through a
// mem.PhysIO — when hosted by VMSH, that is the process_vm_readv/
// writev view into the hypervisor's mapping; the device never touches
// guest Go objects.
//
// Guest transmissions pop out of the tx queue and are handed to
// SendFrame (the netsim switch port). Inbound frames queue until the
// guest posts rx buffers.
type NetDevice struct {
	Dev *MMIODev
	// SendFrame receives each guest-transmitted Ethernet frame
	// (virtio-net header already stripped).
	SendFrame func([]byte)
	// SignalIRQ delivers interrupts to the guest.
	SignalIRQ func()

	// Batch enables the fast path: vectored burst service of both
	// queues with one coalesced interrupt per pass. Off reproduces the
	// per-chain legacy timing exactly.
	Batch bool

	mu      sync.Mutex
	pending [][]byte // inbound frames waiting for rx buffers
}

// NewNetDevice wires a net device at base with the given MAC exposed
// in config space.
func NewNetDevice(base mem.GPA, macAddr [6]byte, m mem.PhysIO) *NetDevice {
	n := &NetDevice{}
	d := NewMMIODev(base, DeviceIDNet, NetFMac, []int{256, 256}, m)
	// MAC plus 2 bytes of padding so 32-bit config reads stay in
	// bounds (real virtio-net follows the MAC with the status word).
	d.ConfigSpace = append(append([]byte(nil), macAddr[:]...), 0, 0)
	d.OnNotify = func(q int) {
		if q == NetTxQ {
			n.drainTx()
		} else {
			n.flushPending()
		}
	}
	n.Dev = d
	return n
}

// MMIO forwards to the register block.
func (n *NetDevice) MMIO(gpa mem.GPA, size int, write bool, value uint64) uint64 {
	return n.Dev.MMIO(gpa, size, write, value)
}

// DeliverToGuest queues one inbound Ethernet frame; it is copied into
// an rx buffer the guest driver posted, followed by an interrupt.
func (n *NetDevice) DeliverToGuest(frame []byte) {
	n.mu.Lock()
	n.pending = append(n.pending, append([]byte(nil), frame...))
	n.mu.Unlock()
	// Terminate the frame's causal flow here, before the rx fill: any
	// reply traffic the guest generates while the interrupt is serviced
	// starts flows of its own.
	n.Dev.Trace.FlowEnd("flow", "net.rx")
	n.flushPending()
}

// flushPending moves queued inbound frames into posted rx buffers.
// One frame per descriptor chain (mergeable rx buffers are not
// negotiated), prefixed by the virtio-net header.
func (n *NetDevice) flushPending() {
	if !n.Dev.queueLive(NetRxQ) {
		return
	}
	dq := n.Dev.DeviceQueue(NetRxQ)
	if n.Batch {
		n.flushPendingBatch(dq)
		return
	}
	delivered := false
	for {
		n.mu.Lock()
		if len(n.pending) == 0 {
			n.mu.Unlock()
			break
		}
		frame := n.pending[0]
		n.mu.Unlock()

		chain, ok, err := dq.Pop()
		if err != nil || !ok {
			break // no posted buffers; retry on next rx-queue notify
		}
		hdr := make([]byte, NetHdrSize, NetHdrSize+len(frame))
		hdr[10] = 1 // num_buffers = 1, little-endian
		msg := append(hdr, frame...)
		written := uint32(0)
		for _, d := range chain.Elems {
			if d.Flags&DescFlagWrite == 0 {
				continue
			}
			chunk := msg
			if len(chunk) > int(d.Len) {
				chunk = chunk[:d.Len]
			}
			if err := dq.M.WritePhys(d.Addr, chunk); err != nil {
				return
			}
			written += uint32(len(chunk))
			msg = msg[len(chunk):]
			if len(msg) == 0 {
				break
			}
		}
		// A frame that does not fit its chain is truncated, like
		// hardware without mergeable buffers; the used length tells
		// the driver what arrived.
		n.mu.Lock()
		n.pending = n.pending[1:]
		n.mu.Unlock()
		if err := dq.PushUsed(chain.Head, written); err != nil {
			return
		}
		delivered = true
	}
	if delivered {
		n.Dev.RaiseInterrupt()
		if n.SignalIRQ != nil {
			n.SignalIRQ()
		}
	}
}

// flushPendingBatch is the fast-path rx fill: one avail-ring snapshot
// for the burst, one vectored write carrying every frame (header
// included), one vectored used-ring publish and a single coalesced
// interrupt.
func (n *NetDevice) flushPendingBatch(dq *DeviceQueue) {
	sp := n.Dev.Trace.Span("vq", "rx_fill")
	frames := int64(0)
	defer func() { sp.End1("frames", frames) }()
	delivered := false
	for {
		n.mu.Lock()
		want := len(n.pending)
		n.mu.Unlock()
		if want == 0 {
			break
		}
		chains, err := dq.PopBatch(want)
		if err != nil || len(chains) == 0 {
			break
		}
		var vecs []mem.Vec
		entries := make([]UsedElem, len(chains))
		for i, chain := range chains {
			n.mu.Lock()
			frame := n.pending[0]
			n.pending = n.pending[1:]
			n.mu.Unlock()
			hdr := make([]byte, NetHdrSize, NetHdrSize+len(frame))
			hdr[10] = 1 // num_buffers = 1, little-endian
			msg := append(hdr, frame...)
			written := uint32(0)
			for _, d := range chain.Elems {
				if d.Flags&DescFlagWrite == 0 {
					continue
				}
				chunk := msg
				if len(chunk) > int(d.Len) {
					chunk = chunk[:d.Len]
				}
				vecs = append(vecs, mem.Vec{GPA: d.Addr, Buf: chunk})
				written += uint32(len(chunk))
				msg = msg[len(chunk):]
				if len(msg) == 0 {
					break
				}
			}
			// Oversized frames truncate, as on the legacy path.
			entries[i] = UsedElem{ID: uint32(chain.Head), Len: written}
		}
		if err := mem.WriteVec(dq.M, vecs); err != nil {
			return
		}
		if err := dq.PushUsedBatch(entries); err != nil {
			return
		}
		frames += int64(len(chains))
		delivered = true
	}
	if delivered {
		n.Dev.RaiseInterrupt()
		if n.SignalIRQ != nil {
			n.SignalIRQ()
		}
	}
}

// drainTx consumes guest transmissions and hands the frames to the
// switch port through the shared service loop.
func (n *NetDevice) drainTx() {
	serviceQueue(n.Dev, NetTxQ, n.Batch, n.serveTxChain, n.serveTxBatch, n.SignalIRQ)
}

// serveTxChain reads one tx chain with per-segment crossings (legacy);
// the frame is handed to the switch only after the completion is
// published, preserving the historical clock ordering.
func (n *NetDevice) serveTxChain(dq *DeviceQueue, chain *Chain) (uint32, func(), bool) {
	var pkt []byte
	total := uint32(0)
	for _, d := range chain.Elems {
		if d.Flags&DescFlagWrite != 0 {
			continue // tx chains are device-readable only
		}
		buf := make([]byte, d.Len)
		if err := dq.M.ReadPhys(d.Addr, buf); err != nil {
			return 0, nil, false
		}
		pkt = append(pkt, buf...)
		total += d.Len
	}
	if err := n.Dev.Faults.Check(faults.OpVQNet); err != nil {
		// Degrade, don't wedge: the frame is lost but the chain still
		// completes, like a real NIC dropping on a saturated link.
		return total, nil, true
	}
	return total, func() { n.sendPkt(pkt) }, true
}

// serveTxBatch gathers every readable segment of the burst in one
// vectored read; frames go to the switch after the batch publish.
func (n *NetDevice) serveTxBatch(dq *DeviceQueue, chains []*Chain) ([]uint32, func(), bool) {
	used := make([]uint32, len(chains))
	pkts := make([][]byte, len(chains))
	type seg struct {
		chain, off, n int
		gpa           mem.GPA
	}
	var segs []seg
	for i, chain := range chains {
		for _, d := range chain.Elems {
			if d.Flags&DescFlagWrite != 0 {
				continue
			}
			segs = append(segs, seg{chain: i, off: len(pkts[i]), n: int(d.Len), gpa: d.Addr})
			pkts[i] = append(pkts[i], make([]byte, d.Len)...)
			used[i] += d.Len
		}
	}
	// The vecs are built after the pkt buffers stop growing, so the
	// subslices point at the final backing arrays.
	gather := make([]mem.Vec, len(segs))
	for j, s := range segs {
		gather[j] = mem.Vec{GPA: s.gpa, Buf: pkts[s.chain][s.off : s.off+s.n]}
	}
	if len(gather) > 0 {
		if err := mem.ReadVec(dq.M, gather); err != nil {
			return nil, nil, false
		}
	}
	for i := range pkts {
		if err := n.Dev.Faults.Check(faults.OpVQNet); err != nil {
			pkts[i] = nil // drop this frame; its chain still completes
		}
	}
	after := func() {
		for _, pkt := range pkts {
			n.sendPkt(pkt)
		}
	}
	return used, after, true
}

// sendPkt strips the virtio-net header and forwards the frame. Each
// frame begins a causal flow whose id rides the tracer's ambient slot
// through the synchronous switch hops (and, via Bridge, onto a remote
// shard); it is cleared on return so a queued or bridged frame — whose
// flow ends elsewhere — cannot leak into unrelated later events.
func (n *NetDevice) sendPkt(pkt []byte) {
	if len(pkt) > NetHdrSize && n.SendFrame != nil {
		n.Dev.Trace.FlowBegin("flow", "net.frame")
		n.SendFrame(pkt[NetHdrSize:])
		n.Dev.Trace.ClearFlow()
	}
}

// NetDriver is the guest virtio-net driver: the NIC the guest
// netstack (guestos) sits on.
type NetDriver struct {
	env  *Env
	base mem.GPA
	rx   *DriverQueue
	tx   *DriverQueue

	rxBufs []mem.GPA
	txBuf  mem.GPA
	mac    [6]byte

	// OnReceive is invoked for each inbound Ethernet frame
	// (virtio-net header stripped).
	OnReceive func([]byte)

	// TxFrames / RxFrames count traffic through the NIC.
	TxFrames int64
	RxFrames int64
}

const netRxBufCount = 32

// ProbeNet initialises a virtio-net device at base.
func ProbeNet(env *Env, base mem.GPA) (*NetDriver, error) {
	feats, err := probeCommon(env, base, DeviceIDNet)
	if err != nil {
		return nil, err
	}
	rx, err := setupQueue(env, base, NetRxQ, 256)
	if err != nil {
		return nil, err
	}
	tx, err := setupQueue(env, base, NetTxQ, 256)
	if err != nil {
		return nil, err
	}
	tx.Trace = env.Trace
	tx.ReqName = "net.tx"
	n := &NetDriver{env: env, base: base, rx: rx, tx: tx}
	if feats&NetFMac != 0 {
		lo := env.read32(base + RegConfig)
		hi := env.read32(base + RegConfig + 4)
		n.mac = [6]byte{
			byte(lo), byte(lo >> 8), byte(lo >> 16), byte(lo >> 24),
			byte(hi), byte(hi >> 8),
		}
	}
	// Post receive buffers: one page each, frames capped at NetFrameMax.
	for i := 0; i < netRxBufCount; i++ {
		gpa, err := env.Alloc.AllocPages(1)
		if err != nil {
			return nil, err
		}
		n.rxBufs = append(n.rxBufs, gpa)
		if err := rx.Publish(i, []ChainElem{{Addr: gpa, Len: NetFrameMax, Write: true}}); err != nil {
			return nil, err
		}
	}
	tb, err := env.Alloc.AllocPages(1)
	if err != nil {
		return nil, err
	}
	n.txBuf = tb
	env.write32(base+RegStatus, StatusAcknowledge|StatusDriver|StatusFeaturesOK|StatusDriverOK)
	// Tell the device rx buffers are available.
	env.Bus.MMIOWrite(base+RegQueueNotify, 4, NetRxQ)
	return n, nil
}

// MAC returns the hardware address from device config space.
func (n *NetDriver) MAC() [6]byte { return n.mac }

// HandleIRQ drains received frames and reposts buffers (used-ring
// polling, as in BlkDriver.HandleIRQ). Per-packet stack handling cost
// is charged by the netstack above, not here.
func (n *NetDriver) HandleIRQ() {
	for {
		u, ok, err := n.rx.PopUsed()
		if err != nil || !ok {
			break
		}
		if int(u.Len) > NetHdrSize && int(u.ID) < len(n.rxBufs) {
			data := make([]byte, u.Len)
			if err := n.env.Mem.ReadPhys(n.rxBufs[u.ID], data); err == nil {
				n.RxFrames++
				if n.OnReceive != nil {
					n.OnReceive(data[NetHdrSize:])
				}
			}
		}
		// Repost the buffer.
		_ = n.rx.Publish(int(u.ID), []ChainElem{{Addr: n.rxBufs[u.ID], Len: NetFrameMax, Write: true}})
	}
	// Drain tx completions.
	for {
		if _, ok, err := n.tx.PopUsed(); err != nil || !ok {
			break
		}
	}
}

// Send transmits one Ethernet frame. The virtio-net header is
// prepended in the bounce buffer; the doorbell MMIO write is the VM
// exit that reaches the device.
func (n *NetDriver) Send(frame []byte) error {
	pkt := make([]byte, NetHdrSize+len(frame))
	copy(pkt[NetHdrSize:], frame)
	if err := n.env.Mem.WritePhys(n.txBuf, pkt); err != nil {
		return err
	}
	elems := []ChainElem{{Addr: n.txBuf, Len: uint32(len(pkt))}}
	n.env.Clock.Advance(time.Duration(len(elems)) * n.env.Costs.VirtqueueDesc)
	if err := n.tx.Publish(0, elems); err != nil {
		return err
	}
	n.TxFrames++
	n.env.Bus.MMIOWrite(n.base+RegQueueNotify, 4, NetTxQ)
	return nil
}
