package virtio

import (
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

	// Batch groups both queues' crossings as BlkDevice.Batch does.
	Batch bool

	rx rxQueue // header-prefixed inbound frames waiting for rx buffers
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
			serviceQueue(n.Dev, NetTxQ, n.Batch, n.serveTx, n.SignalIRQ)
		} else {
			n.fillRx()
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
	msg := make([]byte, NetHdrSize, NetHdrSize+len(frame))
	msg[10] = 1 // num_buffers = 1, little-endian
	n.rx.push(append(msg, frame...))
	// Terminate the frame's causal flow here, before the rx fill: any
	// reply traffic the guest generates while the interrupt is serviced
	// starts flows of its own.
	n.Dev.Trace.FlowEnd("flow", "net.rx")
	n.fillRx()
}

// fillRx moves queued inbound frames into posted rx buffers, one frame
// per descriptor chain (mergeable rx buffers are not negotiated). A
// frame that does not fit its chain is truncated, like hardware
// without mergeable buffers.
func (n *NetDevice) fillRx() {
	n.rx.fill(n.Dev, NetRxQ, n.Batch, false, n.SignalIRQ)
}

// serveTx gathers every device-readable segment of the pass's tx
// chains; the frames go to the switch once the completions are
// published.
func (n *NetDevice) serveTx(x crossings, chains []Chain) (func(), error) {
	type seg struct {
		chain, off int
		d          Desc
	}
	budget := x.budget()
	var segs []seg
	for i, chain := range chains {
		for _, d := range chain.Elems {
			if d.Flags&DescFlagWrite != 0 {
				continue // tx chains are device-readable only
			}
			if err := budget.hold(d); err != nil {
				return nil, err
			}
			segs = append(segs, seg{chain: i, off: int(chains[i].Used), d: d})
			chains[i].Used += d.Len
		}
	}
	// Every buffer is held: allocate each frame whole, then gather
	// into it.
	pkts := make([][]byte, len(chains))
	for i := range pkts {
		pkts[i] = make([]byte, chains[i].Used)
	}
	gather := make([]mem.Vec, len(segs))
	for j, s := range segs {
		gather[j] = mem.Vec{GPA: s.d.Addr, Buf: pkts[s.chain][s.off : s.off+int(s.d.Len)]}
	}
	if err := x.read(gather); err != nil {
		return nil, err
	}
	for i := range pkts {
		if err := n.Dev.Faults.Check(faults.OpVQNet); err != nil {
			// Degrade, don't wedge: the frame is lost but its chain
			// still completes, like a real NIC dropping on a
			// saturated link.
			pkts[i] = nil
		}
	}
	after := func() {
		for _, pkt := range pkts {
			n.sendPkt(pkt)
		}
	}
	return after, nil
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
