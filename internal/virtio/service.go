package virtio

// This file holds the one request path every hosted device drains its
// queues through. A service pass pops the available chains, gathers
// their device-readable segments, executes the requests, scatters
// payloads and status, publishes the used entries and interrupts. The
// device's Batch flag only decides how the pass groups its
// guest-memory crossings:
//
//   - batched: the pass takes every pending chain; the ring snapshot,
//     the descriptor windows, the gather, the scatter and the used
//     publish are one vectored crossing each, and the whole queue
//     drain raises one coalesced interrupt.
//   - per chain: the pass takes one chain, every segment and the used
//     entry and index are crossings of their own, and each chain
//     interrupts: the process_vm_readv/writev pattern of VMSH's devices
//     (paper §4.3) that Figures 5 and 6 measure.
//
// Batching is legal despite concurrent guest mutation of the rings
// because a pass snapshots the avail index once (see pop): chains
// published after the snapshot are picked up by the guest's next
// doorbell, exactly as a real device sees a stale index until the next
// notification.

import (
	"fmt"

	"vmsh/internal/faults"
	"vmsh/internal/mem"
)

// crossings groups a service pass's guest-memory accesses: one
// vectored crossing per phase when batch is set, else one crossing per
// segment.
type crossings struct {
	m     mem.PhysIO
	batch bool
}

// read fills every segment of vecs from guest memory.
func (x crossings) read(vecs []mem.Vec) error {
	return x.group(vecs, x.m.ReadPhysVec)
}

// write stores every segment of vecs into guest memory.
func (x crossings) write(vecs []mem.Vec) error {
	return x.group(vecs, x.m.WritePhysVec)
}

// group hands cross the crossings that move vecs: all segments at
// once when batched, one at a time otherwise.
func (x crossings) group(vecs []mem.Vec, cross func([]mem.Vec) error) error {
	n := 1
	if x.batch {
		n = len(vecs)
	}
	for ; len(vecs) > 0; vecs = vecs[n:] {
		if err := cross(vecs[:n]); err != nil {
			return err
		}
	}
	return nil
}

// passBudget bounds the buffers one service pass allocates for the
// lengths its descriptors claim, since a guest-claimed length is not an
// allocation size: each buffer must lie in guest memory, and because
// descriptors may overlap, a pass's buffers together may not exceed
// the guest memory the view holds. A device holds every buffer of a
// pass before it allocates any.
type passBudget struct {
	m    mem.PhysIO
	left uint64
}

// budget starts one pass's bound.
func (x crossings) budget() passBudget { return passBudget{m: x.m, left: x.m.Size()} }

// hold charges d's buffer to the pass, or refuses it. A refusal is a
// failed guest-memory crossing, so it aborts the pass.
func (b *passBudget) hold(d Desc) error {
	if !b.m.Contains(d.Addr, int(d.Len)) {
		return fmt.Errorf("virtio: descriptor buffer [%#x,+%d) outside guest memory", d.Addr, d.Len)
	}
	if uint64(d.Len) > b.left {
		return fmt.Errorf("virtio: descriptor buffer [%#x,+%d) exceeds what the pass has left of guest memory (%d bytes)", d.Addr, d.Len, b.left)
	}
	b.left -= uint64(d.Len)
	return nil
}

// serveFn serves one pass's chains, moving guest memory through x and
// setting each chain's Used. It returns an optional side effect to run
// once the completions are published, such as handing tx frames to
// the switch. An error is a failed guest-memory crossing: it aborts
// the pass without completing its chains.
type serveFn func(x crossings, chains []Chain) (after func(), err error)

// serviceQueue drains queue q of dev. Each drain is one "vq:service"
// span on the device's track, tagged with the queue index and the
// number of chains completed.
func serviceQueue(dev *MMIODev, q int, batch bool, serve serveFn, signal func()) {
	dq := dev.liveQueue(q)
	if dq == nil {
		return
	}
	sp := dev.Trace.Span("vq", "service")
	served := drain(dev, dq, batch, serve, signal)
	sp.End2("queue", int64(q), "chains", served)
	// One record/replay crossing per service pass, mirroring the
	// granularity at which the fault plane intercepts the data path.
	if dev.Faults.Observing() && dev.TapOp != "" {
		dev.Faults.Observe(dev.TapOp,
			faults.NewDigest().U64(uint64(dev.ID)).U64(uint64(q)),
			faults.NewDigest().U64(uint64(served)), nil)
	}
}

// drain runs service passes until the queue is empty or a pass fails,
// and returns how many chains it completed.
func drain(dev *MMIODev, dq *DeviceQueue, batch bool, serve serveFn, signal func()) int64 {
	x := crossings{m: dq.M, batch: batch}
	served := int64(0)
	for {
		chains, bad := dq.pop(x, dq.Size)
		if len(chains) == 0 {
			break
		}
		after, err := serve(x, chains)
		if err != nil {
			break
		}
		if err := dq.pushUsed(x, chains); err != nil {
			break
		}
		served += int64(len(chains))
		if after != nil {
			after()
		}
		if !batch {
			dev.interrupt(signal)
		}
		if bad != nil {
			break
		}
	}
	if batch && served > 0 {
		dev.interrupt(signal)
	}
	return served
}

// rxQueue holds host->guest messages until the guest posts receive
// buffers for them. Net and console fill their receive queues from it.
type rxQueue struct {
	pending [][]byte
}

// push queues one message.
func (r *rxQueue) push(msg []byte) { r.pending = append(r.pending, msg) }

// fill moves pending messages into the receive buffers the guest
// posted on queue q of dev, grouping its crossings as batch says, and
// interrupts once if it completed any chain. Each chain takes one
// message into its device-writable segments. A message longer than its
// chain is cut there: with split set, the rest waits for the next
// chain; otherwise the rest is dropped, and the used length tells the
// driver what arrived. A failed crossing ends the fill at once, without
// completing the pass's chains or interrupting; messages whose bytes
// never reached the guest stay pending.
func (r *rxQueue) fill(dev *MMIODev, q int, batch, split bool, signal func()) {
	dq := dev.liveQueue(q)
	if dq == nil {
		return
	}
	sp := dev.Trace.Span("vq", "rx_fill")
	x := crossings{m: dq.M, batch: batch}
	filled := int64(0)
	defer func() { sp.End1("chains", filled) }()
	for len(r.pending) > 0 {
		chains, bad := dq.pop(x, len(r.pending))
		if len(chains) == 0 {
			break
		}
		vecs, taken, cut := r.place(chains, split)
		if err := x.write(vecs); err != nil {
			return
		}
		r.consume(taken, cut)
		if err := dq.pushUsed(x, chains); err != nil {
			return
		}
		filled += int64(len(chains))
		if bad != nil {
			break
		}
	}
	if filled > 0 {
		dev.interrupt(signal)
	}
}

// place lays pending messages out over the device-writable segments of
// chains, one message per chain, without consuming them, and sets each
// chain's Used. It returns the writes, how many messages the chains
// take whole and how many bytes they take of the next one.
func (r *rxQueue) place(chains []Chain, split bool) (vecs []mem.Vec, taken, cut int) {
	for i, chain := range chains {
		msg := r.pending[taken][cut:]
		n := 0
		for _, d := range chain.Elems {
			if d.Flags&DescFlagWrite == 0 {
				continue
			}
			chunk := msg[n:min(len(msg), n+int(d.Len))]
			vecs = append(vecs, mem.Vec{GPA: d.Addr, Buf: chunk})
			n += len(chunk)
			if n == len(msg) {
				break
			}
		}
		chains[i].Used = uint32(n)
		if split && n < len(msg) {
			cut += n
		} else {
			taken, cut = taken+1, 0
		}
	}
	return vecs, taken, cut
}

// consume drops what a pass delivered: the messages it took whole and
// cut bytes of the next one.
func (r *rxQueue) consume(taken, cut int) {
	r.pending = r.pending[taken:]
	if cut > 0 {
		r.pending[0] = r.pending[0][cut:]
	}
}
