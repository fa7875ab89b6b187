package virtio

import (
	"encoding/binary"
	"math"
	"time"

	"vmsh/internal/faults"
	"vmsh/internal/mem"
	"vmsh/internal/vclock"
)

// virtio-blk request types.
const (
	BlkTIn    = 0 // read
	BlkTOut   = 1 // write
	BlkTFlush = 4
)

// virtio-blk status byte values.
const (
	BlkStatusOK    = 0
	BlkStatusIOErr = 1
	BlkStatusUnsup = 2
)

const blkHdrSize = 16

// BlkBackend is the storage behind a virtio-blk device. The qemu-blk
// personality backs it with pread/pwrite host syscalls; the vmsh-blk
// device backs it with a memory-mapped image file.
type BlkBackend interface {
	ReadBlk(off int64, buf []byte) error
	WriteBlk(off int64, buf []byte) error
	FlushBlk() error
	Capacity() int64 // bytes
}

// BlkDevice is the device side of virtio-blk.
type BlkDevice struct {
	Dev     *MMIODev
	Backend BlkBackend
	// SignalIRQ delivers the completion interrupt (irqfd for VMSH,
	// direct injection for in-hypervisor devices).
	SignalIRQ func()
	// Clock/Costs charge the device-side handling work.
	Clock *vclock.Clock
	Costs *vclock.Costs

	// Batch selects how service passes group their guest-memory
	// crossings (see service.go): set, a pass serves every pending
	// chain with vectored crossings and the drain raises one
	// interrupt; off (the zero value), each chain is a pass of its own
	// with per-segment crossings and its own interrupt.
	Batch bool

	// Requests counts processed requests (harness metric).
	Requests int64

	// payload backs the headers, data segments and status bytes of
	// the request chains one service pass moves; the next pass reuses
	// it. No segment outlives its pass: guest-memory writes and every
	// block backend copy the bytes, and a guest-memory or backend read
	// that succeeds fills its whole segment.
	payload []byte
}

// segment hands out the next n bytes of the payload buffer. When the
// buffer is full it moves to a larger one; segments handed out earlier
// in the pass keep the old one.
func (b *BlkDevice) segment(n uint32) []byte {
	end := len(b.payload) + int(n)
	if end > cap(b.payload) {
		b.payload = make([]byte, 0, max(2*cap(b.payload), int(n)))
		end = int(n)
	}
	seg := b.payload[len(b.payload):end:end]
	b.payload = b.payload[:end]
	return seg
}

// NewBlkDevice wires a block device at base with one request queue.
func NewBlkDevice(base mem.GPA, m mem.PhysIO, backend BlkBackend, clock *vclock.Clock, costs *vclock.Costs) *BlkDevice {
	b := &BlkDevice{Backend: backend, Clock: clock, Costs: costs}
	d := NewMMIODev(base, DeviceIDBlock, BlkFSegMax|BlkFFlush, []int{256}, m)
	cfg := make([]byte, 8)
	binary.LittleEndian.PutUint64(cfg, uint64(backend.Capacity()/512))
	d.ConfigSpace = cfg
	d.OnNotify = func(q int) { b.processQueue(q) }
	b.Dev = d
	return b
}

// MMIO forwards to the register block (satisfies kvm.MMIOHandler).
func (b *BlkDevice) MMIO(gpa mem.GPA, size int, write bool, value uint64) uint64 {
	return b.Dev.MMIO(gpa, size, write, value)
}

// processQueue drains the request queue through the shared service
// loop.
func (b *BlkDevice) processQueue(q int) {
	serviceQueue(b.Dev, q, b.Batch, b.serve, b.SignalIRQ)
}

// sectorOffset converts a request header's sector to a byte offset.
// A sector above math.MaxInt64/512 has no int64 offset — multiplying
// would wrap, and sector 2^55 would name byte 0 — so it is refused.
func sectorOffset(sector uint64) (int64, bool) {
	if sector > math.MaxInt64/512 {
		return 0, false
	}
	return int64(sector) * 512, true
}

// serve executes a pass of request chains in two phases: it gathers
// every device-readable segment (request headers and write payloads —
// the descriptor Write flag identifies them before the header is
// decoded), executes each request against the backend, then scatters
// read payloads and status bytes back.
func (b *BlkDevice) serve(x crossings, chains []Chain) (func(), error) {
	b.payload = b.payload[:0]
	segs := 0
	for _, chain := range chains {
		segs += len(chain.Elems)
	}
	budget := x.budget()
	for _, chain := range chains {
		b.Requests++
		if b.Clock != nil {
			b.Clock.Advance(time.Duration(len(chain.Elems)) * b.Costs.VirtqueueDesc)
		}
		// A data segment is a payload buffer of d.Len bytes whichever
		// way it moves, so the pass holds each before allocating any.
		for _, d := range dataSegments(chain) {
			if err := budget.hold(d); err != nil {
				return nil, err
			}
		}
	}
	// reqs[i] is chain i's header followed by its write payload, a
	// window of gather; nil for a chain too short to carry both a
	// header and a status byte. gather never outgrows segs, so the
	// windows stay on its one backing array.
	reqs := make([][]mem.Vec, len(chains))
	gather := make([]mem.Vec, 0, segs)
	for i, chain := range chains {
		if len(chain.Elems) < 2 {
			continue
		}
		start := len(gather)
		gather = append(gather, mem.Vec{GPA: chain.Elems[0].Addr, Buf: b.segment(blkHdrSize)})
		for _, d := range dataSegments(chain) {
			if d.Flags&DescFlagWrite == 0 { // the device fills the others
				gather = append(gather, mem.Vec{GPA: d.Addr, Buf: b.segment(d.Len)})
			}
		}
		reqs[i] = gather[start:]
	}
	if err := x.read(gather); err != nil {
		return nil, err
	}

	scatter := make([]mem.Vec, 0, segs)
	for i, chain := range chains {
		status := byte(BlkStatusIOErr)
		written := uint32(0)
		if reqs[i] != nil {
			status, written, scatter = b.execute(chain, reqs[i], scatter)
		}
		// The status byte lives in the final descriptor.
		sb := b.segment(1)
		sb[0] = status
		scatter = append(scatter, mem.Vec{GPA: chain.Elems[len(chain.Elems)-1].Addr, Buf: sb})
		chains[i].Used = written + 1
	}
	return nil, x.write(scatter)
}

// dataSegments returns the descriptors between a chain's header and
// its status byte; none for a chain too short to carry both.
func dataSegments(chain Chain) []Desc {
	if len(chain.Elems) < 2 {
		return nil
	}
	return chain.Elems[1 : len(chain.Elems)-1]
}

// execute performs the backend work for one gathered chain, req being
// its header and write payload, and appends device-written payload
// segments to scatter. It returns the status byte and the payload byte
// count (reads only; the used length is written+1, counting the status
// byte).
func (b *BlkDevice) execute(chain Chain, req []mem.Vec, scatter []mem.Vec) (byte, uint32, []mem.Vec) {
	if err := b.Dev.Faults.Check(faults.OpVQBlk); err != nil {
		// Degrade, don't wedge: this request fails with an IO-error
		// status byte, the rest of the pass is served normally.
		return BlkStatusIOErr, 0, scatter
	}
	hdr := req[0].Buf
	typ := binary.LittleEndian.Uint32(hdr[0:])
	sector := binary.LittleEndian.Uint64(hdr[8:])

	switch typ {
	case BlkTIn:
		off, ok := sectorOffset(sector)
		if !ok {
			return BlkStatusIOErr, 0, scatter
		}
		written := uint32(0)
		for _, d := range dataSegments(chain) {
			buf := b.segment(d.Len)
			if err := b.Backend.ReadBlk(off, buf); err != nil {
				return BlkStatusIOErr, 0, scatter
			}
			scatter = append(scatter, mem.Vec{GPA: d.Addr, Buf: buf})
			off += int64(d.Len)
			written += d.Len
		}
		return BlkStatusOK, written, scatter
	case BlkTOut:
		off, ok := sectorOffset(sector)
		if !ok {
			return BlkStatusIOErr, 0, scatter
		}
		for _, out := range req[1:] {
			if err := b.Backend.WriteBlk(off, out.Buf); err != nil {
				return BlkStatusIOErr, 0, scatter
			}
			off += int64(len(out.Buf))
		}
		return BlkStatusOK, 0, scatter
	case BlkTFlush:
		if err := b.Backend.FlushBlk(); err != nil {
			return BlkStatusIOErr, 0, scatter
		}
		return BlkStatusOK, 0, scatter
	default:
		return BlkStatusUnsup, 0, scatter
	}
}
