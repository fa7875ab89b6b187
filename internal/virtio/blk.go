package virtio

import (
	"encoding/binary"
	"fmt"
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

	// Batch enables the fast path: whole-burst virtqueue service with
	// vectored guest-memory crossings and one coalesced interrupt per
	// pass. Off (the zero value) reproduces the per-chain legacy
	// timing exactly.
	Batch bool

	// Requests counts processed requests (harness metric).
	Requests int64

	// payload backs the data segments of the request chains one
	// service pass moves; the next pass reuses it. No segment outlives
	// its pass: guest-memory writes and every block backend copy the
	// bytes, and a backend read that succeeds fills its whole segment.
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
// loop; legacy mode replays the historical per-chain crossing pattern,
// batch mode uses the two-phase gather/scatter path below.
func (b *BlkDevice) processQueue(q int) {
	serviceQueue(b.Dev, q, b.Batch, b.serveChain, b.serveBatch, b.SignalIRQ)
}

// serveChain adapts the legacy per-chain serve to the service loop.
func (b *BlkDevice) serveChain(dq *DeviceQueue, chain *Chain) (uint32, func(), bool) {
	return b.serve(dq, chain), nil, true
}

// serve executes one request chain and returns the written length.
func (b *BlkDevice) serve(dq *DeviceQueue, chain *Chain) uint32 {
	b.Requests++
	if b.Clock != nil {
		b.Clock.Advance(time.Duration(len(chain.Elems)) * b.Costs.VirtqueueDesc)
	}
	status := byte(BlkStatusIOErr)
	written := uint32(0)
	defer func() {
		// Status byte lives in the final descriptor.
		last := chain.Elems[len(chain.Elems)-1]
		_ = dq.M.WritePhys(last.Addr, []byte{status})
	}()

	if len(chain.Elems) < 2 {
		return 1
	}
	if err := b.Dev.Faults.Check(faults.OpVQBlk); err != nil {
		return 1 // status stays BlkStatusIOErr; the pass continues
	}
	b.payload = b.payload[:0]
	hdr := make([]byte, blkHdrSize)
	if err := dq.M.ReadPhys(chain.Elems[0].Addr, hdr); err != nil {
		return 1
	}
	typ := binary.LittleEndian.Uint32(hdr[0:])
	sector := binary.LittleEndian.Uint64(hdr[8:])
	data := chain.Elems[1 : len(chain.Elems)-1]

	switch typ {
	case BlkTIn:
		off, ok := sectorOffset(sector)
		if !ok {
			return 1
		}
		for _, d := range data {
			buf := b.segment(d.Len)
			if err := b.Backend.ReadBlk(off, buf); err != nil {
				return 1
			}
			if err := dq.M.WritePhys(d.Addr, buf); err != nil {
				return 1
			}
			off += int64(d.Len)
			written += d.Len
		}
		status = BlkStatusOK
	case BlkTOut:
		off, ok := sectorOffset(sector)
		if !ok {
			return 1
		}
		for _, d := range data {
			buf := b.segment(d.Len)
			if err := dq.M.ReadPhys(d.Addr, buf); err != nil {
				return 1
			}
			if err := b.Backend.WriteBlk(off, buf); err != nil {
				return 1
			}
			off += int64(d.Len)
		}
		status = BlkStatusOK
	case BlkTFlush:
		if err := b.Backend.FlushBlk(); err != nil {
			return 1
		}
		status = BlkStatusOK
	default:
		status = BlkStatusUnsup
		return 1
	}
	return written + 1
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

// serveBatch executes a burst of request chains with two guest-memory
// crossings: one vectored read gathering every device-readable segment
// of every chain (request headers and write payloads — the descriptor
// Write flag identifies them before the header is decoded), then one
// vectored write scattering read payloads and status bytes back.
// Per-request accounting (descriptor work, backend charges, Requests)
// is identical to the legacy path; only the crossing count shrinks.
func (b *BlkDevice) serveBatch(dq *DeviceQueue, chains []*Chain) ([]uint32, func(), bool) {
	type breq struct {
		hdr  []byte
		outs [][]byte // device-readable payload segments (write data)
		bad  bool
	}
	reqs := make([]breq, len(chains))
	b.payload = b.payload[:0]
	var gather []mem.Vec
	for i, chain := range chains {
		b.Requests++
		if b.Clock != nil {
			b.Clock.Advance(time.Duration(len(chain.Elems)) * b.Costs.VirtqueueDesc)
		}
		if len(chain.Elems) < 2 {
			reqs[i].bad = true
			continue
		}
		reqs[i].hdr = make([]byte, blkHdrSize)
		gather = append(gather, mem.Vec{GPA: chain.Elems[0].Addr, Buf: reqs[i].hdr})
		for _, d := range chain.Elems[1 : len(chain.Elems)-1] {
			if d.Flags&DescFlagWrite != 0 {
				continue // device fills these below; nothing to gather
			}
			buf := b.segment(d.Len)
			reqs[i].outs = append(reqs[i].outs, buf)
			gather = append(gather, mem.Vec{GPA: d.Addr, Buf: buf})
		}
	}
	if len(gather) > 0 {
		if err := mem.ReadVec(dq.M, gather); err != nil {
			return nil, nil, false
		}
	}

	used := make([]uint32, len(chains))
	var scatter []mem.Vec
	for i, chain := range chains {
		status := byte(BlkStatusIOErr)
		written := uint32(0)
		if !reqs[i].bad {
			status, written, scatter = b.executeBatched(chain, reqs[i].hdr, reqs[i].outs, scatter)
		}
		// Status byte lives in the final descriptor, as in serve.
		last := chain.Elems[len(chain.Elems)-1]
		scatter = append(scatter, mem.Vec{GPA: last.Addr, Buf: []byte{status}})
		used[i] = written + 1
	}
	if err := mem.WriteVec(dq.M, scatter); err != nil {
		return nil, nil, false
	}
	return used, nil, true
}

// executeBatched performs the backend work for one pre-gathered chain,
// appending device-written payload segments to scatter. The return
// values mirror serve: status byte and the payload byte count (reads
// only — the used length becomes written+1 like the legacy path).
func (b *BlkDevice) executeBatched(chain *Chain, hdr []byte, outs [][]byte, scatter []mem.Vec) (byte, uint32, []mem.Vec) {
	if err := b.Dev.Faults.Check(faults.OpVQBlk); err != nil {
		// Degrade, don't wedge: this request fails with an IO-error
		// status byte, the rest of the burst is served normally.
		return BlkStatusIOErr, 0, scatter
	}
	typ := binary.LittleEndian.Uint32(hdr[0:])
	sector := binary.LittleEndian.Uint64(hdr[8:])
	data := chain.Elems[1 : len(chain.Elems)-1]

	switch typ {
	case BlkTIn:
		off, ok := sectorOffset(sector)
		if !ok {
			return BlkStatusIOErr, 0, scatter
		}
		written := uint32(0)
		for _, d := range data {
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
		oi := 0
		for _, d := range data {
			if d.Flags&DescFlagWrite != 0 {
				continue
			}
			if oi >= len(outs) {
				return BlkStatusIOErr, 0, scatter
			}
			if err := b.Backend.WriteBlk(off, outs[oi]); err != nil {
				return BlkStatusIOErr, 0, scatter
			}
			off += int64(len(outs[oi]))
			oi++
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

// Sanity check: a backend must exist for capacity.
var _ = fmt.Sprintf
