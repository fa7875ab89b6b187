// Package virtio implements the VirtIO 1.1 split virtqueue wire format
// and MMIO transport at byte level, plus the blk and console device
// models and their guest drivers.
//
// Both sides operate strictly on encoded bytes in guest physical
// memory through a mem.PhysIO: the guest driver uses the kernel's
// direct view, while VMSH's devices use the process_vm_readv/writev
// view through the hypervisor's mapping — the "queues are read from
// the hypervisor memory via system calls" path of §4.3.
package virtio

import (
	"encoding/binary"
	"fmt"

	"vmsh/internal/mem"
	"vmsh/internal/obs"
)

// Descriptor flag bits.
const (
	DescFlagNext  = 1
	DescFlagWrite = 2 // device-writable buffer
)

const descSize = 16

// Desc is a decoded descriptor table entry.
type Desc struct {
	Addr  mem.GPA
	Len   uint32
	Flags uint16
	Next  uint16
}

// QueueLayout computes the byte sizes of the three virtqueue areas for
// a queue of the given size.
func QueueLayout(size int) (descBytes, availBytes, usedBytes int) {
	return size * descSize, 4 + 2*size, 4 + 8*size
}

// writeDesc encodes a descriptor at index i of the table at descGPA.
func writeDesc(m mem.PhysIO, descGPA mem.GPA, i int, d Desc) error {
	var b [descSize]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(d.Addr))
	binary.LittleEndian.PutUint32(b[8:], d.Len)
	binary.LittleEndian.PutUint16(b[12:], d.Flags)
	binary.LittleEndian.PutUint16(b[14:], d.Next)
	return m.WritePhys(descGPA+mem.GPA(i*descSize), b[:])
}

// readDesc decodes descriptor i.
func readDesc(m mem.PhysIO, descGPA mem.GPA, i int) (Desc, error) {
	var b [descSize]byte
	if err := m.ReadPhys(descGPA+mem.GPA(i*descSize), b[:]); err != nil {
		return Desc{}, err
	}
	return Desc{
		Addr:  mem.GPA(binary.LittleEndian.Uint64(b[0:])),
		Len:   binary.LittleEndian.Uint32(b[8:]),
		Flags: binary.LittleEndian.Uint16(b[12:]),
		Next:  binary.LittleEndian.Uint16(b[14:]),
	}, nil
}

// DriverQueue is the guest-driver side of one split virtqueue.
type DriverQueue struct {
	M                 mem.PhysIO
	Size              int
	Desc, Avail, Used mem.GPA

	// Trace/ReqName, when set, open an async request span on every
	// Publish; the device side closes it at used-publish time. The two
	// sides never share Go state — the span id is derived from the
	// Avail ring GPA (visible to both) plus a FIFO sequence number
	// each side counts independently.
	Trace   obs.Track
	ReqName string
	seq     uint64

	availIdx uint16 // next avail index to publish
	lastUsed uint16 // next used index to consume
}

// reqSpanID builds the deterministic async span id both queue sides
// agree on: the Avail ring GPA (unique per queue, identical in both
// views) tagged with a 20-bit publish/complete sequence.
func reqSpanID(avail mem.GPA, seq uint64) uint64 {
	return uint64(avail)<<20 | seq&0xfffff
}

// InitRings zeroes the ring indices.
func (q *DriverQueue) InitRings() error {
	if err := q.putU16(q.Avail, 0, 0); err != nil { // flags
		return err
	}
	if err := q.putU16(q.Avail, 2, 0); err != nil { // idx
		return err
	}
	if err := q.putU16(q.Used, 0, 0); err != nil {
		return err
	}
	return q.putU16(q.Used, 2, 0)
}

func (q *DriverQueue) putU16(base mem.GPA, off int, v uint16) error {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	return q.M.WritePhys(base+mem.GPA(off), b[:])
}

func (q *DriverQueue) getU16(base mem.GPA, off int) (uint16, error) {
	var b [2]byte
	if err := q.M.ReadPhys(base+mem.GPA(off), b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b[:]), nil
}

// Publish writes a descriptor chain starting at table index head[0]
// and makes it available to the device. bufs describes each element;
// device-writable elements must set Write.
type ChainElem struct {
	Addr  mem.GPA
	Len   uint32
	Write bool
}

// Publish encodes the chain into the descriptor table at the given
// start index and appends its head to the avail ring.
func (q *DriverQueue) Publish(start int, elems []ChainElem) error {
	if len(elems) == 0 {
		return fmt.Errorf("virtio: empty chain")
	}
	if start+len(elems) > q.Size {
		return fmt.Errorf("virtio: chain [%d,+%d) exceeds queue size %d", start, len(elems), q.Size)
	}
	for i, e := range elems {
		d := Desc{Addr: e.Addr, Len: e.Len}
		if e.Write {
			d.Flags |= DescFlagWrite
		}
		if i != len(elems)-1 {
			d.Flags |= DescFlagNext
			d.Next = uint16(start + i + 1)
		}
		if err := writeDesc(q.M, q.Desc, start+i, d); err != nil {
			return err
		}
	}
	// avail.ring[idx % size] = head; avail.idx++
	slot := int(q.availIdx) % q.Size
	if err := q.putU16(q.Avail, 4+2*slot, uint16(start)); err != nil {
		return err
	}
	q.availIdx++
	if err := q.putU16(q.Avail, 2, q.availIdx); err != nil {
		return err
	}
	if q.ReqName != "" && q.Trace.Live() {
		q.Trace.Begin("req", q.ReqName, reqSpanID(q.Avail, q.seq))
		q.Trace.FlowBeginQ(uint64(q.Avail), "flow", q.ReqName)
	}
	q.seq++
	return nil
}

// CursorState captures the Go-side ring cursors of one virtqueue end.
// The ring bytes themselves live in guest physical memory and travel
// with the RAM image during snapshot/migration; these cursors are the
// only queue state held outside the guest, so lifecycle operations
// save and restore them explicitly.
type CursorState struct {
	// AvailIdx is the driver's next avail index to publish; unused on
	// the device side.
	AvailIdx uint16 `json:"avail_idx"`
	// LastUsed is the driver's next used index to consume; unused on
	// the device side.
	LastUsed uint16 `json:"last_used"`
	// LastAvail is the device's next avail index to service; unused on
	// the driver side.
	LastAvail uint16 `json:"last_avail"`
	// UsedIdx is the device's next used index to publish; unused on
	// the driver side.
	UsedIdx uint16 `json:"used_idx"`
	// Seq is the trace-span FIFO sequence of this end.
	Seq uint64 `json:"seq"`
}

// Cursors snapshots the driver-side cursors.
func (q *DriverQueue) Cursors() CursorState {
	return CursorState{AvailIdx: q.availIdx, LastUsed: q.lastUsed, Seq: q.seq}
}

// SetCursors restores driver-side cursors saved by Cursors.
func (q *DriverQueue) SetCursors(c CursorState) {
	q.availIdx, q.lastUsed, q.seq = c.AvailIdx, c.LastUsed, c.Seq
}

// UsedElem is one consumed used-ring entry.
type UsedElem struct {
	ID  uint32
	Len uint32
}

// PopUsed consumes one used-ring entry if present.
func (q *DriverQueue) PopUsed() (UsedElem, bool, error) {
	idx, err := q.getU16(q.Used, 2)
	if err != nil {
		return UsedElem{}, false, err
	}
	if idx == q.lastUsed {
		return UsedElem{}, false, nil
	}
	slot := int(q.lastUsed) % q.Size
	var b [8]byte
	if err := q.M.ReadPhys(q.Used+mem.GPA(4+8*slot), b[:]); err != nil {
		return UsedElem{}, false, err
	}
	q.lastUsed++
	return UsedElem{
		ID:  binary.LittleEndian.Uint32(b[0:]),
		Len: binary.LittleEndian.Uint32(b[4:]),
	}, true, nil
}

// DeviceQueue is the device side of one split virtqueue.
type DeviceQueue struct {
	M                 mem.PhysIO
	Size              int
	Desc, Avail, Used mem.GPA

	// Trace/Lat close the async request spans the driver side opened
	// (see DriverQueue.Trace); each closed span's virtual-time latency
	// feeds Lat. Both sides count completions in FIFO service order,
	// so the ids line up without shared state.
	Trace obs.Track
	Lat   *obs.Histogram
	seq   uint64

	lastAvail uint16
	usedIdx   uint16

	// ring holds the avail index and ring a pass reads; pop reuses it
	// from pass to pass, and nothing it returns aliases it.
	ring []byte
}

// Cursors snapshots the device-side cursors.
func (q *DeviceQueue) Cursors() CursorState {
	return CursorState{LastAvail: q.lastAvail, UsedIdx: q.usedIdx, Seq: q.seq}
}

// SetCursors restores device-side cursors saved by Cursors.
func (q *DeviceQueue) SetCursors(c CursorState) {
	q.lastAvail, q.usedIdx, q.seq = c.LastAvail, c.UsedIdx, c.Seq
}

// endReqSpan closes the next request span in FIFO order and records
// its latency.
func (q *DeviceQueue) endReqSpan() {
	if q.Trace.Live() {
		if d, ok := q.Trace.AsyncEnd(reqSpanID(q.Avail, q.seq)); ok {
			q.Lat.Observe(d)
			q.Trace.FlowEndQ(uint64(q.Avail), "flow", "complete")
		}
	}
	q.seq++
}

// Chain is a popped descriptor chain.
type Chain struct {
	Head  uint16
	Elems []Desc
	// Used is how many bytes the device wrote into the chain; the used
	// ring publishes it.
	Used uint32
}

// pop takes up to max available chains for one service pass, grouping
// its reads as x does. Batched, it reads the avail index together with the whole ring and then every
// head's descriptor window in one vectored read: chains the guest
// publishes after that snapshot wait for its next doorbell, which is
// what makes batching legal under concurrent guest mutation. Per chain,
// it takes one chain and reads the ring only up to that chain's slot.
//
// A malformed head or chain stops the queue there: pop returns the
// chains before it together with the error and leaves the cursor on
// it, so every later pass stops at the same chain.
func (q *DeviceQueue) pop(x crossings, max int) ([]Chain, error) {
	first := int(q.lastAvail) % q.Size
	slots := q.Size
	if !x.batch {
		max, slots = 1, first+1
	}
	if cap(q.ring) < 2+2*slots {
		q.ring = make([]byte, 2+2*q.Size)
	}
	ring := q.ring[:2+2*slots]
	if err := x.m.ReadPhys(q.Avail+2, ring); err != nil {
		return nil, err
	}
	pending := int(binary.LittleEndian.Uint16(ring) - q.lastAvail) // u16 arithmetic survives wrap
	pending = min(pending, max, q.Size)

	var bad error
	chains := make([]Chain, 0, pending)
	for i := 0; i < pending; i++ {
		slot := int(q.lastAvail+uint16(i)) % q.Size
		head := binary.LittleEndian.Uint16(ring[2+2*slot:])
		if int(head) >= q.Size {
			// Guest-controlled ring contents: an out-of-range head is a
			// malformed ring, never a reason to touch memory past the table.
			bad = fmt.Errorf("virtio: avail head %d outside %d-entry queue", head, q.Size)
			break
		}
		chains = append(chains, Chain{Head: head})
	}
	if len(chains) == 0 {
		return nil, bad
	}

	// Chains are typically short and laid out contiguously from the
	// head, so each head's descriptor window comes in with the pass's
	// one window read; parseChain falls back to per-descriptor reads
	// only for links that jump out of it.
	wins := make([]byte, len(chains)*descWindow*descSize)
	vecs := make([]mem.Vec, len(chains))
	for i, c := range chains {
		n := min(descWindow, q.Size-int(c.Head)) * descSize // the table ends there
		vecs[i] = mem.Vec{GPA: q.Desc + mem.GPA(int(c.Head)*descSize), Buf: wins[:n:n]}
		wins = wins[n:]
	}
	if err := x.read(vecs); err != nil {
		return nil, err
	}
	for i := range chains {
		elems, err := q.parseChain(chains[i].Head, vecs[i].Buf)
		if err != nil {
			bad, chains = err, chains[:i]
			break
		}
		chains[i].Elems = elems
	}
	q.lastAvail += uint16(len(chains))
	return chains, bad
}

// descWindow is how many descriptors pop prefetches per head.
const descWindow = 4

// parseChain walks the chain starting at head using the prefetched
// descriptor window win (winLen descriptors starting at head), falling
// back to per-descriptor reads for links that jump out of the window,
// and returns its descriptors.
func (q *DeviceQueue) parseChain(head uint16, win []byte) ([]Desc, error) {
	winLen := len(win) / descSize
	var elems []Desc
	idx := head
	for {
		var d Desc
		if rel := int(idx) - int(head); rel >= 0 && rel < winLen {
			off := rel * descSize
			d = Desc{
				Addr:  mem.GPA(binary.LittleEndian.Uint64(win[off:])),
				Len:   binary.LittleEndian.Uint32(win[off+8:]),
				Flags: binary.LittleEndian.Uint16(win[off+12:]),
				Next:  binary.LittleEndian.Uint16(win[off+14:]),
			}
		} else {
			var err error
			d, err = readDesc(q.M, q.Desc, int(idx))
			if err != nil {
				return nil, err
			}
		}
		elems = append(elems, d)
		if d.Flags&DescFlagNext == 0 {
			break
		}
		idx = d.Next
		if int(idx) >= q.Size {
			return nil, fmt.Errorf("virtio: descriptor link %d outside %d-entry queue (head %d)", idx, q.Size, head)
		}
		if len(elems) > q.Size {
			return nil, fmt.Errorf("virtio: descriptor chain loop at head %d", head)
		}
	}
	return elems, nil
}

// pushUsed publishes a pass's completions: the used-ring entries, then
// the index, the order the split ring requires. Batched, that is one
// vectored write; per chain, the entry and the index are a crossing
// each.
func (q *DeviceQueue) pushUsed(x crossings, chains []Chain) error {
	if len(chains) == 0 {
		return nil
	}
	buf := make([]byte, 8*len(chains)+2)
	vecs := make([]mem.Vec, 0, len(chains)+1)
	for i, c := range chains {
		slot := int(q.usedIdx+uint16(i)) % q.Size
		e := buf[8*i : 8*i+8]
		binary.LittleEndian.PutUint32(e[0:], uint32(c.Head))
		binary.LittleEndian.PutUint32(e[4:], c.Used)
		vecs = append(vecs, mem.Vec{GPA: q.Used + mem.GPA(4+8*slot), Buf: e})
	}
	idx := q.usedIdx + uint16(len(chains))
	binary.LittleEndian.PutUint16(buf[8*len(chains):], idx)
	vecs = append(vecs, mem.Vec{GPA: q.Used + 2, Buf: buf[8*len(chains):]})
	if err := x.write(vecs); err != nil {
		return err
	}
	q.usedIdx = idx
	for range chains {
		q.endReqSpan()
	}
	return nil
}
