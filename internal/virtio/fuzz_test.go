package virtio

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"testing"

	"vmsh/internal/mem"
	"vmsh/internal/vclock"
)

// FuzzVirtqueueDescTable hands the device side a guest-controlled
// descriptor table and avail ring — arbitrary bytes, as a malicious or
// corrupted guest could publish — and asserts the device parser is
// total: it never panics, never returns a chain longer than the queue
// (loop protection), never accepts an out-of-range head, and per-chain
// and batched passes take the same chains and stop at the same
// malformed one.
func FuzzVirtqueueDescTable(f *testing.F) {
	// A well-formed two-chain ring, produced by the real driver side,
	// so the fuzzer starts from valid wire bytes to mutate.
	seedRing := func(size int) []byte {
		db, ab, ub := QueueLayout(size)
		phys := mem.NewPhys(0, uint64(db+ab+ub))
		io := mem.SlabIO{Phys: phys}
		dq := &DriverQueue{M: io, Size: size, Desc: 0, Avail: mem.GPA(db), Used: mem.GPA(db + ab)}
		_ = dq.InitRings()
		_ = dq.Publish(0, []ChainElem{{Addr: 0x100, Len: 32}, {Addr: 0x200, Len: 64, Write: true}})
		_ = dq.Publish(4, []ChainElem{{Addr: 0x300, Len: 16}})
		ring := make([]byte, phys.Size())
		phys.ReadAt(0, ring)
		return ring
	}
	f.Add(uint8(8), seedRing(8))
	f.Add(uint8(16), seedRing(16))
	f.Add(uint8(8), []byte{})
	// All-ones: head 0xffff, far outside every table.
	allOnes := make([]byte, 256)
	for i := range allOnes {
		allOnes[i] = 0xff
	}
	f.Add(uint8(4), allOnes)

	f.Fuzz(func(t *testing.T, sizeRaw uint8, raw []byte) {
		size := 1 + int(sizeRaw)%64
		db, ab, ub := QueueLayout(size)
		phys := mem.NewPhys(0, uint64(db+ab+ub))
		phys.WriteAt(0, raw[:min(len(raw), db+ab+ub)])
		io := mem.SlabIO{Phys: phys}
		mk := func() *DeviceQueue {
			return &DeviceQueue{M: io, Size: size, Desc: 0, Avail: mem.GPA(db), Used: mem.GPA(db + ab)}
		}

		check := func(c Chain) {
			if int(c.Head) >= size {
				t.Fatalf("accepted out-of-range head %d (size %d)", c.Head, size)
			}
			if len(c.Elems) == 0 || len(c.Elems) > size {
				t.Fatalf("chain with %d elems from a %d-entry queue", len(c.Elems), size)
			}
		}

		q := mk()
		var perChain []Chain
		var stop error
		for i := 0; i < 2*size+4; i++ {
			chains, err := q.pop(crossings{m: io}, 1)
			for _, c := range chains {
				check(c)
			}
			perChain = append(perChain, chains...)
			if stop = err; len(chains) == 0 || err != nil {
				break
			}
			if err := pushOne(q, chains[0].Head, 1); err != nil {
				t.Fatal(err)
			}
		}

		// One batched pass reads the same ring bytes: it must take a
		// prefix of the per-chain sequence, and stop exactly where the
		// per-chain passes did when a malformed chain stops it.
		batch, err := mk().pop(crossings{m: io, batch: true}, size)
		if len(batch) > len(perChain) {
			t.Fatalf("batched pass took %d chains, per-chain passes %d", len(batch), len(perChain))
		}
		for i, c := range batch {
			check(c)
			p := perChain[i]
			if c.Head != p.Head || !slices.Equal(c.Elems, p.Elems) {
				t.Fatalf("chain %d: batched %+v, per chain %+v", i, c, p)
			}
		}
		if err != nil && (stop == nil || len(batch) != len(perChain)) {
			t.Fatalf("batched pass stopped after %d chains (%v), per-chain passes after %d (%v)", len(batch), err, len(perChain), stop)
		}
	})
}

// mmioOp encodes one register access of a FuzzMMIORegisters sequence:
// a 16-bit offset into the device window, a size selector (1, 2, 4 or
// 8 bytes), a write flag and a 64-bit value.
func mmioOp(off uint16, size int, write bool, value uint64) []byte {
	b := make([]byte, 12)
	binary.LittleEndian.PutUint16(b, off)
	b[2] = byte(bits.TrailingZeros(uint(size)))
	if write {
		b[3] = 1
	}
	binary.LittleEndian.PutUint64(b[4:], value)
	return b
}

// FuzzMMIORegisters drives blk, console and net devices over a slab
// with arbitrary register-access sequences — any offset, a size of 1,
// 2, 4 or 8, any value, reads and writes — then hands the console and
// net devices host input. Every register index the guest picks is
// untrusted: queue selections past the device's queues, notifies for
// queues it does not have and rings at any address must be refused or
// absorbed, never panic.
func FuzzMMIORegisters(f *testing.F) {
	// Selecting queue 7, then writing QueueDescLow on the 2-queue
	// console.
	f.Add(uint8(1), append(mmioOp(RegQueueSel, 4, true, 7), mmioOp(RegQueueDescLow, 4, true, 0x1000)...))
	// One 8-byte all-ones write to the blk device's QueueNotify.
	f.Add(uint8(0), mmioOp(RegQueueNotify, 8, true, ^uint64(0)))
	// A batched net device whose rx queue the guest sets up in the
	// slab and notifies.
	var netRx []byte
	for _, op := range [][3]uint64{
		{RegQueueSel, 4, NetRxQ}, {RegQueueNum, 4, 8}, {RegQueueDescLow, 4, 0x1000},
		{RegQueueDriverLow, 4, 0x2000}, {RegQueueDeviceLow, 4, 0x3000},
		{RegQueueReady, 4, 1}, {RegQueueNotify, 4, NetRxQ},
	} {
		netRx = append(netRx, mmioOp(uint16(op[0]), int(op[1]), true, op[2])...)
	}
	f.Add(uint8(6), netRx)

	f.Fuzz(func(t *testing.T, which uint8, ops []byte) {
		io := mem.SlabIO{Phys: mem.NewPhys(0, 64<<10)}
		batch := which&4 != 0
		var mmio func(gpa mem.GPA, size int, write bool, value uint64) uint64
		var input func()
		switch which % 3 {
		case 0:
			b := NewBlkDevice(devBase, io, &memBackend{data: make([]byte, 64<<10)}, vclock.New(), vclock.Default())
			b.Batch = batch
			mmio = b.MMIO
		case 1:
			c := NewConsoleDevice(devBase, io)
			c.Batch = batch
			c.Output = func([]byte) {}
			mmio = c.MMIO
			input = func() { c.SendToGuest([]byte("uname -r\n")) }
		case 2:
			n := NewNetDevice(devBase, [6]byte{0x52, 0x56, 0x4d, 0, 0, 1}, io)
			n.Batch = batch
			n.SendFrame = func([]byte) {}
			mmio = n.MMIO
			input = func() { n.DeliverToGuest(make([]byte, 60)) }
		}
		for ; len(ops) >= 12; ops = ops[12:] {
			off := binary.LittleEndian.Uint16(ops)
			size := 1 << (ops[2] & 3)
			mmio(devBase+mem.GPA(off), size, ops[3]&1 != 0, binary.LittleEndian.Uint64(ops[4:]))
		}
		if input != nil {
			input()
		}
	})
}
