package virtio

import (
	"testing"

	"vmsh/internal/mem"
)

// FuzzVirtqueueDescTable hands the device side a guest-controlled
// descriptor table and avail ring — arbitrary bytes, as a malicious or
// corrupted guest could publish — and asserts the device parser is
// total: it never panics, never returns a chain longer than the queue
// (loop protection), never accepts an out-of-range head, and the
// legacy (Pop) and batched (PopBatch) paths agree on what they accept.
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

		check := func(c *Chain) {
			if int(c.Head) >= size {
				t.Fatalf("accepted out-of-range head %d (size %d)", c.Head, size)
			}
			if len(c.Elems) == 0 || len(c.Elems) > size {
				t.Fatalf("chain with %d elems from a %d-entry queue", len(c.Elems), size)
			}
		}

		q := mk()
		var legacy []*Chain
		for i := 0; i < 2*size+4; i++ {
			c, ok, err := q.Pop()
			if err != nil || !ok {
				break
			}
			check(c)
			legacy = append(legacy, c)
			if err := q.PushUsed(c.Head, 1); err != nil {
				break
			}
		}

		// The batched path parses the same ring bytes; it must accept a
		// prefix-consistent view (same heads in the same order, up to
		// where either path stopped).
		q2 := mk()
		batch, err := q2.PopBatch(size)
		if err == nil {
			entries := make([]UsedElem, 0, len(batch))
			for _, c := range batch {
				check(c)
				entries = append(entries, UsedElem{ID: uint32(c.Head), Len: 1})
			}
			_ = q2.PushUsedBatch(entries)
		}
		n := len(legacy)
		if len(batch) < n {
			n = len(batch)
		}
		for i := 0; i < n; i++ {
			if legacy[i].Head != batch[i].Head {
				t.Fatalf("pop/popbatch disagree at %d: heads %d vs %d", i, legacy[i].Head, batch[i].Head)
			}
			if len(legacy[i].Elems) != len(batch[i].Elems) {
				t.Fatalf("pop/popbatch disagree at %d: %d vs %d elems", i, len(legacy[i].Elems), len(batch[i].Elems))
			}
		}
	})
}
