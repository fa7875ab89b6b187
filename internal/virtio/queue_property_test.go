package virtio

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"vmsh/internal/mem"
)

// popOne takes the next available chain the way a per-chain service
// pass does.
func popOne(q *DeviceQueue) (*Chain, bool, error) {
	chains, err := q.pop(crossings{m: q.M}, 1)
	if len(chains) == 0 {
		return nil, false, err
	}
	return &chains[0], true, nil
}

// pushOne completes one chain the way a per-chain service pass does.
func pushOne(q *DeviceQueue, head uint16, n uint32) error {
	return q.pushUsed(crossings{m: q.M}, []Chain{{Head: head, Used: n}})
}

// TestChainLayoutProperty drives random descriptor chains (varying
// element counts, lengths and non-contiguous table slots) through the
// device-side pop and checks exact recovery — this is the wire format
// everything else rides on.
func TestChainLayoutProperty(t *testing.T) {
	slab := mem.NewPhys(0, 8<<20)
	io := mem.SlabIO{Phys: slab}

	prop := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		qsize := []int{8, 16, 64, 256}[rnd.Intn(4)]
		db, ab, ub := QueueLayout(qsize)
		descGPA := mem.GPA(0x1000)
		availGPA := descGPA + mem.GPA(mem.PageAlign(uint64(db)))
		usedGPA := availGPA + mem.GPA(mem.PageAlign(uint64(ab)))
		_ = ub

		dq := &DriverQueue{M: io, Size: qsize, Desc: descGPA, Avail: availGPA, Used: usedGPA}
		if err := dq.InitRings(); err != nil {
			return false
		}
		devq := &DeviceQueue{M: io, Size: qsize, Desc: descGPA, Avail: availGPA, Used: usedGPA}

		// Publish a few chains at scattered start slots.
		nChains := rnd.Intn(3) + 1
		type want struct {
			head  uint16
			elems []ChainElem
		}
		var wants []want
		slot := 0
		for c := 0; c < nChains; c++ {
			n := rnd.Intn(3) + 1
			if slot+n > qsize {
				break
			}
			var elems []ChainElem
			for e := 0; e < n; e++ {
				elems = append(elems, ChainElem{
					Addr:  mem.GPA(0x400000 + rnd.Intn(1<<20)),
					Len:   uint32(rnd.Intn(8192) + 1),
					Write: rnd.Intn(2) == 0,
				})
			}
			if err := dq.Publish(slot, elems); err != nil {
				return false
			}
			wants = append(wants, want{head: uint16(slot), elems: elems})
			slot += n + rnd.Intn(2) // sometimes leave a gap
		}

		// The device recovers every chain, in order, exactly.
		for _, w := range wants {
			chain, ok, err := popOne(devq)
			if err != nil || !ok || chain.Head != w.head {
				return false
			}
			if len(chain.Elems) != len(w.elems) {
				return false
			}
			for i, d := range chain.Elems {
				e := w.elems[i]
				if d.Addr != e.Addr || d.Len != e.Len {
					return false
				}
				if (d.Flags&DescFlagWrite != 0) != e.Write {
					return false
				}
				wantNext := i != len(w.elems)-1
				if (d.Flags&DescFlagNext != 0) != wantNext {
					return false
				}
			}
			if err := pushOne(devq, chain.Head, 1); err != nil {
				return false
			}
		}
		// Nothing extra.
		if _, ok, _ := popOne(devq); ok {
			return false
		}
		// The driver sees exactly the used entries, in order.
		for _, w := range wants {
			u, ok, err := dq.PopUsed()
			if err != nil || !ok || uint16(u.ID) != w.head {
				return false
			}
		}
		if u, ok, _ := dq.PopUsed(); ok {
			_ = u
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestRingWrapAround exercises index wrap (u16 arithmetic) over many
// more requests than the ring has slots.
func TestRingWrapAround(t *testing.T) {
	d, _, backend, _ := setupBlk(t)
	payload := bytes.Repeat([]byte{0x5a}, 512)
	for i := 0; i < 700; i++ { // ring size is 256
		off := int64(i%64) * 512
		if err := d.WriteAt(off, payload); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if !bytes.Equal(backend.data[0:512], payload) {
		t.Fatal("data corrupted after ring wrap")
	}
}

// TestConsoleFragmentation delivers input split at every possible
// boundary of a command line.
func TestConsoleFragmentation(t *testing.T) {
	msg := "echo fragmentation-test\n"
	for cut := 1; cut < len(msg); cut++ {
		env, io := newEnv()
		dev := NewConsoleDevice(devBase, io)
		env.Bus = &directBus{handler: dev}
		var drv *ConsoleDriver
		dev.SignalIRQ = func() {
			if drv != nil {
				drv.HandleIRQ()
			}
		}
		c, err := ProbeConsole(env, devBase)
		if err != nil {
			t.Fatal(err)
		}
		drv = c
		var got bytes.Buffer
		c.OnInput = func(b []byte) { got.Write(b) }
		dev.SendToGuest([]byte(msg[:cut]))
		dev.SendToGuest([]byte(msg[cut:]))
		if got.String() != msg {
			t.Fatalf("cut at %d: received %q", cut, got.String())
		}
	}
}

// TestTwoQueueIndependenceProperty lays out two queue pairs in one
// guest memory slab — the rx/tx arrangement virtio-net uses — and
// interleaves traffic randomly across them. Neither queue may observe
// the other's chains or used entries.
func TestTwoQueueIndependenceProperty(t *testing.T) {
	slab := mem.NewPhys(0, 8<<20)
	io := mem.SlabIO{Phys: slab}

	prop := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		qsize := []int{8, 16, 64}[rnd.Intn(3)]
		db, ab, _ := QueueLayout(qsize)

		var dqs [2]*DriverQueue
		var devqs [2]*DeviceQueue
		base := mem.GPA(0x1000)
		for q := 0; q < 2; q++ {
			descGPA := base
			availGPA := descGPA + mem.GPA(mem.PageAlign(uint64(db)))
			usedGPA := availGPA + mem.GPA(mem.PageAlign(uint64(ab)))
			base = usedGPA + mem.GPA(mem.PageAlign(uint64(ab)))
			dqs[q] = &DriverQueue{M: io, Size: qsize, Desc: descGPA, Avail: availGPA, Used: usedGPA}
			if err := dqs[q].InitRings(); err != nil {
				return false
			}
			devqs[q] = &DeviceQueue{M: io, Size: qsize, Desc: descGPA, Avail: availGPA, Used: usedGPA}
		}

		// Interleave publishes: queue choice, slot and payload length
		// all random; per-queue slot cursors stay disjoint.
		slots := [2]int{}
		var order [2][]uint16
		for i := 0; i < 8; i++ {
			q := rnd.Intn(2)
			n := rnd.Intn(2) + 1
			if slots[q]+n > qsize {
				continue
			}
			var elems []ChainElem
			for e := 0; e < n; e++ {
				elems = append(elems, ChainElem{
					Addr:  mem.GPA(0x400000 + 0x10000*q + rnd.Intn(1<<14)),
					Len:   uint32(rnd.Intn(4096) + 1),
					Write: q == 0, // queue 0 plays rx (device-writable)
				})
			}
			if err := dqs[q].Publish(slots[q], elems); err != nil {
				return false
			}
			order[q] = append(order[q], uint16(slots[q]))
			slots[q] += n
		}

		// Each device queue yields exactly its own chains, in order.
		for q := 0; q < 2; q++ {
			for _, head := range order[q] {
				chain, ok, err := popOne(devqs[q])
				if err != nil || !ok || chain.Head != head {
					return false
				}
				for _, d := range chain.Elems {
					if (d.Flags&DescFlagWrite != 0) != (q == 0) {
						return false
					}
				}
				if err := pushOne(devqs[q], chain.Head, 4); err != nil {
					return false
				}
			}
			if _, ok, _ := popOne(devqs[q]); ok {
				return false
			}
		}
		// Used entries stay per-queue too.
		for q := 0; q < 2; q++ {
			for _, head := range order[q] {
				u, ok, err := dqs[q].PopUsed()
				if err != nil || !ok || uint16(u.ID) != head {
					return false
				}
			}
			if _, ok, _ := dqs[q].PopUsed(); ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestWriteChainFillProperty round-trips device-filled buffers: the
// driver posts chains of DescFlagWrite descriptors (the virtio-net rx
// path), the device fills each element with a seeded pattern and
// reports the written length via the used ring, and the driver must
// read back exactly those bytes.
func TestWriteChainFillProperty(t *testing.T) {
	slab := mem.NewPhys(0, 8<<20)
	io := mem.SlabIO{Phys: slab}

	prop := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		qsize := 16
		db, ab, _ := QueueLayout(qsize)
		descGPA := mem.GPA(0x1000)
		availGPA := descGPA + mem.GPA(mem.PageAlign(uint64(db)))
		usedGPA := availGPA + mem.GPA(mem.PageAlign(uint64(ab)))

		dq := &DriverQueue{M: io, Size: qsize, Desc: descGPA, Avail: availGPA, Used: usedGPA}
		if err := dq.InitRings(); err != nil {
			return false
		}
		devq := &DeviceQueue{M: io, Size: qsize, Desc: descGPA, Avail: availGPA, Used: usedGPA}

		// Post a multi-element all-writable chain.
		nElems := rnd.Intn(3) + 1
		bufGPA := mem.GPA(0x500000)
		var elems []ChainElem
		for e := 0; e < nElems; e++ {
			l := uint32(rnd.Intn(2048) + 1)
			elems = append(elems, ChainElem{Addr: bufGPA, Len: l, Write: true})
			bufGPA += mem.GPA(mem.PageAlign(uint64(l)))
		}
		if err := dq.Publish(0, elems); err != nil {
			return false
		}

		// Device side: fill a random prefix of the chain capacity.
		chain, ok, err := popOne(devq)
		if err != nil || !ok {
			return false
		}
		var capacity int
		for _, d := range chain.Elems {
			if d.Flags&DescFlagWrite == 0 {
				return false
			}
			capacity += int(d.Len)
		}
		fill := rnd.Intn(capacity) + 1
		pattern := make([]byte, fill)
		for i := range pattern {
			pattern[i] = byte(rnd.Intn(256))
		}
		rest := pattern
		for _, d := range chain.Elems {
			if len(rest) == 0 {
				break
			}
			n := len(rest)
			if n > int(d.Len) {
				n = int(d.Len)
			}
			if err := io.WritePhys(d.Addr, rest[:n]); err != nil {
				return false
			}
			rest = rest[n:]
		}
		if err := pushOne(devq, chain.Head, uint32(fill)); err != nil {
			return false
		}

		// Driver side: the used length bounds the read-back.
		u, ok, err := dq.PopUsed()
		if err != nil || !ok || uint16(u.ID) != chain.Head || int(u.Len) != fill {
			return false
		}
		got := make([]byte, 0, fill)
		rem := fill
		for _, e := range elems {
			if rem == 0 {
				break
			}
			n := rem
			if n > int(e.Len) {
				n = int(e.Len)
			}
			buf := make([]byte, n)
			if err := io.ReadPhys(e.Addr, buf); err != nil {
				return false
			}
			got = append(got, buf...)
			rem -= n
		}
		return bytes.Equal(got, pattern)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
