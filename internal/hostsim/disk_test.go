package hostsim

import (
	"bytes"
	"testing"

	"vmsh/internal/storage"
)

// The native device is a block backend.
var _ storage.BlockBackend = (*HostFileDevice)(nil)

func TestCheckAligned(t *testing.T) {
	if err := CheckAligned(512, 1024); err != nil {
		t.Fatal(err)
	}
	if err := CheckAligned(100, 512); err == nil {
		t.Fatal("unaligned offset accepted")
	}
	if err := CheckAligned(0, 100); err == nil {
		t.Fatal("unaligned length accepted")
	}
}

func TestHostFileDevice(t *testing.T) {
	h := NewHost()
	f := h.CreateFile("dev.img", 1<<20, true)
	d := NewHostFileDevice(f)
	if d.Size() != 1<<20 {
		t.Fatalf("size %d", d.Size())
	}
	if !d.SupportsFUA() {
		t.Fatal("native device must support FUA")
	}
	data := bytes.Repeat([]byte{0xAB}, 4096)
	if err := d.WriteAt(8192, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	if err := d.ReadAt(8192, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip")
	}
	if err := d.WriteAt(100, data); err == nil {
		t.Fatal("unaligned write accepted")
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestQueueDepthPropagates(t *testing.T) {
	h := NewHost()
	f := h.CreateFile("dev.img", 1<<20, true)
	d := NewHostFileDevice(f)

	// At qd=1 a 4K read pays full latency; at qd=32 it is amortised.
	buf := make([]byte, 4096)
	h.Disk.QueueDepth = 1
	t0 := h.Clock.Now()
	_ = d.ReadAt(0, buf)
	slow := h.Clock.Since(t0)

	h.Disk.QueueDepth = 32
	t1 := h.Clock.Now()
	_ = d.ReadAt(4096, buf)
	fast := h.Clock.Since(t1)
	if fast >= slow {
		t.Fatalf("qd=32 (%v) not faster than qd=1 (%v)", fast, slow)
	}
}
