package guestos

import (
	"strings"
	"testing"

	"vmsh/internal/hostsim"
	"vmsh/internal/kvm"
	"vmsh/internal/mem"
	"vmsh/internal/netsim"
	"vmsh/internal/virtio"
)

const (
	testNetBase = mem.GPA(0xd8002000)
	testNetGSI  = uint32(50)
)

// bootNetPair boots two guests on one host, attaches a virtio-net
// device to each through the platform_device_register kfunc (the same
// entry point the side-loaded blob uses) and cables both into one
// switch.
func bootNetPair(t *testing.T) (*hostsim.Host, *netsim.Switch, [2]*Kernel, [2]*Iface) {
	t.Helper()
	h := hostsim.NewHost()
	sw := netsim.New(h.Clock, h.Costs)

	var kernels [2]*Kernel
	var ifaces [2]*Iface
	for i := 0; i < 2; i++ {
		proc := h.NewProcess("hyp", hostsim.Creds{UID: 1000})
		ram := mem.NewPhys(0, 128<<20)
		m, err := proc.AS.MapPhys(0x7f0000000000, ram, "guest-ram")
		if err != nil {
			t.Fatal(err)
		}
		vm, _ := kvm.CreateVM(proc, "unit")
		vm.AddMemSlotDirect(0, 0, m.HVA, ram)
		vm.NewVCPU()
		k, err := Boot(Config{Version: "5.10", Seed: int64(i + 1), Host: h, VM: vm, RAMSize: 128 << 20})
		if err != nil {
			t.Fatal(err)
		}
		kernels[i] = k

		port := sw.NewPort("vm", netsim.LinkParams{})
		dev := virtio.NewNetDevice(testNetBase, [6]byte(port.MAC()), k.GuestMem())
		dev.SendFrame = func(f []byte) { sw.Send(port, f) }
		port.Deliver = dev.DeliverToGuest
		dev.SignalIRQ = func() { vm.InjectIRQ(testNetGSI) }
		vm.RegisterMMIO(testNetBase, virtio.MMIOSize, dev, "virtio-net")

		desc := EncodeDeviceDesc(true, testNetBase, testNetGSI)
		gva := scratchGVA(k)
		if err := k.virtIO().WriteVirt(gva, desc); err != nil {
			t.Fatal(err)
		}
		if _, err := callKfunc(t, k, "platform_device_register", uint64(gva)); err != nil {
			t.Fatal(err)
		}
		ifc, ok := k.IfaceByName("vmsh0")
		if !ok {
			t.Fatal("iface vmsh0 not registered")
		}
		ifaces[i] = ifc
	}
	return h, sw, kernels, ifaces
}

func TestNetIfaceRegistration(t *testing.T) {
	_, _, kernels, ifaces := bootNetPair(t)
	if ifaces[0].IP == ifaces[1].IP {
		t.Fatalf("both guests got IP %s", ifaces[0].IP)
	}
	// /dev/net plumbing.
	data, err := kernels[0].InitProc.ReadFile("/dev/net/vmsh0")
	if err != nil {
		t.Fatalf("/dev/net/vmsh0: %v", err)
	}
	if !strings.Contains(string(data), "ip=10.0.0.") {
		t.Fatalf("/dev/net/vmsh0 content %q", data)
	}
	if !strings.Contains(strings.Join(kernels[0].Log, "\n"), "virtio-net device vmsh0") {
		t.Fatal("net registration missing from kernel log")
	}
}

func TestTwoGuestPing(t *testing.T) {
	h, sw, _, ifaces := bootNetPair(t)

	start := h.Clock.Now()
	res, ok, err := ifaces[0].Ping(ifaces[1].IP, 0, 56)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("ping got no reply")
	}
	if res.Payload != 56 || res.Seq != 0 {
		t.Fatalf("reply %+v", res)
	}
	rtt := h.Clock.Since(start)
	if rtt <= 0 {
		t.Fatal("ping advanced no virtual time")
	}
	// First request floods (unknown MAC), the reply unicasts back.
	st := sw.Stats()
	if st.Flooded != 1 || st.Forwarded != 1 {
		t.Fatalf("switch stats %+v", st)
	}

	// Second ping: both MACs learned, pure unicast. With exactly two
	// ports a flood also reaches one port, so the cost matches the
	// unicast path — but never exceeds it.
	start2 := h.Clock.Now()
	_, ok, err = ifaces[0].Ping(ifaces[1].IP, 1, 56)
	if err != nil || !ok {
		t.Fatalf("second ping: %v ok=%v", err, ok)
	}
	rtt2 := h.Clock.Since(start2)
	if sw.Stats().Forwarded != 3 {
		t.Fatalf("switch stats after second ping %+v", sw.Stats())
	}
	if rtt2 > rtt {
		t.Fatalf("learned-path RTT %v costlier than flood-path %v", rtt2, rtt)
	}
}

func TestTwoGuestStreamAndStats(t *testing.T) {
	_, _, _, ifaces := bootNetPair(t)
	const total = 1 << 20
	sent, err := ifaces[0].Stream(ifaces[1].IP, total)
	if err != nil {
		t.Fatal(err)
	}
	if sent <= 0 {
		t.Fatal("no packets sent")
	}
	// Receiver-side accounting.
	st := ifaces[1].RxStream(ifaces[0].IP)
	if st.Bytes != total || st.Frames != sent {
		t.Fatalf("receiver saw %+v, want %d bytes in %d frames", st, total, sent)
	}
	// Remote stat query round trip.
	peer, ok, err := ifaces[0].QueryPeerStats(ifaces[1].IP)
	if err != nil || !ok {
		t.Fatalf("stat query: %v ok=%v", err, ok)
	}
	if peer != st {
		t.Fatalf("stat reply %+v != receiver state %+v", peer, st)
	}
}

func TestShellNetworkBuiltins(t *testing.T) {
	_, _, kernels, ifaces := bootNetPair(t)
	k := kernels[0]
	// Give the shell proc an image carrying the net tools.
	if err := k.InitProc.Mkdir("/bin", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := k.InitProc.WriteFile("/bin/ping", []byte("x"), 0o755); err != nil {
		t.Fatal(err)
	}
	_ = k.InitProc.WriteFile("/bin/iperf", []byte("x"), 0o755)
	_ = k.InitProc.WriteFile("/bin/ifconfig", []byte("x"), 0o755)

	tty := k.NewTTY("tty-test", func([]byte) error { return nil })
	sh := NewShell(k, k.InitProc, tty)

	out := sh.run("ifconfig")
	if !strings.Contains(out, "vmsh0") || !strings.Contains(out, ifaces[0].IP.String()) {
		t.Fatalf("ifconfig output %q", out)
	}
	out = sh.run("ping " + ifaces[1].IP.String() + " 2")
	if !strings.Contains(out, "2 packets transmitted, 2 received, 0% packet loss") {
		t.Fatalf("ping output %q", out)
	}
	out = sh.run("iperf " + ifaces[1].IP.String() + " 1")
	if !strings.Contains(out, "MB/s") || strings.Contains(out, "iperf:") {
		t.Fatalf("iperf output %q", out)
	}
}

func TestPingUnknownHostTimesOut(t *testing.T) {
	_, _, _, ifaces := bootNetPair(t)
	_, ok, err := ifaces[0].Ping(IP4{10, 0, 0, 99}, 0, 32)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("got a reply from a nonexistent host")
	}
}
