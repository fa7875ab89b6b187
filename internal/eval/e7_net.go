package eval

import (
	"fmt"
	"time"

	"vmsh/internal/core"
	"vmsh/internal/fsimage"
	"vmsh/internal/guestos"
	"vmsh/internal/hostsim"
	"vmsh/internal/hypervisor"
	"vmsh/internal/ledger"
	"vmsh/internal/netsim"
	"vmsh/internal/workloads"
)

// NetScenario is one sweep point of the E7 network experiment: the
// same seeded traffic mix replayed under different link cost models,
// or with the device's legacy per-chain service instead of the
// batched fast path.
type NetScenario struct {
	Name   string
	Link   netsim.LinkParams
	Legacy bool
}

// StandardE7Scenarios sweeps the cost-model axes: the default link,
// one axis scaled 10x at a time, a lossy link, and the default link
// on the legacy device path (the fast path's comparison column).
func StandardE7Scenarios() []NetScenario {
	return []NetScenario{
		{Name: "base link", Link: netsim.LinkParams{}},
		{Name: "10x bandwidth", Link: netsim.LinkParams{BandwidthBps: 1.25e10}},
		{Name: "10x latency", Link: netsim.LinkParams{Latency: 250 * time.Microsecond}},
		{Name: "drop 1-in-16", Link: netsim.LinkParams{DropNth: 16}},
		{Name: "legacy base link", Link: netsim.LinkParams{}, Legacy: true},
	}
}

// netAttachPair launches two guests on one host, attaches VMSH to both
// with a shared switch (both ports under the given link model) and
// returns the guest-side interfaces the traffic generator drives.
// legacy pins the per-chain device service loop.
func netAttachPair(h *hostsim.Host, sw *netsim.Switch, link netsim.LinkParams, legacy bool) ([2]*guestos.Iface, error) {
	var ifaces [2]*guestos.Iface
	for i := 0; i < 2; i++ {
		inst, err := hypervisor.Launch(h, hypervisor.Config{
			Kind:          hypervisor.QEMU,
			Name:          fmt.Sprintf("e7-%c", 'a'+i),
			KernelVersion: "5.10",
			RootFS:        fsimage.GuestRoot(fmt.Sprintf("e7-%c", 'a'+i)),
			Seed:          int64(100 + i),
		})
		if err != nil {
			return ifaces, err
		}
		img := h.CreateFile(fmt.Sprintf("e7-%c.img", 'a'+i), 64<<20, false)
		if err := fsimage.Build(hostsim.NewHostFileDevice(img), fsimage.Manifest{}); err != nil {
			return ifaces, err
		}
		v := core.New(h)
		if _, err := v.Attach(inst.Proc.PID, core.Options{
			Image: img, Minimal: true, Net: sw, NetLink: link,
			LegacyVirtio: legacy,
		}); err != nil {
			return ifaces, err
		}
		ifc, ok := inst.Kernel.IfaceByName("vmsh0")
		if !ok {
			return ifaces, fmt.Errorf("guest %d: vmsh0 not registered", i)
		}
		ifaces[i] = ifc
	}
	return ifaces, nil
}

// RunNetwork regenerates the E7 network sweep: the standard seeded
// traffic mix between two VMSH-attached guests, replayed per scenario.
// Every run is purely virtual-clock driven, so the same seed yields
// identical results.
func RunNetwork(seed int64) ([]workloads.NetResult, error) {
	var results []workloads.NetResult
	for _, sc := range StandardE7Scenarios() {
		h := hostsim.NewHost()
		sw := netsim.New(h.Clock, h.Costs)
		ifaces, err := netAttachPair(h, sw, sc.Link, sc.Legacy)
		if err != nil {
			return nil, fmt.Errorf("e7 %s: %w", sc.Name, err)
		}
		spec := workloads.StandardNetSpec(seed)
		spec.Name = sc.Name
		r, err := workloads.NetTraffic(h.Clock, ifaces[0], ifaces[1], spec)
		if err != nil {
			return nil, fmt.Errorf("e7 %s: %w", sc.Name, err)
		}
		results = append(results, r)
	}
	return results, nil
}

// NetworkRows is E7n's ledger, per scenario: the stream's goodput (a
// rate, invariant), the mean echo round trip (a cost) and the share of
// echoes lost, an invariant fixed by the scenario's drop rule.
func NetworkRows(results []workloads.NetResult) []ledger.Row {
	l := ledger.Builder{Exp: "e7n"}
	for _, r := range results {
		loss := 0.0
		if r.PingsSent > 0 {
			loss = 100 * float64(r.PingsLost) / float64(r.PingsSent)
		}
		l.Invariant(r.Spec.Name+".goodput", r.MBps, "MB/s")
		l.Cost(r.Spec.Name+".rtt_mean_ns", float64(r.RTTMean), "ns")
		l.Invariant(r.Spec.Name+".echo_loss", loss, "%")
	}
	return l.Rows
}
