// Package netsim is a deterministic layer-2 packet switch connecting
// simulated VMs. It plays the role a host bridge/tap pair plays for
// real virtio-net: frames leave one VM's device, pay switching and
// link costs on the virtual clock, and arrive at another VM's device
// — synchronously, so two runs with the same seed interleave
// identically.
//
// The switch is a learning switch: source MACs are associated with
// their ingress port, unknown/broadcast destinations flood to every
// other port in port-ID order. Each port carries LinkParams modelling
// the attached link's serialisation bandwidth, propagation latency
// and a deterministic drop pattern; unset fields fall back to the
// host cost model (vclock.Costs.NetLinkBW / NetLinkLat).
package netsim

import (
	"fmt"
	"time"

	"vmsh/internal/faults"
	"vmsh/internal/obs"
	"vmsh/internal/vclock"
)

// MAC is an Ethernet hardware address.
type MAC [6]byte

// Broadcast is the all-ones destination address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// String implements fmt.Stringer.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Ethernet framing constants.
const (
	// HeaderSize is destination MAC + source MAC + EtherType.
	HeaderSize = 14
	// EtherTypeVMSH is the experimental EtherType the guest netstack
	// speaks (IEEE 88B5, local experimental).
	EtherTypeVMSH = 0x88b5
	// DefaultMTU bounds the frame payload (classic Ethernet).
	DefaultMTU = 1500
)

// BuildFrame assembles dst|src|ethertype|payload.
func BuildFrame(dst, src MAC, etherType uint16, payload []byte) []byte {
	f := make([]byte, HeaderSize+len(payload))
	copy(f[0:6], dst[:])
	copy(f[6:12], src[:])
	f[12] = byte(etherType >> 8)
	f[13] = byte(etherType)
	copy(f[14:], payload)
	return f
}

// ParseFrame splits a frame into its header fields and payload. The
// payload aliases the input.
func ParseFrame(f []byte) (dst, src MAC, etherType uint16, payload []byte, err error) {
	if len(f) < HeaderSize {
		return dst, src, 0, nil, fmt.Errorf("netsim: runt frame (%d bytes)", len(f))
	}
	copy(dst[:], f[0:6])
	copy(src[:], f[6:12])
	etherType = uint16(f[12])<<8 | uint16(f[13])
	return dst, src, etherType, f[14:], nil
}

// LinkParams models the link attached to one switch port. Zero values
// fall back to the cost-model defaults.
type LinkParams struct {
	// BandwidthBps is the serialisation bandwidth in bytes/sec.
	BandwidthBps float64
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// DropNth, when > 0, deterministically drops every Nth frame
	// egressing this link (1st, N+1th, ... pass; the Nth drops).
	DropNth int
	// MTU bounds the frame payload; oversized frames are dropped at
	// ingress. Zero means DefaultMTU.
	MTU int
}

// PortStats counts one port's traffic. "Tx/Rx" are from the attached
// NIC's point of view: Tx enters the switch, Rx leaves it.
type PortStats struct {
	TxFrames, TxBytes int64
	RxFrames, RxBytes int64
	DropsLink         int64 // lost to the link's drop pattern
	DropsOversize     int64 // exceeded the link MTU
	DropsNoSink       int64 // delivered to a port with no receiver
}

// Port is one switch attachment point. The device side (virtio-net
// hosted by VMSH) calls Send for guest transmissions and receives
// inbound frames through Deliver.
type Port struct {
	sw   *Switch
	id   int
	link LinkParams
	name string

	// Deliver is invoked, synchronously, for every frame the switch
	// forwards to this port. A nil Deliver counts as DropsNoSink.
	Deliver func(frame []byte)

	egressSeq int64 // frames attempted out of this port (drop pattern)
	stats     PortStats
	track     obs.Track // "link:<name>" once Observe wires a tracer
}

// ID returns the port's switch-assigned index (0, 1, ...).
func (p *Port) ID() int { return p.id }

// Name returns the diagnostic name given at attach time.
func (p *Port) Name() string { return p.name }

// Link returns the port's link parameters.
func (p *Port) Link() LinkParams { return p.link }

// Stats snapshots the port counters.
func (p *Port) Stats() PortStats { return p.stats }

// MAC returns the deterministic hardware address assigned to the
// device behind this port: the VMSH OUI 52:56:4d ("RVM") followed by
// the port ID.
func (p *Port) MAC() MAC {
	return MAC{0x52, 0x56, 0x4d, 0x00, 0x00, byte(p.id + 1)}
}

// SwitchStats aggregates switch-level behaviour.
type SwitchStats struct {
	Forwarded int64 // frames unicast to a learned port
	Flooded   int64 // frames flooded (broadcast/unknown destination)
	Dropped   int64 // frames lost anywhere (link, MTU, no sink)
}

// Switch is the deterministic learning switch. It is not safe for
// concurrent use — the simulation is single-threaded by design, which
// is precisely what makes two same-seed runs byte-identical.
type Switch struct {
	clock *vclock.Clock
	costs *vclock.Costs

	ports []*Port
	fdb   map[MAC]*Port // forwarding database: learned source MACs

	stats SwitchStats

	faults *faults.Injector

	trace        *obs.Tracer
	ctrForwarded *obs.Counter
	ctrFlooded   *obs.Counter
	ctrDropped   *obs.Counter
}

// New builds an empty switch charging the given clock. The cost model
// must be valid (Validate) — a zero link bandwidth would turn every
// throughput figure into a division by zero.
func New(clock *vclock.Clock, costs *vclock.Costs) *Switch {
	if clock == nil || costs == nil {
		panic("netsim: switch needs a clock and a cost model")
	}
	costs.MustValidate()
	return &Switch{clock: clock, costs: costs, fdb: make(map[MAC]*Port)}
}

// Stats snapshots the switch counters.
func (s *Switch) Stats() SwitchStats { return s.stats }

// Ports returns the attachment list in port-ID order.
func (s *Switch) Ports() []*Port { return append([]*Port(nil), s.ports...) }

// Observe wires the switch into a tracer and metrics registry: every
// port gets a "link:<name>" track carrying per-frame transit spans,
// and the switch-level counters mirror into the registry. Ports
// attached after Observe are wired as they are created. Either
// argument may be nil.
func (s *Switch) Observe(t *obs.Tracer, reg *obs.Registry) {
	s.trace = t
	s.ctrForwarded = reg.Counter("net.switch.forwarded")
	s.ctrFlooded = reg.Counter("net.switch.flooded")
	s.ctrDropped = reg.Counter("net.switch.dropped")
	for _, p := range s.ports {
		p.track = t.Track("link:" + p.name)
	}
}

// SetFaults wires the host's crossing plane into the switch: each
// egress link delivery becomes a "net:link" crossing, which an
// injected fault turns into a link drop (counted like a DropNth loss)
// and a tap observes, delivered or dropped. A nil plane (or never
// calling SetFaults) keeps the data path check- and observation-free.
func (s *Switch) SetFaults(in *faults.Injector) { s.faults = in }

// tapLink reports one link crossing; err is nil for a delivery,
// faults.Dropped (or the injected fault) for a loss.
func (s *Switch) tapLink(out *Port, frame []byte, err error) {
	if !s.faults.Observing() {
		return
	}
	s.faults.Observe(faults.OpNetLink,
		faults.NewDigest().U64(uint64(out.id)).U64(uint64(len(frame))),
		faults.NewDigest().Bytes(frame), err)
}

// NewPort attaches a new device to the switch.
func (s *Switch) NewPort(name string, link LinkParams) *Port {
	p := &Port{sw: s, id: len(s.ports), link: link, name: name}
	if s.trace != nil {
		p.track = s.trace.Track("link:" + name)
	}
	s.ports = append(s.ports, p)
	return p
}

// mtu returns the port's effective payload MTU.
func (p *Port) mtu() int {
	if p.link.MTU > 0 {
		return p.link.MTU
	}
	return DefaultMTU
}

// LinkTime computes one transfer's serialisation + propagation cost on
// a link, with zero-valued LinkParams falling back to the cost model —
// the same arithmetic the switch charges per frame. The lifecycle
// migration engine uses it to price bulk page streams over a modelled
// migration link without routing every page through frame switching.
func LinkTime(link LinkParams, costs *vclock.Costs, n int) time.Duration {
	bw := link.BandwidthBps
	if bw <= 0 {
		bw = costs.NetLinkBW
	}
	lat := link.Latency
	if lat <= 0 {
		lat = costs.NetLinkLat
	}
	return lat + vclock.Copy(n, bw)
}

// linkTime charges one frame's serialisation + propagation on p's link.
func (s *Switch) linkTime(p *Port, n int) time.Duration {
	return LinkTime(p.link, s.costs, n)
}

// Send ingests one frame from the device attached to p and forwards
// it. The whole path — ingress link, switching, egress link(s),
// destination Deliver callback(s) — runs synchronously on the
// caller's stack, charging the virtual clock as it goes.
func (s *Switch) Send(p *Port, frame []byte) {
	dst, src, _, payload, err := ParseFrame(frame)
	if err != nil {
		s.stats.Dropped++
		return
	}
	if len(payload) > p.mtu() {
		p.stats.DropsOversize++
		s.stats.Dropped++
		s.ctrDropped.Inc()
		return
	}
	p.stats.TxFrames++
	p.stats.TxBytes += int64(len(frame))

	// Ingress: the sender's link serialises the frame, then the
	// switch does its lookup.
	sp := p.track.Span("link", "ingress")
	s.clock.Advance(s.linkTime(p, len(frame)) + s.costs.NetSwitchHop)
	sp.End1("bytes", int64(len(frame)))
	p.track.FlowStep("flow", "ingress")
	s.fdb[src] = p

	if dst == Broadcast {
		s.stats.Flooded++
		s.ctrFlooded.Inc()
		for _, out := range s.ports {
			if out != p {
				s.egress(out, frame)
			}
		}
		return
	}
	if out, ok := s.fdb[dst]; ok && out != p {
		s.stats.Forwarded++
		s.ctrForwarded.Inc()
		s.egress(out, frame)
		return
	}
	// Unknown unicast: flood, like a real learning switch.
	s.stats.Flooded++
	s.ctrFlooded.Inc()
	for _, out := range s.ports {
		if out != p {
			s.egress(out, frame)
		}
	}
}

// egress pushes one frame out of a port, applying the link's drop
// pattern and charging the egress link.
func (s *Switch) egress(out *Port, frame []byte) {
	out.egressSeq++
	if n := out.link.DropNth; n > 0 && out.egressSeq%int64(n) == 0 {
		out.stats.DropsLink++
		s.stats.Dropped++
		s.ctrDropped.Inc()
		out.track.Event1("link", "drop", "bytes", int64(len(frame)))
		out.track.FlowEnd("flow", "drop")
		s.tapLink(out, frame, faults.Dropped)
		return
	}
	if err := s.faults.Check(faults.OpNetLink); err != nil {
		// An injected link fault is indistinguishable from a lossy
		// cable: the frame vanishes, the switch keeps forwarding.
		out.stats.DropsLink++
		s.stats.Dropped++
		s.ctrDropped.Inc()
		out.track.Event1("link", "drop", "bytes", int64(len(frame)))
		out.track.FlowEnd("flow", "drop")
		s.tapLink(out, frame, err)
		return
	}
	sp := out.track.Span("link", "transit")
	s.clock.Advance(s.linkTime(out, len(frame)))
	sp.End1("bytes", int64(len(frame)))
	out.track.FlowStep("flow", "transit")
	if out.Deliver == nil {
		out.stats.DropsNoSink++
		s.stats.Dropped++
		s.ctrDropped.Inc()
		out.track.FlowEnd("flow", "drop")
		s.tapLink(out, frame, faults.Dropped)
		return
	}
	out.stats.RxFrames++
	out.stats.RxBytes += int64(len(frame))
	// Observed before Deliver so crossings the receiving device makes
	// while processing the frame follow their cause in the log.
	s.tapLink(out, frame, nil)
	out.Deliver(frame)
}
