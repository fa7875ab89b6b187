// Package vclock provides the virtual clock and the cost model that
// replace wall-clock measurement in the simulated host.
//
// Every layer of the stack (KVM exits, ptrace stops, inter-process
// copies, the NVMe-class backing device, the guest page cache) charges
// its work to a Clock through the constants in Costs. Benchmarks read
// the clock instead of time.Now(), which makes every figure in
// EXPERIMENTS.md deterministic and lets the cost model be tuned in one
// place to match the published ratios.
package vclock

import (
	"fmt"
	"reflect"
	"time"
)

// Clock is a monotonic virtual clock. It is single-owner and takes no
// lock: one goroutine at a time advances and reads it. The engine
// hands each shard's host, and with it the host's clock, to exactly
// one worker per window, and the window barrier orders one window's
// owner before the next; every other caller drives its host from one
// goroutine. That ownership, not a mutex, makes the advancing order
// deterministic.
type Clock struct {
	now       time.Duration
	observers []*clockObserver // Observe registrations, in order
}

// clockObserver is one registered advance callback. Identity matters:
// removal detaches exactly the registration that created it, so two
// independent subsystems (the tracer, the engine) can never clobber
// each other's hook.
type clockObserver struct {
	f func(time.Duration)
}

// New returns a clock starting at zero.
func New() *Clock { return &Clock{} }

// Now returns the current virtual time since boot.
func (c *Clock) Now() time.Duration { return c.now }

// Advance moves the clock forward by d. Negative d panics: virtual
// time never rewinds. Observers run in registration order, over the
// slice published before the first of them runs.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("vclock: negative advance %v", d))
	}
	c.now += d
	if d == 0 {
		return
	}
	for _, o := range c.observers {
		o.f(d)
	}
}

// Observe registers an advance observer, called (with the advanced
// amount) after every positive Advance, and returns its remove
// function. Any number of subsystems may observe one clock: each
// caller detaches exactly its own observer, in O(observers), and never
// disturbs the others. Remove is idempotent. Observers fire in
// registration order.
func (c *Clock) Observe(f func(time.Duration)) (remove func()) {
	if f == nil {
		return func() {}
	}
	o := &clockObserver{f: f}
	// Copy-on-write: an Advance in progress ranges over the published
	// slice, so an observer may add or remove observers (itself
	// included) without disturbing that Advance.
	next := make([]*clockObserver, len(c.observers)+1)
	copy(next, c.observers)
	next[len(next)-1] = o
	c.observers = next
	return func() {
		for i, cur := range c.observers {
			if cur == o {
				next := make([]*clockObserver, 0, len(c.observers)-1)
				next = append(next, c.observers[:i]...)
				next = append(next, c.observers[i+1:]...)
				c.observers = next
				break
			}
		}
	}
}

// Since returns the virtual time elapsed since start.
func (c *Clock) Since(start time.Duration) time.Duration { return c.Now() - start }

// Costs is the tunable cost model. All per-event values are in
// time.Duration; all bandwidths in bytes per second. The defaults are
// calibrated so that the evaluation harness reproduces the ratios
// reported in the VMSH paper (EuroSys'22, §6) on its i9-9900K + P4600
// testbed; see EXPERIMENTS.md for paper-vs-measured.
type Costs struct {
	// VMExit is the hardware cost of a VM exit plus in-kernel KVM
	// dispatch, charged on every exit regardless of who handles it.
	VMExit time.Duration
	// ContextSwitch is a host scheduler switch between processes
	// (hypervisor <-> vmsh, hypervisor <-> kernel worker).
	ContextSwitch time.Duration
	// Syscall is the base cost of one host system call.
	Syscall time.Duration
	// PtraceStop is one ptrace signal-delivery-stop round trip:
	// traced thread stops, tracer wakes, inspects, resumes. The
	// wrap_syscall trap pays two of these (entry + exit) per hooked
	// system call of the hypervisor.
	PtraceStop time.Duration
	// IoregionfdMsg is the cost of routing one MMIO access over an
	// ioregionfd socket to an external process and back.
	IoregionfdMsg time.Duration
	// IRQInject is the cost of an irqfd write plus interrupt
	// injection into the guest.
	IRQInject time.Duration
	// GuestWake is the latency for a blocked guest task to be
	// scheduled after an interrupt (interactive path only).
	GuestWake time.Duration

	// MemcpyBW is ordinary same-address-space copy bandwidth.
	MemcpyBW float64
	// ProcessVMBW is process_vm_readv/writev cross-address-space
	// copy bandwidth (slower: no cache-hot pages, kernel pinning).
	ProcessVMBW float64
	// ProcessVMBase is the fixed per-call cost of process_vm_*.
	ProcessVMBase time.Duration

	// Backing NVMe-class device (the dedicated P4600 in the paper).
	NVMeReadLat   time.Duration // per-command base latency
	NVMeWriteLat  time.Duration
	NVMeReadBW    float64 // bytes/sec
	NVMeWriteBW   float64
	NVMeFlush     time.Duration
	NVMeSegment   int           // max transfer per command (MDTS); larger IOs split
	NVMeQueueMax  int           // device-side parallelism cap
	PageCacheHit  time.Duration // per-4KiB page-cache hit handling
	InodeOp       time.Duration // in-kernel metadata operation (dcache etc.)
	GuestSyscall  time.Duration // guest-internal syscall entry/exit
	BlockLayerOp  time.Duration // guest block layer per-bio overhead
	VirtqueueDesc time.Duration // building/parsing one descriptor chain

	// NinePOp is one 9p protocol round trip (request+reply through
	// the transport plus server-side dispatch) — the per-operation
	// tax that cripples qemu-9p IOPS in Figure 6b.
	NinePOp time.Duration

	// Interactive console path.
	TTYProcess time.Duration // line discipline + pty handling, per event
	NetRTT     time.Duration // loopback TCP round trip (ssh baseline)
	SSHCrypto  time.Duration // per-keystroke encrypt/decrypt + MAC
	SchedWake  time.Duration // wake a blocked host process (epoll etc.)

	// Simulated inter-VM network (internal/netsim). Per-link values
	// are defaults; a netsim.LinkParams can override them per port.
	NetSwitchHop time.Duration // L2 switch lookup + forward, per frame
	NetLinkLat   time.Duration // one-way link propagation latency
	NetLinkBW    float64       // link serialisation bandwidth, bytes/sec
	NetStackOp   time.Duration // guest network stack handling, per packet

	// Simulated remote object store (internal/storage remote backend).
	// Per-op round-trip latency plus payload serialisation bandwidth,
	// charged exactly like a netsim link.
	RemoteOpLat  time.Duration // GET/PUT/flush round-trip latency
	RemoteLinkBW float64       // object payload bandwidth, bytes/sec
}

// Default returns the calibrated cost model. Tests that need a
// different trade-off copy and mutate the struct.
func Default() *Costs {
	c := &Costs{
		VMExit:        1200 * time.Nanosecond,
		ContextSwitch: 1800 * time.Nanosecond,
		Syscall:       500 * time.Nanosecond,
		PtraceStop:    5 * time.Microsecond,
		IoregionfdMsg: 1500 * time.Nanosecond,
		IRQInject:     900 * time.Nanosecond,
		GuestWake:     300 * time.Microsecond,

		MemcpyBW:      11e9,
		ProcessVMBW:   2.4e9,
		ProcessVMBase: 600 * time.Nanosecond,

		NVMeReadLat:   8 * time.Microsecond,
		NVMeWriteLat:  11 * time.Microsecond,
		NVMeReadBW:    2.85e9,
		NVMeWriteBW:   2.0e9,
		NVMeFlush:     70 * time.Microsecond,
		NVMeSegment:   128 * 1024,
		NVMeQueueMax:  32,
		PageCacheHit:  350 * time.Nanosecond,
		InodeOp:       900 * time.Nanosecond,
		GuestSyscall:  300 * time.Nanosecond,
		BlockLayerOp:  700 * time.Nanosecond,
		VirtqueueDesc: 250 * time.Nanosecond,

		NinePOp: 15 * time.Microsecond,

		TTYProcess: 30 * time.Microsecond,
		NetRTT:     90 * time.Microsecond,
		SSHCrypto:  55 * time.Microsecond,
		SchedWake:  260 * time.Microsecond,

		NetSwitchHop: 2 * time.Microsecond,
		NetLinkLat:   25 * time.Microsecond,
		NetLinkBW:    1.25e9, // 10 GbE
		NetStackOp:   4 * time.Microsecond,

		RemoteOpLat:  500 * time.Microsecond, // same-DC object store RTT
		RemoteLinkBW: 2.5e8,                  // 2 Gb/s object link
	}
	if err := c.Validate(); err != nil {
		panic("vclock: invalid default cost model: " + err.Error())
	}
	return c
}

// Validate checks every per-event cost and bandwidth for a zero or
// negative value — a silent ratio-killer: a zero VMExit (say) makes
// every benchmark comparison in EXPERIMENTS.md meaningless while all
// tests still pass. Constructors of clock-charging subsystems
// (hostsim.NewHost, netsim.New) call this and refuse broken models.
func (c *Costs) Validate() error {
	v := reflect.ValueOf(*c)
	t := v.Type()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		name := t.Field(i).Name
		switch f.Kind() {
		case reflect.Int64: // time.Duration
			if f.Int() <= 0 {
				return fmt.Errorf("vclock: cost %s = %v must be positive", name, f.Interface())
			}
		case reflect.Float64: // bandwidth
			if f.Float() <= 0 {
				return fmt.Errorf("vclock: bandwidth %s = %v must be positive", name, f.Float())
			}
		case reflect.Int: // counts (segment size, queue depth)
			if f.Int() <= 0 {
				return fmt.Errorf("vclock: parameter %s = %d must be positive", name, f.Int())
			}
		}
	}
	return nil
}

// MustValidate panics on an invalid cost model.
func (c *Costs) MustValidate() {
	if err := c.Validate(); err != nil {
		panic(err.Error())
	}
}

// Copy returns the time to copy n bytes at bandwidth bw.
func Copy(n int, bw float64) time.Duration {
	if n <= 0 || bw <= 0 {
		return 0
	}
	return time.Duration(float64(n) / bw * float64(time.Second))
}

// DeviceTime returns the device-side time to transfer n bytes given a
// per-command latency, a bandwidth and a segment size: large transfers
// split into ceil(n/segment) commands whose latencies overlap at queue
// depth qd (at least 1), while bandwidth is a hard floor.
func DeviceTime(n int, lat time.Duration, bw float64, segment, qd int) time.Duration {
	if n <= 0 {
		n = 0
	}
	if segment <= 0 {
		segment = 128 * 1024
	}
	if qd < 1 {
		qd = 1
	}
	cmds := (n + segment - 1) / segment
	if cmds < 1 {
		cmds = 1
	}
	latTotal := time.Duration(cmds) * lat / time.Duration(qd)
	xfer := Copy(n, bw)
	if latTotal > xfer {
		return latTotal
	}
	return xfer
}
