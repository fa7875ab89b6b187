// Package hostsim simulates the slice of a Linux host that VMSH
// depends on: processes with threads, register files and address
// spaces; file descriptor tables; ptrace attach/interrupt/inject;
// process_vm_readv/writev; /proc fd enumeration; seccomp filters; eBPF
// kprobes; unix sockets with SCM_RIGHTS fd passing; eventfds; and an
// NVMe-class backing disk with host files.
//
// The VMSH core (internal/core) interacts with hypervisors and guests
// exclusively through this surface, the same way the real system uses
// the kernel: it never touches guest or hypervisor Go objects
// directly. That keeps the paper's trust and interface boundaries
// intact even though everything runs in one Go process.
//
// Ownership: a Host, its clock and everything it hands out (processes,
// address spaces, fds, sockets, the disk and its files) are
// single-owner and take no locks. One goroutine at a time drives a
// host. The parallel engine gives each shard's host to exactly one
// worker per window and its barrier orders the windows; every other
// caller drives a host from one goroutine. Code that shares a host
// between goroutines must hand it over through a synchronising
// operation (a channel, a WaitGroup), never use it concurrently.
package hostsim

import (
	"errors"
	"fmt"
	"sort"

	"vmsh/internal/arch"
	"vmsh/internal/faults"
	"vmsh/internal/obs"
	"vmsh/internal/vclock"
)

// Sentinel errors mirroring the errno values the real interfaces
// return.
var (
	ErrPerm       = errors.New("operation not permitted (EPERM)")
	ErrBadFD      = errors.New("bad file descriptor (EBADF)")
	ErrNoEnt      = errors.New("no such entity (ENOENT)")
	ErrInval      = errors.New("invalid argument (EINVAL)")
	ErrFault      = errors.New("bad address (EFAULT)")
	ErrNotTraced  = errors.New("target not traced (ESRCH)")
	ErrSeccomp    = errors.New("syscall blocked by seccomp (SIGSYS)")
	ErrNoSys      = errors.New("syscall not implemented (ENOSYS)")
	ErrConnRefuse = errors.New("connection refused (ECONNREFUSED)")
)

// Capability is a Linux capability the simulation distinguishes.
type Capability int

// The capabilities VMSH's privilege story involves.
const (
	CapSysPtrace Capability = iota
	CapBPF
	CapSysAdmin
)

// String implements fmt.Stringer.
func (c Capability) String() string {
	switch c {
	case CapSysPtrace:
		return "CAP_SYS_PTRACE"
	case CapBPF:
		return "CAP_BPF"
	case CapSysAdmin:
		return "CAP_SYS_ADMIN"
	default:
		return fmt.Sprintf("CAP(%d)", int(c))
	}
}

// CapSet is a set of capabilities, one bit per Capability.
type CapSet uint64

// Caps returns the set holding exactly caps.
func Caps(caps ...Capability) CapSet {
	var s CapSet
	for _, c := range caps {
		s |= c.bit()
	}
	return s
}

// bit is c's member of a CapSet.
func (c Capability) bit() CapSet { return 1 << uint(c) }

// Has reports whether c is in the set.
func (s CapSet) Has(c Capability) bool { return s&c.bit() != 0 }

// Creds are a process's credentials. They are a plain value: copying
// them copies the capability set.
type Creds struct {
	UID  int
	Caps CapSet
}

// Has reports whether the cap is held.
func (c Creds) Has(cap Capability) bool { return c.Caps.Has(cap) }

// Host is one simulated machine: process table, virtual clock, cost
// model, kprobe registry and the backing disk.
type Host struct {
	Clock *vclock.Clock
	Costs *vclock.Costs
	Disk  *Disk

	// Trace is the host-wide tracer. Always non-nil (NewHost creates
	// it disabled), so Track handles captured at construction stay
	// valid if tracing is enabled later. Metrics is the host-level
	// counter registry behind it.
	Trace   *obs.Tracer
	Metrics *obs.Registry

	// NoIoregionfd models a host kernel without the (at paper time,
	// under-review) ioregionfd patch: the KVM_SET_IOREGION ioctl is
	// unknown and VMSH must fall back to the ptrace trap.
	NoIoregionfd bool

	// Faults is the host's one crossing plane, created with the host
	// and never nil. Every host crossing the sideloader and the hosted
	// devices make is checked against its fault plan (armed with
	// SetFaultPlan) and reported to its tap (armed with Faults.SetTap,
	// the record/replay hook). With neither armed, the default, it is
	// fully inert.
	Faults *faults.Injector

	procs     map[int]*Process
	nextPID   int
	attachSeq int
	kprobes   map[string][]*KProbe
	listeners map[string]*UnixListener
	files     map[string]*HostFile

	trPtrace obs.Track // "host:ptrace" — stops, injected syscalls
	trProcVM obs.Track // "host:procvm" — cross-address-space copies

	// lastTarget is the process the last process_vm crossing resolved:
	// VMSH crosses into one hypervisor for a whole attach. Exit clears
	// it, and pids are never reused, so it never names an exited
	// process. copyCharge memoises that crossing's bandwidth charge.
	lastTarget *Process
	copyCharge copyMemo

	ctrSyscalls    *obs.Counter
	ctrPtraceStops *obs.Counter
	ctrProcVMCalls *obs.Counter
	ctrProcVMBytes *obs.Counter
}

// NewHost creates a host with the default cost model.
func NewHost() *Host {
	return NewShardHost(vclock.Default())
}

// NewShardHost creates a host that shares an existing (validated) cost
// model but owns everything mutable: its own virtual clock, process
// table, attach-sequence counter, disk, tracer and metrics registry.
// This is the per-shard Host view the parallel engine builds fleets
// from — per-VM state (procs, fds, memslots, attach seq) is confined
// to the shard by construction, while the only cross-shard sharing is
// the read-only *vclock.Costs. Callers must treat costs as immutable
// once any shard host exists; the engine merges shard-local metrics
// and traces deterministically after its run barrier instead of
// sharing registries live.
func NewShardHost(costs *vclock.Costs) *Host {
	clock := vclock.New()
	costs.MustValidate()
	h := &Host{
		Clock:     clock,
		Costs:     costs,
		Disk:      NewDisk(clock, costs),
		Trace:     obs.New(clock),
		Metrics:   obs.NewRegistry(),
		Faults:    faults.NewInjector(nil, clock, obs.Track{}),
		procs:     make(map[int]*Process),
		nextPID:   100,
		kprobes:   make(map[string][]*KProbe),
		listeners: make(map[string]*UnixListener),
		files:     make(map[string]*HostFile),
	}
	h.trPtrace = h.Trace.Track("host:ptrace")
	h.trProcVM = h.Trace.Track("host:procvm")
	h.ctrSyscalls = h.Metrics.Counter("host.syscalls")
	h.ctrPtraceStops = h.Metrics.Counter("host.ptrace.stops")
	h.ctrProcVMCalls = h.Metrics.Counter("host.procvm.calls")
	h.ctrProcVMBytes = h.Metrics.Counter("host.procvm.bytes")
	return h
}

// SetFaultPlan arms (or, with nil, disarms) a fault-injection plan in
// this host's crossing plane, reaching every device already wired to
// it. Injected faults charge the host clock and are recorded as
// "host:faults" trace events.
func (h *Host) SetFaultPlan(p *faults.Plan) {
	h.Faults.SetPlan(p, h.Trace.Track("host:faults"))
}

// NextAttachSeq hands out host-scoped attach sequence numbers (the
// fd-passing socket names embed one). Host-scoped — not process-global
// — so guest-visible bytes stay identical between two same-seed runs
// in one OS process, which record/replay verification depends on.
func (h *Host) NextAttachSeq() int {
	h.attachSeq++
	return h.attachSeq
}

// NewProcess registers a new process.
func (h *Host) NewProcess(name string, creds Creds) *Process {
	pid := h.nextPID
	h.nextPID++
	p := &Process{
		host:   h,
		PID:    pid,
		Name:   name,
		Creds:  creds,
		fds:    make(map[int]*FDEntry),
		nextFD: 3,
		AS:     NewAddrSpace(),
	}
	p.NewThread() // main thread
	h.procs[pid] = p
	return p
}

// Process looks up a pid.
func (h *Host) Process(pid int) (*Process, bool) {
	p, ok := h.procs[pid]
	return p, ok
}

// Pids returns all live pids in ascending order.
func (h *Host) Pids() []int {
	out := make([]int, 0, len(h.procs))
	for pid, p := range h.procs {
		if !p.exited {
			out = append(out, pid)
		}
	}
	sort.Ints(out)
	return out
}

// Exit removes a process from the table.
func (h *Host) Exit(p *Process) {
	p.exited = true
	delete(h.procs, p.PID)
	if h.lastTarget == p {
		h.lastTarget = nil
	}
}

// Process is one simulated process.
type Process struct {
	host  *Host
	PID   int
	Name  string
	Creds Creds
	// Arch is the process's CPU architecture (X86_64 by default);
	// it selects the syscall ABI for injection and the kvm register
	// struct layouts.
	Arch arch.Arch

	threads []*Thread
	nextTID int
	fds     map[int]*FDEntry
	nextFD  int
	AS      *AddrSpace
	Seccomp *SeccompPolicy
	tracer  *Tracer
	exited  bool

	// OnResume models the process's blocked system calls continuing
	// after every thread is resumed from a ptrace stop — for a
	// hypervisor, the in-flight KVM_RUN re-entering the guest.
	OnResume func()
}

// Host returns the owning host.
func (p *Process) Host() *Host { return p.host }

// Thread is one schedulable context with an x86-64 register file.
type Thread struct {
	TID     int
	Regs    Regs
	Stopped bool
	Comm    string
}

// Regs is the simulated general register file. The x86-64 fields
// follow struct kvm_regs / user_regs_struct; the arm64 fields follow
// struct user_pt_regs. A thread uses the set matching its process's
// architecture — the other set stays zero.
type Regs struct {
	// x86_64
	RAX, RBX, RCX, RDX uint64
	RSI, RDI, RBP, RSP uint64
	R8, R9, R10, R11   uint64
	R12, R13, R14, R15 uint64
	RIP, RFLAGS        uint64

	// arm64
	X      [31]uint64
	SP     uint64
	PC     uint64
	PSTATE uint64
}

// InstrPtr returns the architecture's instruction pointer.
func (r *Regs) InstrPtr(a arch.Arch) uint64 {
	if a == arch.ARM64 {
		return r.PC
	}
	return r.RIP
}

// NewThread adds a thread to the process.
func (p *Process) NewThread() *Thread {
	t := &Thread{TID: p.PID*10 + p.nextTID, Comm: fmt.Sprintf("%s/%d", p.Name, p.nextTID)}
	p.nextTID++
	p.threads = append(p.threads, t)
	return t
}

// Threads returns a snapshot of the thread list.
func (p *Process) Threads() []*Thread {
	out := make([]*Thread, len(p.threads))
	copy(out, p.threads)
	return out
}

// MainThread returns the first thread.
func (p *Process) MainThread() *Thread { return p.threads[0] }

// SeccompPolicy is a per-process allowlist of syscall numbers. A nil
// policy allows everything; a non-nil policy kills the process on a
// violation, like Firecracker's filters do.
type SeccompPolicy struct {
	Allowed map[uint64]bool
	// Violated is latched when a blocked syscall was attempted.
	Violated bool
}

// Allows reports whether nr passes the filter.
func (s *SeccompPolicy) Allows(nr uint64) bool {
	if s == nil {
		return true
	}
	return s.Allowed[nr]
}

// checkSeccomp enforces the policy for a syscall about to execute in
// this process (whether self-issued or injected — the kernel cannot
// tell the difference, which is exactly the Firecracker problem from
// §6.2).
func (p *Process) checkSeccomp(nr uint64) error {
	if p.Seccomp.Allows(nr) {
		return nil
	}
	p.Seccomp.Violated = true
	return ErrSeccomp
}

// chargeSyscall advances the clock for one syscall, including the
// ptrace tax if a tracer installed syscall hooks (the wrap_syscall
// trap stops the thread at syscall entry and exit).
func (p *Process) chargeSyscall() {
	c := p.host.Costs
	p.host.Clock.Advance(c.Syscall)
	p.host.ctrSyscalls.Inc()
	if tr := p.tracer; tr != nil && tr.syscallTax {
		p.host.Clock.Advance(2 * c.PtraceStop)
		p.host.ctrPtraceStops.Add(2)
	}
}

// Traced reports whether a tracer is attached.
func (p *Process) Traced() bool { return p.tracer != nil }

// SyscallTaxed reports whether the wrap_syscall tax currently applies
// to this process's syscalls (used by the KVM dispatch path).
func (p *Process) SyscallTaxed() bool {
	return p.tracer != nil && p.tracer.syscallTax
}
