package hostsim

import (
	"fmt"

	"vmsh/internal/arch"
	"vmsh/internal/faults"
	"vmsh/internal/obs"
)

// Tracer is a ptrace attachment from one process to another. It
// provides exactly the operations the VMSH sideloader uses: stopping
// threads, reading and writing their register files, injecting system
// calls through the target's context, and hooking the target's own
// syscalls (the wrap_syscall MMIO trap).
type Tracer struct {
	host   *Host
	self   *Process
	target *Process

	syscallTax bool
	detached   bool
}

// Attach establishes a ptrace relationship (PTRACE_SEIZE). It follows
// the kernel's rule: same uid or CAP_SYS_PTRACE.
func (p *Process) Attach(target *Process) (*Tracer, error) {
	if err := p.host.Faults.Check(faults.OpPtraceAttach); err != nil {
		p.host.Faults.Observe(faults.OpPtraceAttach, faults.NewDigest().U64(uint64(target.PID)), faults.NewDigest(), err)
		return nil, fmt.Errorf("ptrace attach pid %d: %w", target.PID, err)
	}
	if !mayAccess(p, target) {
		return nil, fmt.Errorf("ptrace attach pid %d: %w", target.PID, ErrPerm)
	}
	if target.tracer != nil {
		return nil, fmt.Errorf("ptrace attach pid %d: already traced", target.PID)
	}
	tr := &Tracer{host: p.host, self: p, target: target}
	target.tracer = tr
	p.host.Clock.Advance(p.host.Costs.Syscall)
	p.host.Faults.Observe(faults.OpPtraceAttach, faults.NewDigest().U64(uint64(target.PID)), faults.NewDigest().U64(1), nil)
	return tr, nil
}

// Target returns the traced process.
func (tr *Tracer) Target() *Process { return tr.target }

func (tr *Tracer) check() error {
	if tr.detached {
		return ErrNotTraced
	}
	return nil
}

// InterruptAll stops every thread of the target (PTRACE_INTERRUPT per
// thread). The hypervisor cannot run vCPUs while stopped.
func (tr *Tracer) InterruptAll() error {
	if err := tr.check(); err != nil {
		return err
	}
	if err := tr.host.Faults.Check(faults.OpPtraceInterrupt); err != nil {
		tr.host.Faults.Observe(faults.OpPtraceInterrupt, faults.NewDigest().U64(uint64(tr.target.PID)), faults.NewDigest(), err)
		return err
	}
	sp := tr.host.trPtrace.Span("ptrace", "interrupt_all")
	stops := int64(0)
	for _, t := range tr.target.Threads() {
		if !t.Stopped {
			t.Stopped = true
			tr.host.Clock.Advance(tr.host.Costs.PtraceStop)
			stops++
		}
	}
	tr.host.ctrPtraceStops.Add(stops)
	sp.End1("stops", stops)
	tr.host.Faults.Observe(faults.OpPtraceInterrupt, faults.NewDigest().U64(uint64(tr.target.PID)), faults.NewDigest().U64(uint64(stops)), nil)
	return nil
}

// ResumeAll lets every thread run again (PTRACE_CONT). Any blocked
// system calls (KVM_RUN in a hypervisor) continue.
func (tr *Tracer) ResumeAll() error {
	if err := tr.check(); err != nil {
		return err
	}
	if err := tr.host.Faults.Check(faults.OpPtraceResume); err != nil {
		tr.host.Faults.Observe(faults.OpPtraceResume, faults.NewDigest().U64(uint64(tr.target.PID)), faults.NewDigest(), err)
		return err
	}
	sp := tr.host.trPtrace.Span("ptrace", "resume_all")
	resumed := false
	for _, t := range tr.target.Threads() {
		if t.Stopped {
			t.Stopped = false
			resumed = true
			tr.host.Clock.Advance(tr.host.Costs.Syscall)
		}
	}
	// The crossing is observed before OnResume so that nested
	// crossings made by the continuing process (virtqueue passes of a
	// re-entered KVM_RUN) appear after their cause in the log.
	var res faults.Digest
	if resumed {
		res = faults.NewDigest().U64(1)
	} else {
		res = faults.NewDigest().U64(0)
	}
	tr.host.Faults.Observe(faults.OpPtraceResume, faults.NewDigest().U64(uint64(tr.target.PID)), res, nil)
	if resumed && tr.target.OnResume != nil {
		tr.target.OnResume()
	}
	sp.End()
	return nil
}

// Stopped reports whether every target thread is stopped.
func (tr *Tracer) Stopped() bool {
	for _, t := range tr.target.Threads() {
		if !t.Stopped {
			return false
		}
	}
	return true
}

// GetRegs returns the register file of a stopped thread.
func (tr *Tracer) GetRegs(t *Thread) (Regs, error) {
	if err := tr.check(); err != nil {
		return Regs{}, err
	}
	if !t.Stopped {
		return Regs{}, fmt.Errorf("tid %d: %w (not stopped)", t.TID, ErrNotTraced)
	}
	if err := tr.host.Faults.Check(faults.OpPtraceGetRegs); err != nil {
		tr.host.Faults.Observe(faults.OpPtraceGetRegs, faults.NewDigest().U64(uint64(t.TID)), faults.NewDigest(), err)
		return Regs{}, err
	}
	tr.host.Clock.Advance(tr.host.Costs.Syscall)
	tr.host.Faults.Observe(faults.OpPtraceGetRegs, faults.NewDigest().U64(uint64(t.TID)), regsDigest(&t.Regs), nil)
	return t.Regs, nil
}

// regsDigest summarises a register file for crossing records: the
// control-flow registers of both ABIs, enough to pin divergence
// without folding all 40+ fields.
func regsDigest(r *Regs) faults.Digest {
	return faults.NewDigest().
		U64(r.RIP).U64(r.RSP).U64(r.RAX).U64(r.RDI).
		U64(r.PC).U64(r.SP).U64(r.X[0]).U64(r.X[8])
}

// SetRegs replaces the register file of a stopped thread.
func (tr *Tracer) SetRegs(t *Thread, r Regs) error {
	if err := tr.check(); err != nil {
		return err
	}
	if !t.Stopped {
		return fmt.Errorf("tid %d: %w (not stopped)", t.TID, ErrNotTraced)
	}
	if err := tr.host.Faults.Check(faults.OpPtraceSetRegs); err != nil {
		tr.host.Faults.Observe(faults.OpPtraceSetRegs, faults.NewDigest().U64(uint64(t.TID)), faults.NewDigest(), err)
		return err
	}
	tr.host.Clock.Advance(tr.host.Costs.Syscall)
	t.Regs = r
	tr.host.Faults.Observe(faults.OpPtraceSetRegs, faults.NewDigest().U64(uint64(t.TID)).U64(uint64(regsDigest(&r))), faults.NewDigest(), nil)
	return nil
}

// InjectSyscall performs the register dance of running one system call
// inside the stopped target thread: save registers, load the target
// architecture's syscall ABI (x86-64: RAX=nr with RDI/RSI/RDX/R10/R8/
// R9 arguments; arm64: X8=nr with X0..X5 arguments), single-step
// through the syscall, collect the return register, restore registers.
//
// The call executes with the *target's* credentials and seccomp
// policy — which is precisely why Firecracker's filters break
// injection (§6.2) unless disabled.
func (tr *Tracer) InjectSyscall(t *Thread, nr uint64, args ...uint64) (uint64, error) {
	if err := tr.check(); err != nil {
		return 0, err
	}
	if !t.Stopped {
		return 0, fmt.Errorf("inject into running tid %d: %w", t.TID, ErrNotTraced)
	}
	// The concrete syscall name is appended so fault plans (and log
	// records) can target e.g. only injected ioctls
	// ("ptrace:inject:ioctl").
	injOp := faults.OpPtraceInject + faults.Op(":"+SyscallName(nr))
	injArgs := faults.NewDigest().U64(uint64(t.TID)).U64(nr)
	for _, a := range args {
		injArgs = injArgs.U64(a)
	}
	if err := tr.host.Faults.Check(injOp); err != nil {
		tr.host.Faults.Observe(injOp, injArgs, faults.NewDigest(), err)
		return 0, fmt.Errorf("injected %s: %w", SyscallName(nr), err)
	}
	saved := t.Regs
	r := saved
	var abi []*uint64
	if tr.target.Arch == arch.ARM64 {
		r.X[8] = nr
		abi = []*uint64{&r.X[0], &r.X[1], &r.X[2], &r.X[3], &r.X[4], &r.X[5]}
	} else {
		r.RAX = nr
		abi = []*uint64{&r.RDI, &r.RSI, &r.RDX, &r.R10, &r.R8, &r.R9}
	}
	if len(args) > len(abi) {
		return 0, fmt.Errorf("inject: %d args exceed syscall ABI", len(args))
	}
	for i, v := range args {
		*abi[i] = v
	}
	t.Regs = r

	var sp obs.Span
	if tr.host.Trace.Enabled() {
		sp = tr.host.trPtrace.Span("ptrace", "inject "+SyscallName(nr))
	}

	// Two ptrace stops (syscall entry + exit) plus the syscall itself.
	tr.host.Clock.Advance(2*tr.host.Costs.PtraceStop + tr.host.Costs.Syscall)
	tr.host.ctrPtraceStops.Add(2)
	tr.host.ctrSyscalls.Inc()

	var ret uint64
	err := func() error {
		if err := tr.target.checkSeccomp(nr); err != nil {
			return err
		}
		v, err := tr.host.doSyscall(tr.target, nr, args)
		ret = v
		return err
	}()

	t.Regs = saved
	sp.End()
	tr.host.Faults.Observe(injOp, injArgs, faults.NewDigest().U64(ret), err)
	if err != nil {
		return 0, fmt.Errorf("injected %s: %w", SyscallName(nr), err)
	}
	return ret, nil
}

// SetSyscallTax turns the wrap_syscall hook on or off: while on, every
// syscall the target performs pays two extra ptrace stops. The KVM
// dispatch path also consults this to charge stops on VM exits.
func (tr *Tracer) SetSyscallTax(on bool) { tr.syscallTax = on }

// Detach ends the trace, resuming all threads.
func (tr *Tracer) Detach() error {
	if err := tr.check(); err != nil {
		return err
	}
	_ = tr.ResumeAll()
	tr.detached = true
	tr.target.tracer = nil
	return nil
}
