package hostsim

import (
	"fmt"

	"vmsh/internal/faults"
)

// KProbe is an eBPF program attached to a kernel function. VMSH
// attaches one to kvm_vm_ioctl to learn the guest memslot layout
// (GPA -> HVA), because no KVM API exposes it (§5 "Sideloader").
type KProbe struct {
	Owner  *Process
	FnName string
	Fn     func(data any)
	closed bool
}

// AttachKProbe registers a probe on the named kernel function. It
// requires CAP_BPF; VMSH drops that capability right after the memslot
// probe (§4.5), which tests assert by re-attaching and failing.
func (h *Host) AttachKProbe(owner *Process, fnName string, fn func(data any)) (*KProbe, error) {
	if !owner.Creds.Has(CapBPF) {
		return nil, fmt.Errorf("bpf(PROG_LOAD) kprobe %s: %w", fnName, ErrPerm)
	}
	if err := h.Faults.Check(faults.OpKProbe); err != nil {
		h.Faults.Observe(faults.OpKProbe, faults.NewDigest().Str(fnName), faults.NewDigest(), err)
		return nil, fmt.Errorf("bpf(PROG_LOAD) kprobe %s: %w", fnName, err)
	}
	owner.chargeSyscall()
	h.Faults.Observe(faults.OpKProbe, faults.NewDigest().Str(fnName), faults.NewDigest().U64(1), nil)
	p := &KProbe{Owner: owner, FnName: fnName, Fn: fn}
	h.kprobes[fnName] = append(h.kprobes[fnName], p)
	return p, nil
}

// Close detaches the probe.
func (p *KProbe) Close() { p.closed = true }

// FireKProbe invokes every live probe on fnName. The kernel-side KVM
// simulation calls this from its vm ioctl path.
func (h *Host) FireKProbe(fnName string, data any) {
	for _, p := range h.kprobes[fnName] {
		if !p.closed {
			p.Fn(data)
		}
	}
}

// DropCapability removes a capability from the process, modelling the
// post-setup privilege drop.
func (p *Process) DropCapability(c Capability) {
	p.Creds.Caps &^= c.bit()
}
