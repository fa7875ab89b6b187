package faults

// This file is the shared crossing taxonomy: the one authoritative
// enumeration of host-crossing classes, consumed by the E8 fault sweep
// (which derives its single-fault points from it), by the record/replay
// subsystem (which validates log records against it), and by anything
// else that needs to reason about "every way VMSH touches the host".
// It also defines the Tap interface — a passive observer the Injector
// delivers every crossing to, under the same stage context and pause
// semantics as its fault plan — which internal/replay's Recorder and
// Verifier implement.

import (
	"errors"
	"strings"
)

// Tap-only crossing classes: observable by a Tap but never consulted
// through Injector.Check, so arming a fault plan cannot target them and
// the E8 sweep's crossing-point enumeration is unaffected.
const (
	// OpVQCons is the console device's virtqueue service pass.
	OpVQCons Op = "vq:cons"
	// OpKVMMMIO is one MMIO exit dispatched by the (simulated) KVM
	// module — device register traffic as the hypervisor kernel side
	// sees it.
	OpKVMMMIO Op = "kvm:mmio"
)

// Dropped marks a crossing whose payload was discarded by design (a
// lossy link, a deliberate frame drop) rather than failed with an
// errno. It never surfaces as a Go error from the data path; it exists
// so taps can classify drop crossings distinctly from faults.
var Dropped = errors.New("payload dropped")

// ClassInfo describes one crossing class for sweep drivers and log
// validators.
type ClassInfo struct {
	// Op is the class name; with Prefix set it covers every crossing
	// that appends further ':'-separated sub-ops ("ptrace:inject"
	// covers "ptrace:inject:ioctl").
	Op Op
	// Prefix marks an open class: concrete crossings append sub-ops.
	Prefix bool
	// PostResume marks classes whose crossings (also) occur after the
	// guest has been resumed — device-path and steady-state traffic.
	// Faults there do not fail the attach transaction; they degrade
	// service. Sweep invariants must therefore be relaxed: guest RAM
	// keeps changing while the guest runs, so only structural state
	// (mappings, fds) is comparable.
	PostResume bool
	// DevicePath marks the hosted-device data path (virtqueue service
	// and link delivery), where faults degrade gracefully in-protocol
	// (IOErr status bytes, dropped frames) and are invisible to the
	// attach transaction's retry machinery.
	DevicePath bool
	// TapOnly marks classes never consulted through Injector.Check:
	// they are observable in recordings but cannot be fault targets.
	TapOnly bool
	// Doc is a one-line description.
	Doc string
}

// crossingClasses is the authoritative class list, in taxonomy order:
// attach-path ptrace, address-space copies, discovery, then the device
// data path.
var crossingClasses = []ClassInfo{
	{Op: OpPtraceAttach, Doc: "PTRACE_SEIZE of the hypervisor"},
	{Op: OpPtraceInterrupt, Doc: "PTRACE_INTERRUPT of every hypervisor thread"},
	{Op: OpPtraceResume, Doc: "PTRACE_CONT of every hypervisor thread"},
	{Op: OpPtraceGetRegs, Doc: "PTRACE_GETREGS of a stopped thread"},
	{Op: OpPtraceSetRegs, Doc: "PTRACE_SETREGS of a stopped thread"},
	{Op: OpPtraceInject, Prefix: true, Doc: "syscall injected through the stopped target (sub-op = syscall name)"},
	{Op: OpProcVMRead, Doc: "process_vm_readv from the hypervisor address space"},
	{Op: OpProcVMWrite, Doc: "process_vm_writev into the hypervisor address space"},
	{Op: OpProcFDInfo, Doc: "/proc/<pid>/fd enumeration (KVM fd discovery)"},
	{Op: OpKProbe, Doc: "eBPF kprobe attach on kvm_vm_ioctl (memslot probe)"},
	{Op: OpVQBlk, PostResume: true, DevicePath: true, Doc: "virtio-blk virtqueue service pass"},
	{Op: OpVQCons, PostResume: true, DevicePath: true, TapOnly: true, Doc: "virtio-console virtqueue service pass"},
	{Op: OpVQNet, PostResume: true, DevicePath: true, Doc: "virtio-net tx virtqueue service pass"},
	{Op: OpNetLink, PostResume: true, DevicePath: true, Doc: "netsim link delivery of one frame"},
	{Op: OpKVMMMIO, PostResume: true, TapOnly: true, Doc: "KVM MMIO exit dispatch (guest register access)"},
	{Op: OpRemoteGet, PostResume: true, DevicePath: true, Doc: "remote storage backend GET of one object chunk"},
	{Op: OpRemotePut, PostResume: true, DevicePath: true, Doc: "remote storage backend PUT of one object chunk"},
	{Op: OpRemoteFlush, PostResume: true, DevicePath: true, Doc: "remote storage backend flush barrier"},
}

// CrossingClasses returns the authoritative crossing-class taxonomy in
// stable order. Callers own the returned slice.
func CrossingClasses() []ClassInfo {
	out := make([]ClassInfo, len(crossingClasses))
	copy(out, crossingClasses)
	return out
}

// ClassOf resolves a concrete crossing name to its class: an exact
// match, or the longest Prefix class covering it at a ':' boundary.
func ClassOf(op Op) (ClassInfo, bool) {
	best := -1
	for i, c := range crossingClasses {
		if string(c.Op) == string(op) {
			return c, true
		}
		if c.Prefix && opMatches(string(c.Op), string(op)) &&
			(best < 0 || len(c.Op) > len(crossingClasses[best].Op)) {
			best = i
		}
	}
	if best >= 0 {
		return crossingClasses[best], true
	}
	return ClassInfo{}, false
}

// PostResume reports whether the crossing's class (also) occurs after
// guest resume — see ClassInfo.PostResume. Unknown ops report false.
func (o Op) PostResume() bool {
	c, ok := ClassOf(o)
	return ok && c.PostResume
}

// DevicePath reports whether the crossing's class is hosted-device
// data path — see ClassInfo.DevicePath. Unknown ops report false.
func (o Op) DevicePath() bool {
	c, ok := ClassOf(o)
	return ok && c.DevicePath
}

// Root returns the first ':'-segment of the op name ("procvm:readv" →
// "procvm"), the coarse grouping replay traces use for track names.
func (o Op) Root() string {
	s := string(o)
	if i := strings.IndexByte(s, ':'); i >= 0 {
		return s[:i]
	}
	return s
}

// Digest is an incremental FNV-64a accumulator used to summarise
// crossing arguments and results without retaining payload bytes. The
// zero value is NOT ready to use; start from NewDigest.
type Digest uint64

const (
	digestOffset Digest = 14695981039346656037
	digestPrime  Digest = 1099511628211
)

// NewDigest returns the FNV-64a offset basis.
func NewDigest() Digest { return digestOffset }

// Bytes folds a byte slice into the digest.
func (d Digest) Bytes(p []byte) Digest {
	for _, b := range p {
		d = (d ^ Digest(b)) * digestPrime
	}
	return d
}

// Zeros folds n zero bytes into the digest. A zero byte leaves the XOR
// step unchanged, so n of them multiply the state by prime^n mod 2^64,
// computed by squaring in O(log n) steps rather than n.
func (d Digest) Zeros(n uint64) Digest {
	for p := digestPrime; n > 0; n >>= 1 {
		if n&1 != 0 {
			d *= p
		}
		p *= p
	}
	return d
}

// U64 folds a 64-bit value (little-endian) into the digest.
func (d Digest) U64(v uint64) Digest {
	for i := 0; i < 8; i++ {
		d = (d ^ Digest(byte(v))) * digestPrime
		v >>= 8
	}
	return d
}

// Str folds a string into the digest.
func (d Digest) Str(s string) Digest {
	for i := 0; i < len(s); i++ {
		d = (d ^ Digest(s[i])) * digestPrime
	}
	return d
}

// ErrClass maps a crossing error to its stable log classification:
// "" for success, the lower-case sentinel name for injected faults
// ("efault", "eintr", ...), "drop" for discarded payloads, and "err"
// for any organic simulation error. Classification — not the error
// text — is recorded, so logs stay byte-stable across message edits.
func ErrClass(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, Dropped):
		return "drop"
	case errors.Is(err, EFAULT):
		return "efault"
	case errors.Is(err, EIO):
		return "eio"
	case errors.Is(err, EPERM):
		return "eperm"
	case errors.Is(err, ENOSYS):
		return "enosys"
	case errors.Is(err, EINTR):
		return "eintr"
	case errors.Is(err, EAGAIN):
		return "eagain"
	default:
		return "err"
	}
}

// Crossing is one observed host crossing as delivered to a Tap:
// digests and classifications only, never payload bytes, so records
// are fixed-size and logs stay compact.
type Crossing struct {
	Op     Op     // concrete crossing name ("ptrace:inject:ioctl")
	Stage  string // injector stage context at crossing time
	Args   uint64 // FNV-64a digest of the crossing's inputs
	Result uint64 // FNV-64a digest of the crossing's outputs
	Err    string // ErrClass of the outcome ("" = success)
}

// Tap observes crossings. Implementations must not advance the clock,
// consume randomness or touch guest state: a tap is a pure observer,
// and an armed tap must leave virtual time bit-identical to an
// unarmed run (the E8 zero-perturbation invariant extends to taps).
type Tap interface {
	Crossing(Crossing)
}

// Tee fans one crossing stream out to several taps (e.g. recording a
// session while also verifying it against a prior log).
func Tee(taps ...Tap) Tap {
	out := make(teeTap, 0, len(taps))
	for _, t := range taps {
		if t != nil {
			out = append(out, t)
		}
	}
	return out
}

type teeTap []Tap

func (tt teeTap) Crossing(c Crossing) {
	for _, t := range tt {
		t.Crossing(c)
	}
}
