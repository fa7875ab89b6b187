// Package vmsh is a Go reproduction of VMSH (EuroSys'22):
// hypervisor-agnostic guest overlays for KVM virtual machines.
//
// VMSH attaches services to a running VM without any cooperation from
// the hypervisor or a guest agent: it side-loads a small library into
// the guest kernel through ptrace-driven syscall injection and guest
// memory introspection, serves VirtIO block and console devices from
// outside the hypervisor process, and spawns a container-based overlay
// inside the guest whose root is a user-supplied filesystem image.
//
// Because the real system's substrate (KVM, ptrace, live guests)
// cannot run here, the package operates on a byte-faithful simulation
// of that stack — see DESIGN.md. The public API mirrors what a user of
// the real tool would do:
//
//	lab := vmsh.NewLab()
//	vm, _ := lab.LaunchVM(vmsh.WithHypervisor(vmsh.QEMU), vmsh.WithMemMiB(64))
//	img, _ := lab.BuildImage("tools.img", vmsh.ToolImage())
//	sess, _ := lab.Attach(vm, vmsh.WithImage(img))
//	out, _ := sess.Exec("cat /var/lib/vmsh/etc/hostname")
//
// The API is options-first throughout: every constructor-like call
// (LaunchVM, Attach, Snapshot, Restore, Migrate) takes functional
// options, applied in order with later options overriding earlier
// ones. VM lifecycle operations — whole-VM snapshot/restore and live
// migration between labs — live on Lab too (Lab.Snapshot, Lab.Restore,
// Lab.Migrate; see lifecycle.go).
package vmsh

import (
	"fmt"
	"io"
	"os"

	"vmsh/internal/arch"
	"vmsh/internal/core"
	"vmsh/internal/faults"
	"vmsh/internal/fsimage"
	"vmsh/internal/guestos"
	"vmsh/internal/hostsim"
	"vmsh/internal/hypervisor"
	"vmsh/internal/netsim"
	"vmsh/internal/obs"
	"vmsh/internal/replay"
	"vmsh/internal/vclock"
)

// Hypervisor personalities (Table 1 of the paper).
const (
	QEMU            = hypervisor.QEMU
	Kvmtool         = hypervisor.Kvmtool
	Firecracker     = hypervisor.Firecracker
	Crosvm          = hypervisor.Crosvm
	CloudHypervisor = hypervisor.CloudHypervisor
)

// MMIO trap mechanisms (§5). TrapAuto probes for the ioregionfd host
// kernel patch and falls back to the ptrace trap without it.
const (
	TrapIoregionfd  = core.TrapIoregionfd
	TrapWrapSyscall = core.TrapWrapSyscall
	TrapAuto        = core.TrapAuto
)

// Re-exported types so callers need only this package.
type (
	// Session is a live attachment: console, exec, detach.
	Session = core.Session
	// TrapMode selects the MMIO interception mechanism.
	TrapMode = core.TrapMode
	// Manifest declares filesystem image contents.
	Manifest = fsimage.Manifest
	// ManifestEntry is one file in a Manifest.
	ManifestEntry = fsimage.Entry
	// VM is a running virtual machine in the lab.
	VM = hypervisor.Instance
	// Image is a filesystem image on the lab host.
	Image = hostsim.HostFile
	// ContainerSpec describes a containerised guest workload (for
	// container-context attach via WithContainerPID).
	ContainerSpec = guestos.ContainerSpec
	// Switch is a deterministic inter-VM L2 switch; sessions attached
	// with WithNet get a vmsh-net device cabled into it.
	Switch = netsim.Switch
	// LinkParams overrides one port's bandwidth/latency/loss model.
	LinkParams = netsim.LinkParams
	// Tracer is the lab-wide virtual-time span/event tracer. Disabled
	// (and free) until WithTrace or Tracer.Enable turns it on; export
	// with Tracer.WriteChrome for Perfetto.
	Tracer = obs.Tracer
	// Registry holds named counters and virtual-time histograms.
	Registry = obs.Registry
	// Error is the typed attach failure: which stage failed, against
	// which hypervisor pid, wrapping the underlying cause. Use
	// errors.As to recover it and errors.Is against the Err* sentinels
	// below to classify the cause.
	Error = core.AttachError
	// FaultPlan is a seeded, deterministic fault-injection plan armed
	// via WithFaultPlan; build one with NewFaultPlan or parse CLI specs
	// with ParseFaultRules.
	FaultPlan = faults.Plan
	// FaultRule is one entry of a FaultPlan: which host crossing to
	// fault, when, and how (transient vs persistent, latency).
	FaultRule = faults.Rule
	// RetryPolicy bounds per-stage retries of transient faults during
	// attach (WithRetry). The zero value disables retry.
	RetryPolicy = core.RetryPolicy
	// RecordLog is a decoded crossing recording: every host crossing a
	// session made, in order, with virtual timestamps, plus the end
	// state (final vtime, RAM hashes, metrics). Produce one with
	// WithRecord, load one with ReadRecording.
	RecordLog = replay.Log
	// Divergence is the typed record/replay mismatch report: the first
	// crossing at which a replayed or verified run departed from its
	// log, with expected/actual op, digests and vtime delta. Recover it
	// from replay errors with errors.As.
	Divergence = replay.Divergence
	// ReplayResult is the outcome of a log-driven Replay: final virtual
	// time, recorded RAM hashes and metrics, per-op crossing counts and
	// (with replay.WithTrace) the replay tracer.
	ReplayResult = replay.RunResult
	// Verifier re-checks a live run against a RecordLog crossing by
	// crossing (NewVerifier + WithVerifier); after Detach, Result
	// reports the first divergence or nil.
	Verifier = replay.Verifier
	// ReplayRunOption configures a log-driven Replay (ReplayWithTrace).
	ReplayRunOption = replay.RunOption
)

// Attach failure sentinels, matchable through an *Error chain with
// errors.Is regardless of the stage that surfaced them.
var (
	// ErrNoProcess: the pid does not exist on the lab host.
	ErrNoProcess = core.ErrNoProcess
	// ErrNotHypervisor: the process has no /dev/kvm fds.
	ErrNotHypervisor = core.ErrNotHypervisor
	// ErrNoMemslots: the eBPF probe observed no KVM memslots.
	ErrNoMemslots = core.ErrNoMemslots
	// ErrKernelNotFound: no kernel image in the KASLR search range.
	ErrKernelNotFound = core.ErrKernelNotFound
	// ErrKsymNotFound: ksymtab symbol resolution failed.
	ErrKsymNotFound = core.ErrKsymNotFound
	// ErrLibraryFailed: the side-loaded guest library aborted.
	ErrLibraryFailed = core.ErrLibraryFailed
	// ErrNoImage: Attach needs a filesystem image (WithImage).
	ErrNoImage = core.ErrNoImage
)

// DefaultRetry is a sensible transient-retry policy for attach: three
// attempts with exponential virtual-time backoff.
var DefaultRetry = core.DefaultRetry

// NewFaultPlan builds a deterministic fault plan from rules; the seed
// drives every probabilistic rule.
func NewFaultPlan(seed uint64, rules ...FaultRule) *FaultPlan {
	return faults.NewPlan(seed, rules...)
}

// ParseFaultRules parses a ';'-separated list of CLI fault specs, e.g.
// "ptrace:nth=3" or "procvm:prob=0.01,transient". See faults.ParseRule
// for the grammar.
func ParseFaultRules(specs string) ([]FaultRule, error) {
	return faults.ParseRules(specs)
}

// IsFault reports whether err is (or wraps) a fault injected by an
// armed FaultPlan, as opposed to an organic attach failure.
func IsFault(err error) bool { return faults.IsFault(err) }

// IsTransientFault reports whether err is (or wraps) a transient
// injected fault (EINTR/EAGAIN class) — the kind WithRetry recovers.
func IsTransientFault(err error) bool { return faults.IsTransient(err) }

// ToolImage returns the standard debugging/administration image
// manifest served through vmsh-blk.
func ToolImage() Manifest { return fsimage.ToolImage() }

// GuestRoot returns a minimal (de-bloated) guest root manifest.
func GuestRoot(hostname string) Manifest { return fsimage.GuestRoot(hostname) }

// Lab is a simulated host machine: the place VMs run and VMSH attaches.
type Lab struct {
	Host *hostsim.Host

	// workers is the pool size fleets spawned from this lab use
	// (SetWorkers / NewFleet, fleet.go). Zero means 1.
	workers int
}

// NewLab creates a fresh simulated host with the calibrated cost model.
func NewLab() *Lab {
	return &Lab{Host: hostsim.NewHost()}
}

// Clock returns elapsed virtual time (for measurements).
func (l *Lab) Clock() *vclock.Clock { return l.Host.Clock }

// Costs exposes the tunable cost model.
func (l *Lab) Costs() *vclock.Costs { return l.Host.Costs }

// Trace returns the lab-wide tracer. It exists from lab creation but
// records nothing until enabled (WithTrace does this);
// export a recorded run with Trace().WriteChrome.
func (l *Lab) Trace() *Tracer { return l.Host.Trace }

// Metrics returns the host-level metrics registry (syscall, ptrace,
// process_vm and KVM counters). Per-session device metrics live on
// Session.Metrics.
func (l *Lab) Metrics() *Registry { return l.Host.Metrics }

// Profile folds the lab tracer's span log into a vtime profile
// (per-component attribution, folded stacks, top-N). Requires a traced
// run (WithTrace).
func (l *Lab) Profile() *Profile {
	p := obs.NewProfile()
	p.AddTracer("", l.Host.Trace)
	return p
}

// NewSwitch creates an inter-VM packet switch charged to this lab's
// clock and cost model. Pass it via WithNet to give each
// attached guest a vmsh-net interface on a shared segment. The switch
// is wired into the lab tracer: each port gets a "link:<name>" track.
func (l *Lab) NewSwitch() *Switch {
	sw := netsim.New(l.Host.Clock, l.Host.Costs)
	sw.Observe(l.Host.Trace, l.Host.Metrics)
	return sw
}

// Machine architectures.
const (
	ArchX86_64 = arch.X86_64
	ArchARM64  = arch.ARM64
)

// DiskSpec describes one extra hypervisor-owned disk (WithExtraDisk).
type DiskSpec = hypervisor.DiskSpec

// VMOption configures one aspect of LaunchVM. Options apply in order,
// so a later option overrides an earlier one for the same setting.
type VMOption func(*hypervisor.Config)

// WithHypervisor selects the hypervisor personality (QEMU default).
func WithHypervisor(kind hypervisor.Kind) VMOption {
	return func(c *hypervisor.Config) { c.Kind = kind }
}

// WithArch selects the machine architecture (ArchX86_64 default; the
// arm64 flavour exercises the paper's planned port).
func WithArch(a arch.Arch) VMOption { return func(c *hypervisor.Config) { c.Arch = a } }

// WithVMName names the VM (defaults to the personality name).
func WithVMName(name string) VMOption { return func(c *hypervisor.Config) { c.Name = name } }

// WithKernelVersion selects the guest kernel ("5.10" default; Table 1
// lists the tested LTS versions).
func WithKernelVersion(v string) VMOption { return func(c *hypervisor.Config) { c.KernelVersion = v } }

// WithRootFS sets the guest root manifest (default GuestRoot("vm")).
func WithRootFS(m Manifest) VMOption { return func(c *hypervisor.Config) { c.RootFS = m } }

// WithMemMiB sets the guest RAM size in MiB (256 default).
func WithMemMiB(mib uint64) VMOption { return func(c *hypervisor.Config) { c.RAMSize = mib << 20 } }

// WithCPUs sets the vCPU count (1 default).
func WithCPUs(n int) VMOption { return func(c *hypervisor.Config) { c.VCPUs = n } }

// WithVMSeed seeds the guest's KASLR layout; the same seed (with the
// same config) boots byte-identically — the property snapshot/restore
// and migration build on.
func WithVMSeed(seed int64) VMOption { return func(c *hypervisor.Config) { c.Seed = seed } }

// WithoutSeccomp turns off Firecracker's seccomp filters (required for
// attach, §6.2).
func WithoutSeccomp() VMOption { return func(c *hypervisor.Config) { c.DisableSeccomp = true } }

// WithSeccompProfile selects Firecracker's filter set; the
// "vmsh-compatible" profile permits attach with filters still armed.
func WithSeccompProfile(name string) VMOption {
	return func(c *hypervisor.Config) { c.SeccompProfile = name }
}

// WithExtraDisk attaches an additional hypervisor-owned disk; repeat
// for more than one.
func WithExtraDisk(spec DiskSpec) VMOption {
	return func(c *hypervisor.Config) { c.ExtraDisks = append(c.ExtraDisks, spec) }
}

// WithNinePShare mounts a 9p host share at /mnt/9p (QEMU only).
func WithNinePShare() VMOption { return func(c *hypervisor.Config) { c.NinePShare = true } }

// LaunchVM boots a VM on the lab host.
func (l *Lab) LaunchVM(opts ...VMOption) (*VM, error) {
	var cfg hypervisor.Config
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.RootFS == nil {
		cfg.RootFS = GuestRoot("vm")
	}
	return hypervisor.Launch(l.Host, cfg)
}

// BuildImage materialises a manifest as a filesystem image file on the
// lab host, ready to attach.
func (l *Lab) BuildImage(name string, m Manifest) (*Image, error) {
	size := m.Size() + 64<<20
	img := l.Host.CreateFile(name, size, false)
	if err := fsimage.Build(hostsim.NewHostFileDevice(img), m); err != nil {
		return nil, fmt.Errorf("vmsh: building image %s: %w", name, err)
	}
	return img, nil
}

// attachOptions is the options bag behind the Option setters: the
// core attach options plus where and under which label to record.
type attachOptions struct {
	core.Options
	RecordPath  string
	RecordLabel string
	RecordSeed  uint64
}

// Option configures one aspect of an attach. Options apply in order,
// so a later option overrides an earlier one for the same setting.
type Option func(*attachOptions)

// WithImage serves this filesystem image through vmsh-blk; it becomes
// the overlay root. Required unless the attach is Minimal (internal).
func WithImage(img *Image) Option { return func(o *attachOptions) { o.Image = img } }

// WithTrap selects the MMIO interception mechanism (TrapAuto probes
// for ioregionfd and falls back to the ptrace trap).
func WithTrap(mode TrapMode) Option { return func(o *attachOptions) { o.Trap = mode } }

// WithContainerPID adopts a guest container's namespaces/cgroup
// context (§4.4) instead of the init context.
func WithContainerPID(pid int) Option { return func(o *attachOptions) { o.ContainerPID = pid } }

// WithoutShell suppresses the interactive shell on the console; the
// devices still serve (scanner/monitoring workloads drive them
// directly).
func WithoutShell() Option { return func(o *attachOptions) { o.NoShell = true } }

// WithPCITransport registers devices with MSI-routed irqfds (the
// virtio-over-PCI interrupt path) — required for Cloud Hypervisor.
func WithPCITransport() Option { return func(o *attachOptions) { o.PCITransport = true } }

// WithStorageBackend selects the block store serving the vmsh-blk
// image: "file" (default; the image file accessed through the host
// page-cache mmap path), "memory" (a RAM copy — fastest, volatile),
// "cow" (private copy-on-write pages over the shared read-only image),
// "cas" (content-addressed with page dedup), or "remote" (a simulated
// object store whose per-op latency and bandwidth are charged to the
// virtual clock, with faults injectable under the remote:* crossing
// classes — the "rescue a VM whose disk lives elsewhere" scenario).
// Unknown names fail the attach with fserr.ErrNotSupported in the
// chain.
func WithStorageBackend(name string) Option {
	return func(o *attachOptions) { o.Storage = name }
}

// WithNet cables the session's vmsh-net device into sw (Lab.NewSwitch)
// — the multi-VM overlay network.
func WithNet(sw *Switch) Option { return func(o *attachOptions) { o.Net = sw } }

// WithNetLink overrides this VM's switch-port link model (bandwidth,
// latency, deterministic loss). Only meaningful together with WithNet.
func WithNetLink(link LinkParams) Option { return func(o *attachOptions) { o.NetLink = link } }

// WithTrace enables the lab-wide virtual-time tracer before the attach
// begins. Tracing never advances the clock, so results stay
// bit-identical; export with Lab.Trace().WriteChrome.
func WithTrace() Option { return func(o *attachOptions) { o.Trace = true } }

// WithFaultPlan arms the deterministic fault-injection plane with p
// for the attach and the session that follows it. A faulted attach
// stage rolls the guest back byte-identically; device-plane faults
// degrade service without wedging it.
func WithFaultPlan(p *FaultPlan) Option { return func(o *attachOptions) { o.Fault = p } }

// WithRetry lets attach stages retry transient injected faults
// (EINTR/EAGAIN-class) up to policy.Attempts times, charging
// exponential backoff to the virtual clock between tries.
func WithRetry(policy RetryPolicy) Option { return func(o *attachOptions) { o.Retry = policy } }

// WithRecord records every host crossing of the attach and session —
// ptrace stops, injected syscalls, process_vm transfers, virtqueue
// service passes, link deliveries — to a deterministic, checksummed
// log at path. Detach seals the log with the session's end state
// (final virtual time, per-memslot RAM hashes, metrics), so the run
// can later be replayed bit-identically with Replay, or a re-run
// verified against it with WithVerifier. Recording never advances the
// clock: a recorded run's virtual time equals the unrecorded run's.
func WithRecord(path string) Option {
	return func(o *attachOptions) { o.RecordPath = path }
}

// WithRecordLabel overrides the label stamped into a WithRecord log
// header (default: the target process name) and records seed so the
// replayed report can name the run that produced it.
func WithRecordLabel(label string, seed uint64) Option {
	return func(o *attachOptions) { o.RecordLabel, o.RecordSeed = label, seed }
}

// WithVerifier re-checks this attach live against a prior recording:
// every crossing the run makes is compared, in order, to the log's
// next record (op, stage, argument/result digests, error class,
// virtual timestamp). Build v with NewVerifier; after Detach,
// v.Result() reports the first divergence, or nil for a faithful
// re-run.
func WithVerifier(v *Verifier) Option {
	return func(o *attachOptions) { o.Verify = v }
}

func buildOptions(opts []Option) attachOptions {
	var o attachOptions
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// Attach side-loads VMSH into the VM and returns a session. Each call
// runs a fresh vmsh process, mirroring the real per-invocation CLI —
// the post-setup privilege drop (§4.5) makes a vmsh process
// single-attach by design.
func (l *Lab) Attach(vm *VM, opts ...Option) (*Session, error) {
	return l.attach(vm.Proc.PID, vm.Proc.Name, buildOptions(opts))
}

// AttachPID attaches by process id, the way the real CLI is pointed at
// a hypervisor process.
func (l *Lab) AttachPID(pid int, opts ...Option) (*Session, error) {
	return l.attach(pid, fmt.Sprintf("pid-%d", pid), buildOptions(opts))
}

func (l *Lab) attach(pid int, label string, o attachOptions) (*Session, error) {
	co := o.Options
	if o.RecordPath != "" {
		if o.RecordLabel != "" {
			label = o.RecordLabel
		}
		co.Record = replay.NewRecorder(l.Host.Clock, label, o.RecordSeed)
		path := o.RecordPath
		co.RecordSink = func() (io.WriteCloser, error) { return os.Create(path) }
	}
	return core.New(l.Host).Attach(pid, co)
}

// NewVerifier prepares a crossing-by-crossing check of a live run
// against a recording. Pass it to an attach with WithVerifier; the
// lab's clock must be the clock that attach will run on (Lab.Clock).
func (l *Lab) NewVerifier(lg *RecordLog) *Verifier {
	return replay.NewVerifier(lg, l.Host.Clock)
}

// ReadRecording loads and integrity-checks a WithRecord log. Version
// or magic mismatches return a plain error; any corruption of the
// body (bad checksum chain, unknown crossing class, out-of-order
// sequence or time) returns a *Divergence describing the first bad
// record.
func ReadRecording(path string) (*RecordLog, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return replay.Read(f)
}

// Replay re-executes a recorded session entirely from its log — no
// live guest, no hypervisor, no lab. The replayed run advances a
// fresh virtual clock through every recorded crossing and ends at the
// same final time the live session reached; the result carries the
// recorded RAM hashes and metrics for cross-checking. Pass
// replay.WithTrace via opts to get a span per crossing on
// "replay:<subsystem>" tracks, exportable as a Chrome/Perfetto trace
// for time-travel debugging of a recorded failure.
func Replay(path string, opts ...replay.RunOption) (*ReplayResult, error) {
	lg, err := ReadRecording(path)
	if err != nil {
		return nil, err
	}
	return replay.Run(lg, opts...)
}

// ReplayWithTrace is replay.WithTrace re-exported: enable the replay
// tracer so Replay's result can be exported with Tracer.WriteChrome.
func ReplayWithTrace() replay.RunOption { return replay.WithTrace() }
