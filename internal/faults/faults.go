// Package faults is a deterministic, seeded fault-injection plane for
// the simulated host crossings VMSH depends on: ptrace operations,
// process_vm_readv/writev, injected ioctls and mmaps, virtqueue
// service passes and netsim link delivery.
//
// Every crossing calls Injector.Check with a hierarchical operation
// name ("ptrace:inject:ioctl", "procvm:readv", "vq:blk", ...). A fault
// Plan is a list of composable Rules matched against those names:
// fail-the-Nth-crossing, seeded per-crossing probability, transient
// (EINTR/EAGAIN — a retry succeeds) versus persistent faults, and
// vclock-charged latency spikes. Two runs with the same plan and seed
// inject the same faults at the same virtual times; a plane without a
// plan (or with an empty one) neither advances the clock nor consumes
// randomness, so unfaulted runs stay bit-identical to a build without
// the plane. The same plane delivers every crossing to an armed Tap.
//
// The design follows IRIS-style hypervisor-interface fault sweeps
// (arXiv:2303.12817): enumerate every crossing of the attach path,
// then re-attach once per single-fault point and pin the
// guest-observable state as the invariant.
package faults

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"vmsh/internal/obs"
	"vmsh/internal/vclock"
)

// Op names one host-crossing class. Names are hierarchical,
// ':'-separated; rules match by prefix at segment boundaries, so a
// rule for "ptrace" covers "ptrace:inject:ioctl".
type Op string

// The crossing classes the simulation wires up.
const (
	OpPtraceAttach    Op = "ptrace:attach"
	OpPtraceInterrupt Op = "ptrace:interrupt"
	OpPtraceResume    Op = "ptrace:resume"
	OpPtraceGetRegs   Op = "ptrace:getregs"
	OpPtraceSetRegs   Op = "ptrace:setregs"
	// OpPtraceInject is the prefix for injected syscalls; the concrete
	// crossing appends the syscall name ("ptrace:inject:mmap").
	OpPtraceInject Op = "ptrace:inject"
	OpProcVMRead   Op = "procvm:readv"
	OpProcVMWrite  Op = "procvm:writev"
	OpProcFDInfo   Op = "procfs:fdinfo"
	OpKProbe       Op = "bpf:kprobe"
	OpVQBlk        Op = "vq:blk"
	OpVQNet        Op = "vq:net"
	OpNetLink      Op = "net:link"
	// Remote storage backend object operations (internal/storage):
	// GET/PUT of one object chunk and the flush barrier.
	OpRemoteGet   Op = "remote:get"
	OpRemotePut   Op = "remote:put"
	OpRemoteFlush Op = "remote:flush"
)

// Injected errno-flavoured sentinels. EINTR and EAGAIN are the
// transient pair: a faulted operation retried later succeeds.
var (
	EFAULT = errors.New("injected fault: bad address (EFAULT)")
	EIO    = errors.New("injected fault: input/output error (EIO)")
	EPERM  = errors.New("injected fault: operation not permitted (EPERM)")
	ENOSYS = errors.New("injected fault: function not implemented (ENOSYS)")
	EINTR  = errors.New("injected fault: interrupted system call (EINTR)")
	EAGAIN = errors.New("injected fault: resource temporarily unavailable (EAGAIN)")
)

// Fault is the error an injected failure surfaces as. It wraps the
// configured sentinel, so errors.Is(err, faults.EINTR) works through
// any amount of caller wrapping.
type Fault struct {
	Op        Op     // the crossing that faulted
	Seq       int    // 1-based per-op crossing number
	Stage     string // injector stage context at fault time, if any
	Err       error  // the injected sentinel
	Transient bool   // a retry of the operation will succeed
}

// Error implements error.
func (f *Fault) Error() string {
	kind := "persistent"
	if f.Transient {
		kind = "transient"
	}
	return fmt.Sprintf("%s fault at %s #%d: %v", kind, f.Op, f.Seq, f.Err)
}

// Unwrap exposes the injected sentinel to errors.Is/As.
func (f *Fault) Unwrap() error { return f.Err }

// IsTransient reports whether err is (or wraps) a transient injected
// fault — one whose operation should be retried.
func IsTransient(err error) bool {
	var f *Fault
	if errors.As(err, &f) {
		return f.Transient
	}
	return errors.Is(err, EINTR) || errors.Is(err, EAGAIN)
}

// IsFault reports whether err originates from the injection plane at
// all (as opposed to an organic simulation error).
func IsFault(err error) bool {
	var f *Fault
	return errors.As(err, &f)
}

// Rule is one composable fault clause. A rule fires when its Op
// prefix and optional Stage filter match a crossing AND its trigger
// condition (Nth or Prob) holds.
type Rule struct {
	// Op prefix-matches the crossing name at ':' boundaries; ""
	// matches every crossing.
	Op string
	// Stage, when non-empty, restricts the rule to crossings made
	// while the injector's stage context equals it (the attach
	// transaction publishes its stage names here).
	Stage string
	// Nth fires on the Nth crossing matching the filters (1-based).
	Nth int
	// Persistent, with Nth, keeps firing on every later match too —
	// a hard failure rather than a one-shot glitch.
	Persistent bool
	// Prob fires each matching crossing with this seeded probability
	// (used when Nth is zero).
	Prob float64
	// Transient marks the fault retryable; the default sentinel
	// becomes EINTR instead of EFAULT.
	Transient bool
	// Err overrides the injected sentinel (EFAULT/EINTR by default).
	Err error
	// Latency is charged to the virtual clock when the rule fires. A
	// rule with Latency but nil Err and Transient=false is a pure
	// latency spike: the crossing is delayed, not failed.
	Latency time.Duration
}

// Plan is a seeded set of rules.
type Plan struct {
	Seed  uint64
	Rules []Rule
}

// NewPlan builds a plan.
func NewPlan(seed uint64, rules ...Rule) *Plan {
	return &Plan{Seed: seed, Rules: rules}
}

// opMatches reports whether the rule prefix covers the crossing name,
// honouring ':' segment boundaries ("vq" covers "vq:blk"; "vq:b" does
// not).
func opMatches(prefix, op string) bool {
	if prefix == "" || prefix == op {
		return true
	}
	return strings.HasPrefix(op, prefix) && op[len(prefix)] == ':'
}

// CrossingStat summarises every crossing of one (op, stage) class seen
// while recording: how many there were and the per-op sequence numbers
// of the first and last. The sweep driver derives its single-fault
// points from these.
type CrossingStat struct {
	Op    string
	Stage string
	Count int
	First int // per-op sequence number of the first crossing
	Last  int // per-op sequence number of the last crossing
}

// Injector is a host's one crossing plane. Every host crossing passes
// through it: Check consults the armed fault plan before the crossing
// and Observe reports the outcome to the armed tap after it. Both
// share one stage context and one pause switch, so a tap sees exactly
// the crossings a plan could fault. A host creates its plane once;
// SetPlan and SetTap swap what is armed in place, so every device
// holding the plane sees a plan or tap armed after it was wired.
//
// With no plan armed Check is one nil comparison — no clock, no RNG,
// no allocation — and with no tap Observing is false, so runs with
// neither stay bit-identical to a build without the plane. All methods
// are safe on a nil receiver, which behaves as a plane with nothing
// armed.
type Injector struct {
	clock *vclock.Clock
	plan  *Plan     // nil: no fault plan armed
	track obs.Track // one event per injected fault
	tap   Tap       // nil: no observer armed

	stage  string
	paused bool

	rng      uint64
	opSeq    map[string]int
	ruleHits []int
	injected int

	record  bool
	statIdx map[string]int
	stats   []CrossingStat
}

// NewInjector builds a crossing plane against the given clock with p
// (may be nil) armed; track (may be the zero Track) carries one trace
// event per injected fault.
func NewInjector(p *Plan, clock *vclock.Clock, track obs.Track) *Injector {
	in := &Injector{clock: clock}
	in.SetPlan(p, track)
	return in
}

// SetPlan arms p (nil disarms) with track carrying its fault events.
// The plan's sequence numbers, RNG, rule hits and recorded stats start
// afresh; the stage, pause state and tap carry over.
func (in *Injector) SetPlan(p *Plan, track obs.Track) {
	in.plan, in.track = p, track
	in.rng, in.opSeq, in.ruleHits, in.injected = 0, nil, nil, 0
	in.record, in.statIdx, in.stats = false, nil, nil
	if p != nil {
		in.rng = p.Seed
		in.opSeq = make(map[string]int)
		in.ruleHits = make([]int, len(p.Rules))
	}
}

// SetTap arms (or, with nil, disarms) the crossing observer — the
// record/replay subsystem's hook.
func (in *Injector) SetTap(t Tap) {
	if in != nil {
		in.tap = t
	}
}

// Observing reports whether crossings are currently delivered to a
// tap: one is armed and the plane is not paused. Callers on hot paths
// gate argument digesting on this.
func (in *Injector) Observing() bool {
	return in != nil && in.tap != nil && !in.paused
}

// Observe delivers one crossing, annotated with the current stage, to
// the tap if the plane is Observing.
func (in *Injector) Observe(op Op, args, result Digest, err error) {
	if !in.Observing() {
		return
	}
	in.tap.Crossing(Crossing{
		Op:     op,
		Stage:  in.stage,
		Args:   uint64(args),
		Result: uint64(result),
		Err:    ErrClass(err),
	})
}

// SetStage publishes the caller's current stage name (the attach
// transaction's stage context) for Stage-filtered rules, recording and
// observed crossings.
func (in *Injector) SetStage(s string) {
	if in != nil {
		in.stage = s
	}
}

// Stage returns the current stage context.
func (in *Injector) Stage() string {
	if in == nil {
		return ""
	}
	return in.stage
}

// SetPaused suspends the plane entirely: while paused Check is a
// complete no-op — no sequence numbers, no rule evaluation, no
// recording — and no crossing is observed. Rollback and detach pause
// the plane so that undo crossings can never fault recursively, never
// perturb the fault schedule of the run they are cleaning up after,
// and never reach a recording.
func (in *Injector) SetPaused(on bool) {
	if in != nil {
		in.paused = on
	}
}

// Paused reports whether the plane is suspended.
func (in *Injector) Paused() bool {
	return in != nil && in.paused
}

// SetRecording toggles crossing aggregation (see Stats) for the armed
// plan; an empty plan records without ever faulting.
func (in *Injector) SetRecording(on bool) {
	if in == nil {
		return
	}
	in.record = on
	if on && in.statIdx == nil {
		in.statIdx = make(map[string]int)
	}
}

// Stats returns the recorded crossing classes in first-seen order.
func (in *Injector) Stats() []CrossingStat {
	if in == nil {
		return nil
	}
	out := make([]CrossingStat, len(in.stats))
	copy(out, in.stats)
	return out
}

// Injected reports how many rules have fired (including latency-only
// spikes).
func (in *Injector) Injected() int {
	if in == nil {
		return 0
	}
	return in.injected
}

// rand draws the next seeded uniform in [0,1) (splitmix64).
func (in *Injector) rand() float64 {
	in.rng += 0x9e3779b97f4a7c15
	z := in.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// Check is the crossing hook: it evaluates the plan against op and
// either returns nil (no fault), returns a *Fault, or charges a
// latency spike and returns nil.
func (in *Injector) Check(op Op) error {
	if in == nil || in.plan == nil || in.paused {
		return nil
	}
	key := string(op)
	seq := in.opSeq[key] + 1
	in.opSeq[key] = seq
	if in.record {
		in.recordCrossing(key, seq)
	}
	for i := range in.plan.Rules {
		r := &in.plan.Rules[i]
		if !opMatches(r.Op, key) {
			continue
		}
		if r.Stage != "" && r.Stage != in.stage {
			continue
		}
		trigger := false
		if r.Nth > 0 {
			in.ruleHits[i]++
			if r.Persistent {
				trigger = in.ruleHits[i] >= r.Nth
			} else {
				trigger = in.ruleHits[i] == r.Nth
			}
		} else if r.Prob > 0 {
			trigger = in.rand() < r.Prob
		}
		if !trigger {
			continue
		}
		in.injected++
		if r.Latency > 0 {
			in.clock.Advance(r.Latency)
		}
		sentinel := r.Err
		if sentinel == nil {
			if r.Transient {
				sentinel = EINTR
			} else if r.Latency > 0 {
				// Pure latency spike: delayed, not failed.
				in.track.Event1("fault", "delay "+key, "ns", int64(r.Latency))
				return nil
			} else {
				sentinel = EFAULT
			}
		}
		in.track.Event1("fault", "inject "+key, "seq", int64(seq))
		return &Fault{Op: op, Seq: seq, Stage: in.stage, Err: sentinel, Transient: r.Transient}
	}
	return nil
}

func (in *Injector) recordCrossing(key string, seq int) {
	sk := key + "\x00" + in.stage
	if i, ok := in.statIdx[sk]; ok {
		in.stats[i].Count++
		in.stats[i].Last = seq
		return
	}
	in.statIdx[sk] = len(in.stats)
	in.stats = append(in.stats, CrossingStat{
		Op: key, Stage: in.stage, Count: 1, First: seq, Last: seq,
	})
}

// errNames maps spec-string error names to sentinels.
var errNames = map[string]error{
	"efault": EFAULT,
	"eio":    EIO,
	"eperm":  EPERM,
	"enosys": ENOSYS,
	"eintr":  EINTR,
	"eagain": EAGAIN,
}

// isParamSegment reports whether a ':'-segment of a spec is the
// parameter list rather than part of the op name. Op segments never
// contain '=' or ',', so either marks the parameter list — this is
// what routes "ptrace:transient,transient" into the duplicate-flag
// check instead of silently parsing it as an op name.
func isParamSegment(s string) bool {
	return strings.ContainsAny(s, "=,") || s == "transient" || s == "persistent"
}

// ParseRule parses one CLI fault spec of the form
//
//	op[:subop...][:key=val[,key=val|flag]...]
//
// e.g. "ptrace:nth=3", "procvm:readv:nth=5,transient",
// "vq:blk:prob=0.01", "ptrace:inject:lat=2ms" (latency-only),
// "ptrace:nth=2,persistent,err=eperm,stage=inject_library".
// A spec without nth/prob defaults to nth=1. A spec that is only a
// parameter list ("prob=0.01") matches every crossing.
//
// The grammar is strict: empty op segments ("ptrace::nth=1"), empty
// parameter segments ("nth=1,,transient" or a trailing comma),
// duplicate keys or flags, flags carrying values ("transient=yes"),
// and combining nth with prob are all rejected with a descriptive
// error rather than silently ignored.
func ParseRule(spec string) (Rule, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return Rule{}, fmt.Errorf("faults: empty spec")
	}
	parts := strings.Split(spec, ":")
	opEnd := len(parts)
	if opEnd > 0 && isParamSegment(parts[opEnd-1]) {
		opEnd--
	}
	for _, seg := range parts[:opEnd] {
		if seg == "" {
			return Rule{}, fmt.Errorf("faults: empty op segment in spec %q", spec)
		}
	}
	r := Rule{Op: strings.Join(parts[:opEnd], ":")}
	if opEnd < len(parts) {
		seen := make(map[string]bool)
		for _, kv := range strings.Split(parts[opEnd], ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				return Rule{}, fmt.Errorf("faults: empty parameter segment in spec %q (trailing or doubled comma)", spec)
			}
			key, val, hasVal := strings.Cut(kv, "=")
			if seen[key] {
				return Rule{}, fmt.Errorf("faults: duplicate %q in spec %q", key, spec)
			}
			seen[key] = true
			switch key {
			case "transient", "persistent":
				if hasVal {
					return Rule{}, fmt.Errorf("faults: flag %q takes no value in spec %q", key, spec)
				}
			case "nth", "prob", "stage", "lat", "err":
				if !hasVal || val == "" {
					return Rule{}, fmt.Errorf("faults: key %q needs a value in spec %q", key, spec)
				}
			default:
				return Rule{}, fmt.Errorf("faults: unknown key %q in spec %q", key, spec)
			}
			var err error
			switch key {
			case "transient":
				r.Transient = true
			case "persistent":
				r.Persistent = true
			case "nth":
				r.Nth, err = strconv.Atoi(val)
				if err == nil && r.Nth < 1 {
					return Rule{}, fmt.Errorf("faults: nth must be >= 1 in spec %q", spec)
				}
			case "prob":
				r.Prob, err = strconv.ParseFloat(val, 64)
				if err == nil && (r.Prob <= 0 || r.Prob > 1) {
					return Rule{}, fmt.Errorf("faults: prob must be in (0,1] in spec %q", spec)
				}
			case "stage":
				r.Stage = val
			case "lat":
				r.Latency, err = time.ParseDuration(val)
				if err == nil && r.Latency < 0 {
					return Rule{}, fmt.Errorf("faults: lat must be non-negative in spec %q", spec)
				}
			case "err":
				sentinel, ok := errNames[strings.ToLower(val)]
				if !ok {
					return Rule{}, fmt.Errorf("faults: unknown err %q (want one of %s)", val, errNameList())
				}
				r.Err = sentinel
			}
			if err != nil {
				return Rule{}, fmt.Errorf("faults: bad value for %s in spec %q: %v", key, spec, err)
			}
		}
		if r.Nth > 0 && r.Prob > 0 {
			return Rule{}, fmt.Errorf("faults: nth and prob are mutually exclusive in spec %q", spec)
		}
	}
	if r.Nth == 0 && r.Prob == 0 {
		r.Nth = 1
	}
	return r, nil
}

// ParseRules parses a ';'-separated list of specs.
func ParseRules(specs string) ([]Rule, error) {
	var out []Rule
	for _, spec := range strings.Split(specs, ";") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		r, err := ParseRule(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func errNameList() string {
	names := make([]string, 0, len(errNames))
	for n := range errNames {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}
