// E9: the fleet storm. Thousands of VM lifecycles — launch, attach,
// mixed blk/net traffic, detach — executed by the sharded parallel
// simulation engine (internal/engine) at a sweep of worker counts.
// The experiment makes two claims at once:
//
//   - throughput: wall-clock events/sec and VM cycles/sec scale with
//     the worker pool, bounded by GOMAXPROCS: beyond it the sweep
//     measures the engine's overhead, not parallel speedup. These are
//     host cost, not virtual time, so they are reported per run and
//     never become ledger rows;
//   - determinism: the virtual-time results are bit-identical at every
//     worker count — per-shard final vtimes, per-VM guest RAM hashes,
//     and the merged metrics registry fold into one digest that must
//     not move across the sweep.
package eval

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"vmsh/internal/core"
	"vmsh/internal/engine"
	"vmsh/internal/faults"
	"vmsh/internal/fsimage"
	"vmsh/internal/hostsim"
	"vmsh/internal/hypervisor"
	"vmsh/internal/ledger"
	"vmsh/internal/netsim"
	"vmsh/internal/obs"
)

// FleetStormRun is one worker-count configuration of the sweep.
type FleetStormRun struct {
	Workers      int
	WallMS       float64
	EventsPerSec float64
	VMsPerSec    float64
	Events       int64
	Messages     int64
	// MaxVTimeMS is the largest per-shard final virtual time — by
	// construction identical across the sweep.
	MaxVTimeMS float64
	// Digest folds every determinism-bearing output of the run:
	// per-shard (vtime, per-VM RAM hashes) in shard order, the merged
	// metrics text, and the event/message counts.
	Digest string
}

// FleetStormResult is one E9 sweep. Every run has the same digest;
// RunFleetStorm fails otherwise.
type FleetStormResult struct {
	VMs    int
	Shards int
	Seed   int64
	Runs   []FleetStormRun
	// VTimesMS is each shard's final virtual time in ms (shard order);
	// identical across the worker sweep, recorded from the first run.
	VTimesMS []float64
	// Deterministic: every run of the sweep gave the first run's
	// digest.
	Deterministic bool
}

// Rows is E9's ledger: the configuration, the digest and whether it
// held across the worker sweep as invariants, and the event and
// message counts and virtual times as costs. Wall-clock throughput
// stays out: it measures the host, not the model.
func (r *FleetStormResult) Rows() []ledger.Row {
	l := ledger.Builder{Exp: "e9"}
	l.Invariant("vms", float64(r.VMs), "vms")
	l.Invariant("shards", float64(r.Shards), "shards")
	l.Invariant("seed", float64(r.Seed), "seed")
	run := r.Runs[0]
	l.Invariant("digest", run.Digest, "fnv64a")
	l.Invariant("deterministic", r.Deterministic, "bool")
	l.Cost("events", float64(run.Events), "events")
	l.Cost("messages", float64(run.Messages), "messages")
	l.Cost("max_vtime_ms", run.MaxVTimeMS, "ms")
	for i, vt := range r.VTimesMS {
		l.Cost(fmt.Sprintf("shard%d.vtime_ms", i), vt, "ms")
	}
	return l.Rows
}

// fleetShardPlan is the per-shard storm schedule, fixed before the
// engine runs: how many VM cycles, and at what virtual-time stagger.
type fleetShardPlan struct {
	cycles  int
	stagger time.Duration
	spacing time.Duration
	netpair bool
}

// planFleet distributes vms across shards and seeds per-shard
// staggering; a pure function of (vms, shards, seed).
func planFleet(vms, shards int, seed int64) []fleetShardPlan {
	plans := make([]fleetShardPlan, shards)
	for i := range plans {
		rnd := rand.New(rand.NewSource(seed + int64(i)*7919))
		p := &plans[i]
		p.cycles = vms / shards
		if i < vms%shards {
			p.cycles++
		}
		p.stagger = time.Duration(rnd.Intn(5000)) * time.Microsecond
		p.spacing = time.Duration(50+rnd.Intn(100)) * time.Millisecond
		// Even shards with at least two cycles open with a two-VM
		// net pair instead of two solo cycles.
		p.netpair = i%2 == 0 && p.cycles >= 2
	}
	return plans
}

// stormCycle runs one full VM lifecycle on a shard host: launch,
// attach through the tool image, blk traffic via the overlay, detach,
// RAM hash, teardown. The VM name is reused across cycles so the
// host's file table stays bounded.
func stormCycle(h *hostsim.Host, img *hostsim.HostFile, name, store string, seed int64, fold func(uint64)) error {
	inst, err := hypervisor.Launch(h, hypervisor.Config{
		Kind:          hypervisor.QEMU,
		Name:          name,
		KernelVersion: "5.10",
		RAMSize:       32 << 20,
		Seed:          seed,
		RootFS:        fsimage.GuestRoot(name),
	})
	if err != nil {
		return fmt.Errorf("launch %s: %w", name, err)
	}
	sess, err := core.New(h).Attach(inst.Proc.PID, core.Options{Image: img, Storage: store})
	if err != nil {
		return fmt.Errorf("attach %s: %w", name, err)
	}
	// Mixed blk traffic through vmsh-blk: directory scan plus a file
	// read straight off the served image.
	if _, err := sess.Exec("ls /var/lib/vmsh/bin"); err != nil {
		return fmt.Errorf("exec %s: %w", name, err)
	}
	if _, err := sess.Exec("cat /var/lib/vmsh/etc/os-release"); err != nil {
		return fmt.Errorf("exec %s: %w", name, err)
	}
	if err := sess.Detach(); err != nil {
		return fmt.Errorf("detach %s: %w", name, err)
	}
	foldRAM(inst, fold)
	h.Exit(inst.Proc)
	return nil
}

// stormNetPair launches two VMs on a shard-local switch, attaches both
// with vmsh-net, pings in both directions (net traffic is synchronous
// within a shard), then tears both down.
func stormNetPair(h *hostsim.Host, img *hostsim.HostFile, name, store string, seed int64, fold func(uint64)) error {
	sw := netsim.New(h.Clock, h.Costs)
	sw.Observe(h.Trace, h.Metrics)
	insts := make([]*hypervisor.Instance, 2)
	sessions := make([]*core.Session, 2)
	for j := 0; j < 2; j++ {
		n := fmt.Sprintf("%s-n%d", name, j)
		inst, err := hypervisor.Launch(h, hypervisor.Config{
			Kind:          hypervisor.QEMU,
			Name:          n,
			KernelVersion: "5.10",
			RAMSize:       32 << 20,
			Seed:          seed + int64(j),
			RootFS:        fsimage.GuestRoot(n),
		})
		if err != nil {
			return fmt.Errorf("launch %s: %w", n, err)
		}
		sess, err := core.New(h).Attach(inst.Proc.PID, core.Options{Image: img, Net: sw, Storage: store})
		if err != nil {
			return fmt.Errorf("attach %s: %w", n, err)
		}
		insts[j], sessions[j] = inst, sess
	}
	for j := 0; j < 2; j++ {
		ifc, ok := insts[j].Kernel.IfaceByName("vmsh0")
		if !ok {
			return fmt.Errorf("%s-n%d: vmsh0 not registered", name, j)
		}
		peer, _ := insts[1-j].Kernel.IfaceByName("vmsh0")
		if _, replied, err := ifc.Ping(peer.IP, uint16(j), 56); err != nil {
			return fmt.Errorf("%s-n%d ping: %w", name, j, err)
		} else if !replied {
			return fmt.Errorf("%s-n%d ping: no reply on lossless link", name, j)
		}
	}
	for j := 1; j >= 0; j-- {
		if err := sessions[j].Detach(); err != nil {
			return fmt.Errorf("detach %s-n%d: %w", name, j, err)
		}
		foldRAM(insts[j], fold)
		h.Exit(insts[j].Proc)
	}
	return nil
}

// foldRAM feeds the FNV-64a of every guest memslot into fold, in GPA
// order.
func foldRAM(inst *hypervisor.Instance, fold func(uint64)) {
	for _, s := range inst.VM.MemSlots() {
		fold(s.Phys.Hash())
	}
}

// fleetStormOnce runs the storm at one worker count and returns the
// run record plus its determinism digest and the engine (for vtimes
// and — when trace is set — the merged fleet trace). Tracing only
// reads state, so the digest is unaffected, which the bench
// hard-checks.
// The store parameter names the session storage backend behind every
// attach ("" = the historic file path); RAM-class backends must leave
// the digest untouched, which TestFleetStormStorageNeutral pins.
func fleetStormOnce(vms, shards, workers int, seed int64, store string, trace bool) (FleetStormRun, *engine.Engine, error) {
	eng := engine.New(shards, workers)
	if trace {
		eng.EnableTrace()
	}
	plans := planFleet(vms, shards, seed)
	// digests[i] is written only by shard i's events; vm counting the
	// same way.
	digests := make([]uint64, shards)
	for i := 0; i < shards; i++ {
		i, p := i, plans[i]
		fold := func(h uint64) { digests[i] = digests[i]*1099511628211 + h }
		var img *hostsim.HostFile
		image := func(h *hostsim.Host) (*hostsim.HostFile, error) {
			if img != nil {
				return img, nil
			}
			m := fsimage.ToolImage()
			f := h.CreateFile("e9-tools.img", m.Size()+64<<20, false)
			if err := fsimage.Build(hostsim.NewHostFileDevice(f), m); err != nil {
				return nil, err
			}
			img = f
			return img, nil
		}
		cycle := 0
		for cycle < p.cycles {
			at := p.stagger + time.Duration(cycle)*p.spacing
			if p.netpair && cycle == 0 {
				vmSeed := seed + int64(i)*1000
				eng.At(i, at, "netpair", func(s *engine.Shard) error {
					f, err := image(s.Host())
					if err != nil {
						return err
					}
					return stormNetPair(s.Host(), f, fmt.Sprintf("s%d", i), store, vmSeed, fold)
				})
				cycle += 2
				continue
			}
			k := cycle
			vmSeed := seed + int64(i)*1000 + int64(k)
			eng.At(i, at, "cycle", func(s *engine.Shard) error {
				f, err := image(s.Host())
				if err != nil {
					return err
				}
				return stormCycle(s.Host(), f, fmt.Sprintf("s%d", i), store, vmSeed, fold)
			})
			cycle++
		}
		// Cross-shard traffic: a token to the next shard after the
		// last local cycle, counted on arrival.
		last := p.stagger + time.Duration(p.cycles)*p.spacing
		eng.At(i, last, "token-send", func(s *engine.Shard) error {
			s.Post((i+1)%shards, s.Now(), "token", func(t *engine.Shard) error {
				t.Host().Metrics.Counter("e9.tokens").Inc()
				return nil
			})
			return nil
		})
	}

	stats, err := eng.Run()
	if err != nil {
		return FleetStormRun{}, nil, err
	}
	// Fold the full determinism surface into one digest.
	dig := faults.NewDigest()
	for i, vt := range eng.VTimes() {
		dig = dig.Str(fmt.Sprintf("%d:%d:%016x\n", i, vt, digests[i]))
	}
	dig = dig.Str(eng.MergedMetrics().Text())
	dig = dig.Str(fmt.Sprintf("events=%d messages=%d\n", stats.Events, stats.Messages))

	wall := stats.Wall.Seconds()
	return FleetStormRun{
		Workers:      workers,
		WallMS:       stats.Wall.Seconds() * 1e3,
		EventsPerSec: stats.EventsPerSec(),
		VMsPerSec:    float64(vms) / wall,
		Events:       stats.Events,
		Messages:     stats.Messages,
		MaxVTimeMS:   stats.MaxVTime.Seconds() * 1e3,
		Digest:       fmt.Sprintf("%016x", uint64(dig)),
	}, eng, nil
}

// DefaultFleetWorkerSweep is the E9 worker-count sweep.
var DefaultFleetWorkerSweep = []int{1, 2, 4, 8, 16}

// fleetShards is the storm's shard count: vms/20, clamped to
// [workers, 64] so every worker has a shard to run, and to at most one
// shard per VM.
func fleetShards(vms, workers int) int {
	return min(max(vms/20, workers), 64, vms)
}

// RunFleetStorm regenerates E9: the same vms-sized storm at every
// worker count in sweep (DefaultFleetWorkerSweep when nil), asserting
// bit-identical virtual-time results while measuring wall-clock
// throughput. Shards follow fleetShards at the sweep's largest worker
// count. On failure the runs made so far come back with the error.
func RunFleetStorm(vms int, sweep []int, seed int64) (*FleetStormResult, error) {
	if len(sweep) == 0 {
		sweep = DefaultFleetWorkerSweep
	}
	shards := fleetShards(vms, slices.Max(sweep))
	res := &FleetStormResult{VMs: vms, Shards: shards, Seed: seed, Deterministic: true}
	for idx, w := range sweep {
		run, eng, err := fleetStormOnce(vms, shards, w, seed, "", false)
		if err != nil {
			return res, fmt.Errorf("E9 workers=%d: %w", w, err)
		}
		if idx == 0 {
			// vtimes are worker-invariant; record once.
			for _, vt := range eng.VTimes() {
				res.VTimesMS = append(res.VTimesMS, vt.Seconds()*1e3)
			}
		}
		res.Runs = append(res.Runs, run)
		if run.Digest != res.Runs[0].Digest {
			res.Deterministic = false
		}
	}
	if !res.Deterministic {
		return res, fmt.Errorf("E9: virtual-time results diverged across worker counts")
	}
	return res, nil
}

// TraceFleetStorm runs the E9 storm once with the fleet trace plane
// on, then hard-checks that the traced
// run's determinism digest matches an untraced run of the same
// configuration (observability must never perturb the simulation).
// Returns the merged fleet trace, its vtime profile, and the traced
// run record. Shard count follows the same rule as RunFleetStorm.
func TraceFleetStorm(vms, workers int, seed int64) (*obs.MergedTrace, *obs.Profile, FleetStormRun, error) {
	shards := fleetShards(vms, workers)
	traced, eng, err := fleetStormOnce(vms, shards, workers, seed, "", true)
	if err != nil {
		return nil, nil, traced, fmt.Errorf("E9 traced run: %w", err)
	}
	plain, _, err := fleetStormOnce(vms, shards, workers, seed, "", false)
	if err != nil {
		return nil, nil, traced, fmt.Errorf("E9 untraced run: %w", err)
	}
	if traced.Digest != plain.Digest {
		return nil, nil, traced, fmt.Errorf("E9: tracing perturbed the simulation: traced digest %s != untraced %s",
			traced.Digest, plain.Digest)
	}
	trace := eng.Trace()
	if err := trace.ValidateFlows(); err != nil {
		return nil, nil, traced, err
	}
	return trace, eng.Profile(), traced, nil
}
