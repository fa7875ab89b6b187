package main

import (
	"fmt"
	"path"
	"runtime"
	"sort"
	"strings"
	"time"

	"vmsh"
	"vmsh/internal/guestos"
)

// opSpan names the span around one whole op.
const opSpan = "op"

// attachStorm is a closed loop of E9-style VM lifecycles on a Fleet:
// each phase schedules opsPerShard lifecycles on every shard and runs
// the fleet to quiescence; the next phase starts when it returns.
// Boot, attach (ksym scan, page-table walk, syscall injection), dense
// RAM allocation and hashing, and the engine do almost all the work.
type attachStorm struct {
	cfg    config
	shards int
	fleet  *vmsh.Fleet
	images []*vmsh.Image
	phase  int
	lsBin  string // expected `ls /bin` output: the tool image's /bin
	run    handle // the engine.run span ops are children of

	// acc[i] is written only by shard i's events.
	acc  []stormAcc
	dig  string
	ctrs map[string]float64
}

// stormAcc accumulates one shard's prefix ops for the digest and the
// program counters.
type stormAcc struct {
	fold                        uint64
	syscalls, ptrace, procvm    int64
	exits, attaches, lifecycles int64
}

const opsPerShard = 2

func newAttachStorm(cfg config) workload {
	// The shard count depends on the host only, never on -workers, so
	// the digest can be compared across worker counts.
	s := &attachStorm{cfg: cfg, shards: 2 * runtime.NumCPU()}
	var bins []string
	for p := range vmsh.ToolImage() {
		if path.Dir(p) == "/bin" {
			bins = append(bins, path.Base(p))
		}
	}
	sort.Strings(bins)
	s.lsBin = strings.Join(bins, "\n") + "\n"
	return s
}

func (s *attachStorm) prefixOps() int { return s.shards * opsPerShard }

func (s *attachStorm) digest() string { return s.dig }

func (s *attachStorm) counters() map[string]float64 { return s.ctrs }

// setup builds a fresh fleet, one tool image per shard, and warms up
// with one phase drawn from a separate op stream.
func (s *attachStorm) setup(r *runner) error {
	lab := vmsh.NewLab()
	lab.SetWorkers(s.cfg.workers)
	s.fleet = lab.NewFleet(s.shards)
	s.images = make([]*vmsh.Image, s.shards)
	for i := 0; i < s.shards; i++ {
		i := i
		s.fleet.Schedule(i, 0, "image", func(l *vmsh.Lab) error {
			img, err := l.BuildImage("tools.img", vmsh.ToolImage())
			s.images[i] = img
			return err
		})
	}
	if _, err := s.fleet.Run(); err != nil {
		return err
	}
	s.phase = -1
	warm := r.warmup()
	s.runPhase(warm)
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %s", warm.notes[0])
	}
	s.phase, s.dig, s.ctrs = 0, "", nil
	return nil
}

func (s *attachStorm) step(r *runner) int {
	s.runPhase(r)
	if s.phase == 0 {
		s.finishPrefix()
	}
	s.phase++
	return s.shards * opsPerShard
}

// runPhase schedules one lifecycle per (shard, slot) and runs the
// fleet. Phase -1 is the warm-up stream.
func (s *attachStorm) runPhase(r *runner) {
	prefix := s.phase == 0
	if prefix {
		s.acc = make([]stormAcc, s.shards)
	}
	for i := 0; i < s.shards; i++ {
		for j := 0; j < opsPerShard; j++ {
			i := i
			id := int64((s.phase*s.shards+i)*opsPerShard + j)
			s.fleet.Schedule(i, 0, "lifecycle", func(l *vmsh.Lab) error {
				s.lifecycle(r, l, i, id, prefix)
				return nil
			})
		}
	}
	s.run = r.enter("engine.run", handle{i: -1}, -1, 0)
	_, err := s.fleet.Run()
	r.leave(s.run, err)
	if err != nil {
		r.done(0, 0, fmt.Errorf("engine run: %w", err))
	}
}

// stormParams is one lifecycle's seeded configuration.
type stormParams struct {
	kind   int // index into stormKinds
	kernel string
	ramMiB uint64
	vmSeed int64
}

var stormKinds = []struct {
	name string
	opts []vmsh.VMOption
}{
	{"qemu", []vmsh.VMOption{vmsh.WithHypervisor(vmsh.QEMU)}},
	{"kvmtool", []vmsh.VMOption{vmsh.WithHypervisor(vmsh.Kvmtool)}},
	{"crosvm", []vmsh.VMOption{vmsh.WithHypervisor(vmsh.Crosvm)}},
	{"firecracker", []vmsh.VMOption{vmsh.WithHypervisor(vmsh.Firecracker), vmsh.WithoutSeccomp()}},
}

func drawStorm(seed, id int64) stormParams {
	x := mix(uint64(seed), uint64(id))
	return stormParams{
		kind:   int(x % uint64(len(stormKinds))),
		kernel: guestos.LTSVersions[(x>>8)%uint64(len(guestos.LTSVersions))],
		ramMiB: 32 << ((x >> 16) & 1),
		vmSeed: int64(x >> 20),
	}
}

// mix is a splitmix64 finaliser over (seed, id): each op's inputs
// depend only on the seed and the op's index.
func mix(seed, id uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + id + 0x632be59bd9b4e019
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// lifecycle runs one op on shard i: LaunchVM, Attach with the tool
// image, two checked Execs, Detach, RAMHashes, Host.Exit.
func (s *attachStorm) lifecycle(r *runner, lab *vmsh.Lab, shard int, id int64, prefix bool) {
	start := time.Now()
	v0 := lab.Clock().Now()
	kvmExits := lab.Metrics().Counter("kvm.exits")
	e0 := kvmExits.Value()
	lane := int32(shard + 1)
	op := r.tr.begin(opSpan, s.run.i, id, lane)
	hashes, err := s.cycle(r, lab, shard, id, op, prefix)
	r.tr.end(op, err != nil)
	r.done(time.Since(start), int64(lab.Clock().Now()-v0), err)
	if prefix {
		a := &s.acc[shard]
		a.exits += kvmExits.Value() - e0
		a.lifecycles++
		for _, h := range hashes {
			a.fold = a.fold*1099511628211 + h
		}
		if err != nil {
			a.fold = a.fold*1099511628211 + 1
		}
	}
}

func (s *attachStorm) cycle(r *runner, lab *vmsh.Lab, shard int, id int64, op handle, prefix bool) ([]uint64, error) {
	p := drawStorm(s.cfg.seed, id)
	name := fmt.Sprintf("s%d", shard)
	lane := int32(shard + 1)
	opts := append([]vmsh.VMOption{
		vmsh.WithVMName(name), vmsh.WithKernelVersion(p.kernel),
		vmsh.WithMemMiB(p.ramMiB), vmsh.WithVMSeed(p.vmSeed),
		vmsh.WithRootFS(vmsh.GuestRoot(name)),
	}, stormKinds[p.kind].opts...)
	var vm *vmsh.VM
	err := r.call("hypervisor.launch", op, id, lane, func() (err error) {
		vm, err = lab.LaunchVM(opts...)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("launch %s: %w", stormKinds[p.kind].name, err)
	}
	defer r.call("hostsim.exit", op, id, lane, func() error {
		lab.Host.Exit(vm.Proc)
		return nil
	})

	m := lab.Metrics()
	sys, ptr, pvm := m.Counter("host.syscalls"), m.Counter("host.ptrace.stops"), m.Counter("host.procvm.calls")
	sys0, ptr0, pvm0 := sys.Value(), ptr.Value(), pvm.Value()
	var sess *vmsh.Session
	err = r.call("core.attach", op, id, lane, func() (err error) {
		sess, err = lab.Attach(vm, vmsh.WithImage(s.images[shard]))
		return err
	})
	if prefix {
		a := &s.acc[shard]
		a.syscalls += sys.Value() - sys0
		a.ptrace += ptr.Value() - ptr0
		a.procvm += pvm.Value() - pvm0
		a.attaches++
	}
	if err != nil {
		return nil, fmt.Errorf("attach %s %s: %w", stormKinds[p.kind].name, p.kernel, err)
	}
	checks := []struct{ cmd, want string }{
		{"ls /bin", s.lsBin},
		{"cat /var/lib/vmsh/etc/hostname", name + "\n"},
	}
	for _, c := range checks {
		var out string
		err := r.call("core.exec", op, id, lane, func() (err error) {
			out, err = sess.Exec(c.cmd)
			return err
		})
		if err == nil {
			err = r.expectText(c.cmd, out, c.want)
		}
		if err != nil {
			return nil, err
		}
	}
	if err := r.call("core.detach", op, id, lane, sess.Detach); err != nil {
		return nil, fmt.Errorf("detach: %w", err)
	}
	var hashes []uint64
	_ = r.call("mem.ram_hash", op, id, lane, func() error {
		hashes = sess.RAMHashes()
		return nil
	})
	return hashes, nil
}

// finishPrefix folds the fleet state after the prefix phase into the
// digest and turns the prefix accumulators into per-op counters.
func (s *attachStorm) finishPrefix() {
	d := newDigester()
	var tot stormAcc
	for i, vt := range s.fleet.VTimes() {
		a := s.acc[i]
		d.add("shard %d vtime %d fold %016x", i, vt, a.fold)
		tot.syscalls += a.syscalls
		tot.ptrace += a.ptrace
		tot.procvm += a.procvm
		tot.exits += a.exits
		tot.attaches += a.attaches
		tot.lifecycles += a.lifecycles
	}
	d.add("%s", s.fleet.Metrics().Text())
	s.dig = d.sum()
	att, ops := float64(max(tot.attaches, 1)), float64(max(tot.lifecycles, 1))
	s.ctrs = map[string]float64{
		"hostsim.syscalls_per_attach":     float64(tot.syscalls) / att,
		"hostsim.ptrace_stops_per_attach": float64(tot.ptrace) / att,
		"hostsim.procvm_calls_per_attach": float64(tot.procvm) / att,
		"kvm.exits_per_op":                float64(tot.exits) / ops,
	}
}
