package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"runtime/pprof"
	"sort"
	"sync"
	"time"
)

// workload is one seeded closed loop. setup builds the inputs and the
// long-lived state and warms up, replacing any earlier state; step runs
// the next op (or phase of ops) and returns how many it attempted.
// The first prefixOps ops of the seeded sequence also feed the
// determinism digest and the program counters, which are final once
// that many ops have run.
type workload interface {
	setup(r *runner) error
	step(r *runner) int
	prefixOps() int
	digest() string
	counters() map[string]float64
}

// workloads maps each -workload name to its constructor.
var workloads = map[string]func(config) workload{
	"attach_storm":     newAttachStorm,
	"device_io":        newDeviceIO,
	"snapshot_migrate": newSnapshotMigrate,
}

// Injected faults, used only by the self-test to prove that the output
// checks catch wrong output.
const (
	injectNone     = ""
	injectExpect   = "expect"   // corrupt every expected Exec output
	injectReadback = "readback" // flip one byte of every block read-back
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	workers  int // attach_storm fleet workers
	traced   bool
	inject   string
}

// runner holds the bookkeeping of one measurement window. Its methods
// may be called from several fleet workers at once.
type runner struct {
	cfg    config
	tr     *tracer // nil when untraced
	labels *labels

	mu        sync.Mutex
	lat       []time.Duration
	attempted int
	failed    int
	simNS     int64
	notes     []string // the first few failure messages
}

func newRunner(cfg config, lb *labels, traced bool) *runner {
	r := &runner{cfg: cfg, labels: lb}
	if traced {
		r.tr = newTracer()
	}
	return r
}

// warmup returns a runner for set-up ops: untraced, with nothing
// injected, and discarded afterwards.
func (r *runner) warmup() *runner {
	cfg := r.cfg
	cfg.inject = injectNone
	return newRunner(cfg, r.labels, false)
}

// enter opens a call into layer b: it sets b's pprof labels on the
// calling goroutine and, when traced, opens a span that is a child of
// parent. leave closes it.
func (r *runner) enter(b string, parent handle, op int64, lane int32) handle {
	pprof.SetGoroutineLabels(r.labels.bound[b])
	return r.tr.begin(b, parent.i, op, lane)
}

func (r *runner) leave(h handle, err error) {
	r.tr.end(h, err != nil)
	pprof.SetGoroutineLabels(r.labels.base)
}

// call runs fn as one call into layer b (see enter).
func (r *runner) call(b string, parent handle, op int64, lane int32, fn func() error) error {
	h := r.enter(b, parent, op, lane)
	err := fn()
	r.leave(h, err)
	return err
}

// done records one attempted op: its host latency, the virtual time it
// simulated, and its error (nil for an op whose every output checked).
func (r *runner) done(lat time.Duration, simNS int64, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.lat = append(r.lat, lat)
	r.simNS += simNS
	if err != nil {
		r.failed++
		if len(r.notes) < 5 {
			r.notes = append(r.notes, err.Error())
		}
	}
}

var errMismatch = errors.New("output mismatch")

// expectText checks one Exec output against the text it must be.
func (r *runner) expectText(what, got, want string) error {
	if r.cfg.inject == injectExpect {
		want += "#"
	}
	if got != want {
		return fmt.Errorf("%w: %s: got %q, want %q", errMismatch, what, got, want)
	}
	return nil
}

// expectBytes checks data read back from off against the bytes last
// written there.
func (r *runner) expectBytes(what string, off int64, got, want []byte) error {
	if r.cfg.inject == injectReadback && len(got) > 0 {
		got[len(got)/2] ^= 0x40
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%w: %s @%d: %d bytes differ from the last write", errMismatch, what, off, len(got))
	}
	return nil
}

// digester folds determinism-bearing values into one FNV-64a digest.
type digester struct{ h hash.Hash64 }

func newDigester() *digester { return &digester{h: fnv.New64a()} }

func (d *digester) add(format string, args ...any) { fmt.Fprintf(d.h, format+"\n", args...) }

func (d *digester) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// window is the outcome of one measurement window.
type window struct {
	wall      time.Duration
	allocated uint64
	lat       []time.Duration
	attempted int
	failed    int
	simNS     int64
	notes     []string
	spans     []span
	digest    string
	counters  map[string]float64
	gc        gcStats
}

// measure runs w for d of host time, and at least until its digest
// prefix is complete.
func measure(w workload, r *runner, d time.Duration) window {
	gc0 := readGC()
	a0 := heapAllocBytes()
	start := time.Now()
	for ops := 0; ops < w.prefixOps() || time.Since(start) < d; {
		ops += w.step(r)
	}
	win := window{wall: time.Since(start), allocated: heapAllocBytes() - a0}
	win.gc = readGC().minus(gc0)
	r.mu.Lock()
	defer r.mu.Unlock()
	win.lat, win.attempted, win.failed = r.lat, r.attempted, r.failed
	win.simNS, win.notes = r.simNS, r.notes
	if r.tr != nil {
		win.spans = r.tr.spans
	}
	win.digest, win.counters = w.digest(), w.counters()
	return win
}

func (w window) opsPerSec() float64 {
	return float64(w.attempted-w.failed) / w.wall.Seconds()
}

// tail returns the highest percentile with at least ten samples beyond
// it, and its value: with n sorted samples, the one at rank n-11.
func tail(sorted []time.Duration) (pct float64, v time.Duration) {
	n := len(sorted)
	if n < 11 {
		return 100, sorted[n-1]
	}
	k := n - 11
	return 100 * float64(k+1) / float64(n), sorted[k]
}

func sortedDurations(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		var kb int64
		if n, _ := fmt.Sscanf(string(line), "VmHWM: %d kB", &kb); n == 1 {
			return float64(kb) / 1024
		}
	}
	return 0
}
