package faults

import (
	"errors"
	"hash/fnv"
	"testing"
	"time"

	"vmsh/internal/obs"
	"vmsh/internal/vclock"
)

func newTestInjector(p *Plan) (*Injector, *vclock.Clock) {
	clock := vclock.New()
	return NewInjector(p, clock, obs.Track{}), clock
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if err := in.Check(OpPtraceAttach); err != nil {
		t.Fatalf("nil injector faulted: %v", err)
	}
	in.SetStage("x")
	if in.Stage() != "" || in.Injected() != 0 || in.Stats() != nil {
		t.Fatal("nil injector leaked state")
	}
}

func TestNilInjectorZeroCost(t *testing.T) {
	// A host's plane without plan or tap is what every unfaulted,
	// unrecorded run crosses: it must cost what a nil plane does.
	planes := map[string]*Injector{
		"nil":      nil,
		"planless": NewInjector(nil, vclock.New(), obs.Track{}),
	}
	for name, in := range planes {
		allocs := testing.AllocsPerRun(1000, func() {
			_ = in.Check(OpProcVMRead)
			in.Observe(OpProcVMRead, NewDigest(), NewDigest(), nil)
		})
		if allocs != 0 {
			t.Errorf("%s plane: Check+Observe allocates (%v allocs/op)", name, allocs)
		}
	}
}

func TestEmptyPlanNoClockNoRNG(t *testing.T) {
	in, clock := newTestInjector(NewPlan(42))
	rngBefore := in.rng
	for i := 0; i < 100; i++ {
		if err := in.Check(OpProcVMRead); err != nil {
			t.Fatal(err)
		}
	}
	if clock.Now() != 0 {
		t.Fatalf("empty plan advanced the clock to %v", clock.Now())
	}
	if in.rng != rngBefore {
		t.Fatal("empty plan consumed randomness")
	}
}

func TestNthFault(t *testing.T) {
	in, _ := newTestInjector(NewPlan(1, Rule{Op: "procvm", Nth: 3}))
	for i := 1; i <= 5; i++ {
		err := in.Check(OpProcVMRead)
		if i == 3 {
			if err == nil {
				t.Fatal("3rd crossing did not fault")
			}
			var f *Fault
			if !errors.As(err, &f) || f.Seq != 3 || f.Op != OpProcVMRead {
				t.Fatalf("fault metadata wrong: %v", err)
			}
			if !errors.Is(err, EFAULT) {
				t.Fatalf("default sentinel not EFAULT: %v", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("crossing %d faulted: %v", i, err)
		}
	}
}

func TestPersistentFault(t *testing.T) {
	in, _ := newTestInjector(NewPlan(1, Rule{Op: "vq:blk", Nth: 2, Persistent: true, Err: EIO}))
	if in.Check(OpVQBlk) != nil {
		t.Fatal("first crossing faulted")
	}
	for i := 0; i < 3; i++ {
		if err := in.Check(OpVQBlk); !errors.Is(err, EIO) {
			t.Fatalf("persistent fault stopped firing: %v", err)
		}
	}
}

func TestTransientDefaultsToEINTR(t *testing.T) {
	in, _ := newTestInjector(NewPlan(1, Rule{Op: "ptrace", Nth: 1, Transient: true}))
	err := in.Check(OpPtraceAttach)
	if !IsTransient(err) || !errors.Is(err, EINTR) {
		t.Fatalf("transient fault: %v", err)
	}
	if IsTransient(errors.New("organic")) {
		t.Fatal("organic error classified transient")
	}
}

func TestOpPrefixBoundary(t *testing.T) {
	in, _ := newTestInjector(NewPlan(1, Rule{Op: "vq:b", Nth: 1}))
	if err := in.Check(OpVQBlk); err != nil {
		t.Fatalf("non-boundary prefix matched: %v", err)
	}
	in2, _ := newTestInjector(NewPlan(1, Rule{Op: "vq", Nth: 1}))
	if err := in2.Check(OpVQBlk); err == nil {
		t.Fatal("boundary prefix did not match")
	}
}

func TestStageFilter(t *testing.T) {
	in, _ := newTestInjector(NewPlan(1, Rule{Op: "", Stage: "kernel_scan", Nth: 1}))
	in.SetStage("memslot_probe")
	if err := in.Check(OpProcVMRead); err != nil {
		t.Fatalf("wrong-stage crossing faulted: %v", err)
	}
	in.SetStage("kernel_scan")
	if err := in.Check(OpProcVMRead); err == nil {
		t.Fatal("stage-matched crossing did not fault")
	}
	var f *Fault
	errors.As(in.Check(OpProcVMRead), &f) // rule is one-shot; nil is fine
}

func TestLatencySpike(t *testing.T) {
	in, clock := newTestInjector(NewPlan(1, Rule{Op: "procvm", Nth: 2, Latency: 5 * time.Millisecond}))
	if err := in.Check(OpProcVMRead); err != nil {
		t.Fatal(err)
	}
	if err := in.Check(OpProcVMRead); err != nil {
		t.Fatalf("latency-only rule failed the crossing: %v", err)
	}
	if clock.Now() != 5*time.Millisecond {
		t.Fatalf("latency not charged: %v", clock.Now())
	}
	if in.Injected() != 1 {
		t.Fatalf("injected count %d", in.Injected())
	}
}

func TestProbDeterministicAcrossSeeds(t *testing.T) {
	run := func(seed uint64) []int {
		in, _ := newTestInjector(NewPlan(seed, Rule{Op: "net:link", Prob: 0.3}))
		var hits []int
		for i := 0; i < 200; i++ {
			if in.Check(OpNetLink) != nil {
				hits = append(hits, i)
			}
		}
		return hits
	}
	a, b := run(7), run(7)
	if len(a) == 0 || len(a) == 200 {
		t.Fatalf("prob rule degenerate: %d hits", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different fault schedules")
		}
	}
	c := run(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules (suspicious)")
	}
}

func TestRecordingStats(t *testing.T) {
	in, _ := newTestInjector(NewPlan(1))
	in.SetRecording(true)
	in.SetStage("a")
	in.Check(OpProcVMRead)
	in.Check(OpProcVMRead)
	in.SetStage("b")
	in.Check(OpProcVMRead)
	in.Check(OpPtraceAttach)
	stats := in.Stats()
	if len(stats) != 3 {
		t.Fatalf("%d stat rows, want 3: %+v", len(stats), stats)
	}
	if stats[0].Op != string(OpProcVMRead) || stats[0].Stage != "a" ||
		stats[0].Count != 2 || stats[0].First != 1 || stats[0].Last != 2 {
		t.Fatalf("row 0: %+v", stats[0])
	}
	if stats[1].Stage != "b" || stats[1].First != 3 {
		t.Fatalf("row 1: %+v", stats[1])
	}
}

func TestParseRule(t *testing.T) {
	r, err := ParseRule("ptrace:nth=3")
	if err != nil || r.Op != "ptrace" || r.Nth != 3 {
		t.Fatalf("%+v err=%v", r, err)
	}
	r, err = ParseRule("ptrace:inject:ioctl:nth=2,transient")
	if err != nil || r.Op != "ptrace:inject:ioctl" || r.Nth != 2 || !r.Transient {
		t.Fatalf("%+v err=%v", r, err)
	}
	r, err = ParseRule("vq:blk:prob=0.01,err=eio,persistent")
	if err != nil || r.Op != "vq:blk" || r.Prob != 0.01 || !errors.Is(r.Err, EIO) || !r.Persistent {
		t.Fatalf("%+v err=%v", r, err)
	}
	r, err = ParseRule("procvm:lat=2ms")
	if err != nil || r.Latency != 2*time.Millisecond || r.Nth != 1 {
		t.Fatalf("%+v err=%v", r, err)
	}
	r, err = ParseRule("procvm")
	if err != nil || r.Nth != 1 {
		t.Fatalf("bare op should default nth=1: %+v err=%v", r, err)
	}
	if _, err = ParseRule("ptrace:nth=x"); err == nil {
		t.Fatal("bad nth accepted")
	}
	if _, err = ParseRule("ptrace:bogus=1"); err == nil {
		t.Fatal("unknown key accepted")
	}
	if _, err = ParseRule("ptrace:err=ewhat"); err == nil {
		t.Fatal("unknown errno accepted")
	}
	rules, err := ParseRules("ptrace:nth=1; vq:blk:nth=2 ;")
	if err != nil || len(rules) != 2 {
		t.Fatalf("rules=%v err=%v", rules, err)
	}
}

func TestPausedInjectorIsInvisible(t *testing.T) {
	in, _ := newTestInjector(NewPlan(1, Rule{Op: "procvm", Nth: 2}))
	in.SetRecording(true)
	if err := in.Check(OpProcVMRead); err != nil {
		t.Fatal(err)
	}
	in.SetPaused(true)
	if !in.Paused() {
		t.Fatal("Paused() false after SetPaused(true)")
	}
	// The crossing that would have been the faulting 2nd is a no-op:
	// no fault, no sequence number, no recording.
	for i := 0; i < 10; i++ {
		if err := in.Check(OpProcVMRead); err != nil {
			t.Fatalf("paused injector faulted: %v", err)
		}
	}
	if got := in.Stats()[0].Count; got != 1 {
		t.Fatalf("paused crossings recorded: count %d", got)
	}
	in.SetPaused(false)
	if err := in.Check(OpProcVMRead); err == nil {
		t.Fatal("2nd live crossing did not fault after unpause")
	}
}

// TestDigestZeros pins Zeros(n) to FNV-64a over n zero bytes, checked
// against the standard library, including after non-zero bytes.
func TestDigestZeros(t *testing.T) {
	for _, n := range []uint64{0, 1, 2, 7, 4095, 4096, 4097, 3 * 4096, 100000} {
		h := fnv.New64a()
		h.Write([]byte("prefix"))
		h.Write(make([]byte, n))
		if got, want := NewDigest().Str("prefix").Zeros(n), Digest(h.Sum64()); got != want {
			t.Errorf("Zeros(%d) = %016x, want %016x", n, got, want)
		}
	}
}
