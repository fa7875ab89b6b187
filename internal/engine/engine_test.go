package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"vmsh/internal/netsim"
)

// scheduleSyntheticFleet loads every shard with a seeded pseudo-random
// workload: local events that advance the clock and bump counters, a
// ring of cross-shard posts, and a self-post behind the barrier. The
// schedule depends only on (seed, shard id), never on execution.
func scheduleSyntheticFleet(e *Engine, seed int64) {
	n := e.Shards()
	for i := 0; i < n; i++ {
		i := i
		rnd := rand.New(rand.NewSource(seed + int64(i)))
		events := 3 + rnd.Intn(5)
		for k := 0; k < events; k++ {
			k := k
			at := time.Duration(rnd.Intn(2000)) * time.Microsecond
			charge := time.Duration(1+rnd.Intn(900)) * time.Nanosecond
			e.At(i, at, fmt.Sprintf("work:%d.%d", i, k), func(s *Shard) error {
				s.Host().Clock.Advance(charge)
				s.Host().Metrics.Counter("synthetic.events").Inc()
				s.Host().Metrics.Histogram("synthetic.charge").Observe(charge)
				if k == 0 {
					// One hop around the ring per shard.
					s.Post((s.ID()+1)%n, s.Now(), "ring", func(t *Shard) error {
						t.Host().Metrics.Counter("synthetic.ring").Inc()
						t.Host().Clock.Advance(77 * time.Nanosecond)
						return nil
					})
				}
				return nil
			})
		}
	}
	e.BarrierAt(0, 0, "barrier", func(s *Shard) error {
		s.Host().Metrics.Counter("synthetic.barrier").Inc()
		return nil
	})
}

// runSynthetic executes the synthetic fleet and returns everything a
// worker-invariance check compares.
func runSynthetic(t *testing.T, shards, workers int, seed int64) (*Stats, []time.Duration, string, []Record) {
	t.Helper()
	e := New(shards, workers)
	scheduleSyntheticFleet(e, seed)
	st, err := e.Run()
	if err != nil {
		t.Fatalf("run (workers=%d): %v", workers, err)
	}
	return st, e.VTimes(), e.MergedMetrics().Text(), e.Timeline()
}

func TestWorkerCountInvariance(t *testing.T) {
	const shards, seed = 23, 42
	refStats, refVT, refMetrics, refTL := runSynthetic(t, shards, 1, seed)
	if refStats.Events == 0 || refStats.Messages == 0 {
		t.Fatalf("synthetic fleet ran nothing: %+v", refStats)
	}
	for _, workers := range []int{2, 4, 16, 64} {
		st, vt, metrics, tl := runSynthetic(t, shards, workers, seed)
		if st.Events != refStats.Events || st.Messages != refStats.Messages {
			t.Errorf("workers=%d: events/messages %d/%d, want %d/%d",
				workers, st.Events, st.Messages, refStats.Events, refStats.Messages)
		}
		if !reflect.DeepEqual(vt, refVT) {
			t.Errorf("workers=%d: per-shard vtimes diverged", workers)
		}
		if metrics != refMetrics {
			t.Errorf("workers=%d: merged metrics text diverged:\n%s\nvs\n%s", workers, metrics, refMetrics)
		}
		if !reflect.DeepEqual(tl, refTL) {
			t.Errorf("workers=%d: merged timeline diverged", workers)
		}
	}
}

func TestEventOrderAndVirtualWait(t *testing.T) {
	e := New(1, 1)
	var order []string
	// Scheduled out of order; must fire by (at, seq).
	e.At(0, 300*time.Microsecond, "c", func(s *Shard) error {
		order = append(order, "c")
		return nil
	})
	e.At(0, 100*time.Microsecond, "a", func(s *Shard) error {
		order = append(order, "a")
		// The shard clock waited to the slot, then charges past the
		// next event's slot: "b" must fire late but still second.
		if s.Now() != 100*time.Microsecond {
			t.Errorf("event a fired at %v, want 100us", s.Now())
		}
		s.Host().Clock.Advance(150 * time.Microsecond)
		return nil
	})
	e.At(0, 200*time.Microsecond, "b", func(s *Shard) error {
		order = append(order, "b")
		if s.Now() != 250*time.Microsecond {
			t.Errorf("event b fired at %v, want 250us (late)", s.Now())
		}
		return nil
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(order); got != "[a b c]" {
		t.Fatalf("execution order %v", order)
	}
	tl := e.Timeline()
	if len(tl) != 3 || tl[1].At != 200*time.Microsecond || tl[1].Fired != 250*time.Microsecond {
		t.Fatalf("timeline %+v", tl)
	}
}

// TestTimelineExecutionOrderWithinShard: within one shard the Timeline
// keeps execution order, which is not seq order. On shard 1 a busy
// event runs the clock to 200us past two pending events; the one
// scheduled later (higher seq) has the earlier at, so it fires first,
// and both fire at 200us. Shard 0's event at 200us sorts between them
// and the busy event by (fired vtime, shard).
func TestTimelineExecutionOrderWithinShard(t *testing.T) {
	e := New(2, 2)
	noop := func(*Shard) error { return nil }
	e.At(0, 200*time.Microsecond, "s0@200", noop)
	e.At(0, 300*time.Microsecond, "s0@300", noop)
	e.At(1, 0, "s1-busy", func(s *Shard) error {
		s.Host().Clock.Advance(200 * time.Microsecond)
		return nil
	})
	e.At(1, 150*time.Microsecond, "s1-scheduled-first", noop)
	e.At(1, 100*time.Microsecond, "s1-scheduled-second", noop)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range e.Timeline() {
		got = append(got, fmt.Sprintf("%s@%v/s%d#%d", r.Name, r.Fired, r.Shard, r.Seq))
	}
	want := []string{
		"s1-busy@0s/s1#0",
		"s0@200@200µs/s0#0",
		"s1-scheduled-second@200µs/s1#2",
		"s1-scheduled-first@200µs/s1#1",
		"s0@300@300µs/s0#1",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("timeline\n got %q\nwant %q", got, want)
	}
}

func TestTieBreakBySeq(t *testing.T) {
	e := New(1, 1)
	var order []string
	for _, name := range []string{"first", "second", "third"} {
		name := name
		e.At(0, time.Millisecond, name, func(s *Shard) error {
			order = append(order, name)
			return nil
		})
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(order); got != "[first second third]" {
		t.Fatalf("same-vtime ties not broken by seq: %v", order)
	}
}

func TestShardErrorStopsOnlyThatShard(t *testing.T) {
	e := New(2, 2)
	ran := make([]int, 2)
	boom := errors.New("boom")
	e.At(0, 0, "fail", func(s *Shard) error { return boom })
	e.At(0, time.Millisecond, "skipped", func(s *Shard) error {
		ran[0]++
		return nil
	})
	e.At(1, time.Millisecond, "healthy", func(s *Shard) error {
		ran[1]++
		return nil
	})
	_, err := e.Run()
	if !errors.Is(err, boom) {
		t.Fatalf("run error %v, want wrapped boom", err)
	}
	if ran[0] != 0 {
		t.Fatal("event after shard failure still ran")
	}
	if ran[1] != 1 {
		t.Fatal("healthy shard was disturbed by a foreign failure")
	}
}

// bridgedPair builds two shards with one switch each, a deterministic
// frame source on shard 0 and a sink port on shard 1, joined by a
// Bridge.
func runBridged(t *testing.T, workers int) []string {
	t.Helper()
	e := New(2, workers)
	a, b := e.Shard(0), e.Shard(1)
	swA := netsim.New(a.Host().Clock, a.Host().Costs)
	swB := netsim.New(b.Host().Clock, b.Host().Costs)

	// Stagger port creation so MACs differ across the bridge: guest
	// port first on A (MAC :01), uplink first on B (so B's sink gets
	// MAC :02).
	src := swA.NewPort("src", netsim.LinkParams{})
	br := NewBridge(a, swA, b, swB, netsim.LinkParams{})
	sink := swB.NewPort("sink", netsim.LinkParams{})

	var got []string
	sink.Deliver = func(frame []byte) {
		_, srcMAC, _, payload, err := netsim.ParseFrame(frame)
		if err != nil {
			t.Errorf("sink got runt frame: %v", err)
			return
		}
		got = append(got, fmt.Sprintf("%s:%s@%v", srcMAC, payload, b.Now()))
	}
	_ = br

	for i := 0; i < 4; i++ {
		i := i
		e.At(0, time.Duration(i)*100*time.Microsecond, "tx", func(s *Shard) error {
			frame := netsim.BuildFrame(netsim.Broadcast, src.MAC(), netsim.EtherTypeVMSH,
				[]byte(fmt.Sprintf("ping-%d", i)))
			swA.Send(src, frame)
			return nil
		})
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("sink saw %d frames, want 4: %v", len(got), got)
	}
	return got
}

func TestBridgeForwardsDeterministically(t *testing.T) {
	ref := runBridged(t, 1)
	for _, workers := range []int{2, 8} {
		if got := runBridged(t, workers); !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d: bridged delivery diverged:\n%v\nvs\n%v", workers, got, ref)
		}
	}
}

// TestTracerZeroAllocDisabledUnderEngine pins the zero-alloc-when-
// disabled tracer contract in the engine's execution context: emitting
// on a shard host's (disabled) tracer from inside a running event must
// not allocate, so a 10k-VM fleet pays nothing for observability it
// did not turn on.
func TestTracerZeroAllocDisabledUnderEngine(t *testing.T) {
	e := New(2, 2)
	allocs := make([]float64, 2)
	for i := 0; i < 2; i++ {
		i := i
		e.At(i, 0, "allocs", func(s *Shard) error {
			track := s.Host().Trace.Track("engine:test")
			allocs[i] = testing.AllocsPerRun(100, func() {
				sp := track.Span("cat", "op")
				track.Event1("cat", "evt", "k", 1)
				sp.End1("bytes", 4096)
			})
			return nil
		})
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, a := range allocs {
		if a != 0 {
			t.Errorf("shard %d: disabled tracer emitted %v allocs/op under the engine, want 0", i, a)
		}
	}
}

func TestRepeatedRunPhases(t *testing.T) {
	e := New(3, 3)
	var phase1 [3]time.Duration
	for i := 0; i < 3; i++ {
		i := i
		e.At(i, time.Duration(i+1)*time.Millisecond, "p1", func(s *Shard) error {
			s.Host().Clock.Advance(time.Microsecond)
			return nil
		})
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	copy(phase1[:], e.VTimes())
	// Phase 2 schedules against the clocks phase 1 left behind.
	for i := 0; i < 3; i++ {
		e.At(i, 0, "p2", func(s *Shard) error {
			s.Host().Clock.Advance(time.Microsecond)
			return nil
		})
	}
	st, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, vt := range e.VTimes() {
		if want := phase1[i] + time.Microsecond; vt != want {
			t.Errorf("shard %d at %v after phase 2, want %v", i, vt, want)
		}
	}
	if st.Events != 6 {
		t.Errorf("cumulative events %d, want 6", st.Events)
	}
}
