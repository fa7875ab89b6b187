// Package engine is the fleet-scale parallel simulation engine: a
// sharded discrete-event executor that runs thousands of VMs
// concurrently across a worker pool while staying same-seed,
// bit-identical deterministic at any worker count.
//
// The unit of parallelism is the Shard. Each shard owns a complete
// per-shard hostsim.Host view — its own vclock.Clock, process table,
// attach-sequence counter, disk, tracer and metrics registry — so a
// VM's entire simulated life (launch, attach, device traffic, detach)
// touches no state outside its shard. Shards share exactly one thing,
// the read-only cost model, which hostsim.NewShardHost validates once.
//
// Execution proceeds in windows separated by barriers. Within a
// window, every shard drains its local event heap in (vtime, seq)
// order, sequentially, on whichever worker picked it up; because
// shards are disjoint, the assignment of shards to workers cannot
// change any shard's event order, clock, metrics or trace. Cross-shard
// interactions — inter-switch frame forwarding over a Bridge,
// cross-VM barriers, any Post — never touch the peer directly: they
// are buffered in the sending shard's outbox and merged at the next
// barrier, sorted by (vtime, sending shard, sending seq). The merge
// key is a pure function of the simulation content, never of goroutine
// scheduling, so delivery order (and therefore every downstream
// timestamp) is identical at workers=1 and workers=N.
//
// The global Timeline orders the per-shard execution records by
// (fired vtime, shard) and, within a shard, by execution order, giving
// one deterministic fleet-wide event stream for reporting and replay
// cross-checks. Timing fidelity note: events fire at
// max(scheduled vtime, shard clock), and cross-shard messages are
// delivered at the barrier following their send — the conservative
// window relaxation of Mhatre & Chandran (arXiv:2206.00258); within a
// shard, timing is exact.
package engine

import (
	"container/heap"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vmsh/internal/hostsim"
	"vmsh/internal/obs"
	"vmsh/internal/vclock"
)

// EventFn is one scheduled unit of simulation work, run with the
// owning shard's host. A returned error stops that shard: its
// remaining events are skipped (deterministically) and Run reports
// the failure.
type EventFn func(*Shard) error

// event is one pending heap entry.
type event struct {
	at   time.Duration
	seq  uint64
	name string
	fn   EventFn
}

// eventHeap orders pending events by (at, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
func (h *eventHeap) push(e *event) { heap.Push(h, e) }
func (h *eventHeap) pop() *event   { return heap.Pop(h).(*event) }

// message is one buffered cross-shard send, merged at the barrier.
type message struct {
	at      time.Duration
	from    int
	fromSeq uint64
	to      int
	name    string
	fn      EventFn
}

// Record is one executed event in a shard's log. At is the scheduled
// virtual time, Fired when the body actually started (>= At: the shard
// clock never rewinds), Done when it finished.
type Record struct {
	At    time.Duration
	Fired time.Duration
	Done  time.Duration
	Shard int
	Seq   uint64
	Name  string
}

// Shard is one isolated slice of the fleet: a per-shard Host plus a
// local event heap. All methods except the documented setup calls must
// only be used from event functions running on this shard.
type Shard struct {
	id   int
	eng  *Engine
	host *hostsim.Host

	heap    eventHeap
	seq     uint64
	outbox  []message
	records []Record
	events  int64
	err     error

	telemetry *obs.Telemetry
}

// ID returns the shard's index in the engine (0..Shards-1).
func (s *Shard) ID() int { return s.id }

// Host returns the shard's private host view.
func (s *Shard) Host() *hostsim.Host { return s.host }

// Now reads the shard's virtual clock.
func (s *Shard) Now() time.Duration { return s.host.Clock.Now() }

// At schedules fn on this shard at virtual time at (clamped forward to
// the shard clock if already past). Safe during setup and from this
// shard's own events; never call it on a foreign shard from an event —
// that is what Post is for.
func (s *Shard) At(at time.Duration, name string, fn EventFn) {
	s.heap.push(&event{at: at, seq: s.seq, name: name, fn: fn})
	s.seq++
}

// Post buffers fn for delivery to shard `to` at virtual time at. The
// message is merged into the target's heap at the next barrier, in
// (at, sending shard, sending seq) order — the deterministic
// cross-shard interaction point. Posting to the own shard is allowed
// and still goes through the barrier.
func (s *Shard) Post(to int, at time.Duration, name string, fn EventFn) {
	if to < 0 || to >= len(s.eng.shards) {
		panic(fmt.Sprintf("engine: Post to unknown shard %d", to))
	}
	s.outbox = append(s.outbox, message{
		at: at, from: s.id, fromSeq: s.seq, to: to, name: name, fn: fn,
	})
	s.seq++
}

// drain executes the shard's pending events in (at, seq) order. After
// the first event error the shard consumes (and skips) the rest of its
// queue, keeping the outcome deterministic.
func (s *Shard) drain() {
	for s.heap.Len() > 0 {
		ev := s.heap.pop()
		if s.err != nil {
			continue
		}
		clock := s.host.Clock
		if now := clock.Now(); ev.at > now {
			clock.Advance(ev.at - now) // virtual wait until the slot
		}
		fired := clock.Now()
		err := ev.fn(s)
		s.records = append(s.records, Record{
			At: ev.at, Fired: fired, Done: clock.Now(),
			Shard: s.id, Seq: ev.seq, Name: ev.name,
		})
		s.events++
		if err != nil {
			s.err = fmt.Errorf("engine: shard %d, event %q at %v: %w", s.id, ev.name, fired, err)
		}
	}
}

// Stats summarises one Run.
type Stats struct {
	Shards   int
	Workers  int
	Events   int64         // executed events, fleet-wide
	Messages int64         // cross-shard deliveries merged at barriers
	Rounds   int           // barrier windows
	Wall     time.Duration // host wall-clock time inside Run
	MaxVTime time.Duration // slowest shard's final virtual time
	SumVTime time.Duration // total simulated virtual time across shards
}

// EventsPerSec is the fleet's wall-clock simulation throughput.
func (st *Stats) EventsPerSec() float64 {
	if st.Wall <= 0 {
		return 0
	}
	return float64(st.Events) / st.Wall.Seconds()
}

// Engine drives a fleet of shards over a worker pool.
type Engine struct {
	costs   *vclock.Costs
	shards  []*Shard
	workers int
	stats   Stats

	watchdog Watchdog
	wdTracks []obs.Track
	wdPrevVT []time.Duration
	wdStall  []int
}

// New builds an engine with n shards sharing one freshly-validated
// default cost model, run by `workers` goroutines (min 1).
func New(n, workers int) *Engine {
	return NewWithCosts(n, workers, vclock.Default())
}

// NewWithCosts is New with an explicit cost model. The model is shared
// read-only by every shard and must not be mutated afterwards.
func NewWithCosts(n, workers int, costs *vclock.Costs) *Engine {
	if n <= 0 {
		panic("engine: need at least one shard")
	}
	costs.MustValidate()
	e := &Engine{costs: costs, workers: workers}
	if e.workers < 1 {
		e.workers = 1
	}
	e.shards = make([]*Shard, n)
	for i := range e.shards {
		e.shards[i] = &Shard{id: i, eng: e, host: hostsim.NewShardHost(costs)}
		// Tag each shard's flow-id space so causal-flow arrows stay
		// unique in the merged fleet trace (40 bits of per-shard
		// sequence under a shard tag).
		e.shards[i].host.Trace.SetFlowBase(uint64(i+1) << 40)
	}
	return e
}

// Shards returns the shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// Workers returns the worker-pool size.
func (e *Engine) Workers() int { return e.workers }

// SetWorkers resizes the worker pool (min 1). Worker count never
// changes simulation results — only wall-clock speed.
func (e *Engine) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	e.workers = n
}

// Costs returns the shared read-only cost model.
func (e *Engine) Costs() *vclock.Costs { return e.costs }

// Shard returns shard i.
func (e *Engine) Shard(i int) *Shard { return e.shards[i] }

// At schedules fn on shard i at virtual time at — the setup-phase
// scheduling call (single-goroutine, before Run).
func (e *Engine) At(i int, at time.Duration, name string, fn EventFn) {
	e.shards[i].At(at, name, fn)
}

// Run executes every scheduled event to quiescence: windows of
// parallel per-shard drains separated by barriers that merge buffered
// cross-shard messages in (vtime, shard, seq) order. It returns the
// run statistics and the first per-shard failure (in shard order) if
// any shard's event returned an error. Run may be called again after
// scheduling more events; statistics accumulate.
func (e *Engine) Run() (*Stats, error) {
	start := time.Now()
	var pending []*Shard
	for {
		pending = pending[:0]
		for _, s := range e.shards {
			if s.heap.Len() > 0 {
				pending = append(pending, s)
			}
		}
		if len(pending) == 0 {
			break
		}
		e.runWindow(pending)
		e.stats.Rounds++

		// Barrier: merge every outbox deterministically. The sort key
		// (at, from, fromSeq) depends only on simulation content.
		var msgs []message
		for _, s := range e.shards {
			msgs = append(msgs, s.outbox...)
			s.outbox = s.outbox[:0]
		}
		if e.watchdog.enabled() {
			msgsTo := make([]int64, len(e.shards))
			for _, m := range msgs {
				msgsTo[m.to]++
			}
			e.watchdogBarrier(msgsTo)
		}
		if len(msgs) == 0 {
			continue // loop re-checks heaps; drained shards end the run
		}
		sort.Slice(msgs, func(i, j int) bool {
			a, b := msgs[i], msgs[j]
			if a.at != b.at {
				return a.at < b.at
			}
			if a.from != b.from {
				return a.from < b.from
			}
			return a.fromSeq < b.fromSeq
		})
		for _, m := range msgs {
			e.shards[m.to].At(m.at, m.name, m.fn)
		}
		e.stats.Messages += int64(len(msgs))
	}
	e.stats.Shards = len(e.shards)
	e.stats.Workers = e.workers
	e.stats.Wall += time.Since(start)
	e.stats.Events = 0
	e.stats.MaxVTime, e.stats.SumVTime = 0, 0
	var errs []error
	for _, s := range e.shards {
		e.stats.Events += s.events
		vt := s.host.Clock.Now()
		e.stats.SumVTime += vt
		if vt > e.stats.MaxVTime {
			e.stats.MaxVTime = vt
		}
		if s.err != nil {
			errs = append(errs, s.err)
		}
	}
	if len(errs) > 0 {
		return &e.stats, fmt.Errorf("engine: %d shard(s) failed, first: %w", len(errs), errs[0])
	}
	st := e.stats
	return &st, nil
}

// runWindow drains every pending shard, fanning out across the worker
// pool. Each shard is owned by exactly one worker for the whole
// window; the pool's work-stealing order is irrelevant to results.
func (e *Engine) runWindow(pendingShards []*Shard) {
	n := e.workers
	if n > len(pendingShards) {
		n = len(pendingShards)
	}
	if n <= 1 {
		for _, s := range pendingShards {
			s.drain()
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(pendingShards)) {
					return
				}
				pendingShards[i].drain()
			}
		}()
	}
	wg.Wait()
}

// VTimes returns every shard's final virtual time in shard order — the
// per-shard result vector the worker-invariance tests pin.
func (e *Engine) VTimes() []time.Duration {
	out := make([]time.Duration, len(e.shards))
	for i, s := range e.shards {
		out[i] = s.host.Clock.Now()
	}
	return out
}

// MergedMetrics folds every shard host's registry into one aggregate,
// in shard order — the deterministic fleet-wide metrics view. Session
// registries (per-VM device metrics) belong to the caller; fold them
// with obs.Registry.Merge the same way.
func (e *Engine) MergedMetrics() *obs.Registry {
	agg := obs.NewRegistry()
	for _, s := range e.shards {
		agg.Merge(s.host.Metrics)
	}
	return agg
}

// EnableTrace turns on every shard host's tracer. Call before Run;
// tracing never advances any clock, so traced and untraced fleets
// produce identical vtimes, metrics and determinism digests.
func (e *Engine) EnableTrace() {
	for _, s := range e.shards {
		s.host.Trace.Enable()
	}
}

// Tracers returns every shard's tracer in shard order (index ==
// shard). The slice is rebuilt per call; the tracers are live.
func (e *Engine) Tracers() []*obs.Tracer {
	out := make([]*obs.Tracer, len(e.shards))
	for i, s := range e.shards {
		out[i] = s.host.Trace
	}
	return out
}

// Trace snapshots every shard tracer into the deterministic merged
// fleet trace: events ordered by (emission vtime, shard, per-shard
// seq), byte-identical at any worker count.
func (e *Engine) Trace() *obs.MergedTrace {
	return obs.MergeShardTraces(e.Tracers())
}

// Profile folds every shard's span log into one fleet-wide vtime
// profile, stacks rooted at "shard<N>".
func (e *Engine) Profile() *obs.Profile {
	p := obs.NewProfile()
	p.AddMerged(e.Trace())
	return p
}

// EnableTelemetry starts per-shard streaming telemetry: each shard's
// registry is snapshotted into a ring buffer (capacity samples) every
// interval of that shard's virtual time. Telemetry only reads state,
// so results and digests are unchanged. Call before Run; repeated
// calls replace the previous samplers.
func (e *Engine) EnableTelemetry(interval time.Duration, capacity int) {
	for _, s := range e.shards {
		if s.telemetry != nil {
			s.telemetry.Stop()
		}
		s.telemetry = obs.NewTelemetry(s.host.Clock, s.host.Metrics, interval, capacity)
	}
}

// Telemetry returns shard i's sampler (nil until EnableTelemetry).
func (e *Engine) Telemetry(i int) *obs.Telemetry { return e.shards[i].telemetry }

// Watchdog configures the engine's barrier-time health monitors. The
// zero value disables everything; enabled checks run single-threaded
// at each barrier on deterministic state only (shard clocks, merged
// message counts), so they fire identically at any worker count. Each
// firing emits a trace event on the affected shard's "watchdog" track
// and bumps an engine.watchdog.* counter in that shard's registry.
type Watchdog struct {
	// StallWindows fires "stall" when a shard's clock has not advanced
	// for this many consecutive barrier windows while the fleet's max
	// clock kept moving. 0 disables.
	StallWindows int
	// QueueDepth fires "queue" when one barrier merges more than this
	// many messages bound for a single shard. 0 disables.
	QueueDepth int
}

func (w Watchdog) enabled() bool { return w.StallWindows > 0 || w.QueueDepth > 0 }

// SetWatchdog installs (or, with the zero value, removes) the barrier
// watchdog. Call before Run.
func (e *Engine) SetWatchdog(w Watchdog) {
	e.watchdog = w
	if w.enabled() && e.wdTracks == nil {
		e.wdTracks = make([]obs.Track, len(e.shards))
		for i, s := range e.shards {
			e.wdTracks[i] = s.host.Trace.Track("watchdog")
		}
	}
	e.wdPrevVT = nil
	e.wdStall = nil
}

// watchdogBarrier runs the health checks after one barrier merge.
// msgsTo[i] is the number of messages just delivered to shard i.
func (e *Engine) watchdogBarrier(msgsTo []int64) {
	w := e.watchdog
	if e.wdPrevVT == nil {
		e.wdPrevVT = make([]time.Duration, len(e.shards))
		e.wdStall = make([]int, len(e.shards))
		for i, s := range e.shards {
			e.wdPrevVT[i] = s.host.Clock.Now()
		}
		return
	}
	var maxAdvanced bool
	var maxPrev, maxNow time.Duration
	for i, s := range e.shards {
		if e.wdPrevVT[i] > maxPrev {
			maxPrev = e.wdPrevVT[i]
		}
		if now := s.host.Clock.Now(); now > maxNow {
			maxNow = now
		}
	}
	maxAdvanced = maxNow > maxPrev
	for i, s := range e.shards {
		now := s.host.Clock.Now()
		if w.StallWindows > 0 {
			if now == e.wdPrevVT[i] && maxAdvanced {
				e.wdStall[i]++
				if e.wdStall[i] >= w.StallWindows {
					e.wdTracks[i].Event1("watchdog", "stall", "windows", int64(e.wdStall[i]))
					s.host.Metrics.Counter("engine.watchdog.stall").Inc()
					e.wdStall[i] = 0 // re-arm
				}
			} else {
				e.wdStall[i] = 0
			}
		}
		if w.QueueDepth > 0 && msgsTo[i] > int64(w.QueueDepth) {
			e.wdTracks[i].Event1("watchdog", "queue", "depth", msgsTo[i])
			s.host.Metrics.Counter("engine.watchdog.queue").Inc()
		}
		e.wdPrevVT[i] = now
	}
}

// Timeline merges every shard's execution records into one stream
// ordered by (fired vtime, shard) and, within a shard, by execution
// order. That is not seq order: an event scheduled later with an
// earlier at can fire first at the same vtime. The records are
// concatenated in shard order and sorted stably, the rule
// obs.MergedTrace.Events applies to trace events; shard clocks never
// rewind, so each shard's records are already in fired order. The
// result is identical at any worker count.
func (e *Engine) Timeline() []Record {
	total := 0
	for _, s := range e.shards {
		total += len(s.records)
	}
	out := make([]Record, 0, total)
	for _, s := range e.shards {
		out = append(out, s.records...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Fired != out[j].Fired {
			return out[i].Fired < out[j].Fired
		}
		return out[i].Shard < out[j].Shard
	})
	return out
}
