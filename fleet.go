package vmsh

import (
	"io"
	"time"

	"vmsh/internal/engine"
	"vmsh/internal/obs"
)

// Fleet-scale simulation re-exports (see internal/engine for the
// execution model).
type (
	// FleetStats aggregates one fleet run: real events executed,
	// cross-shard messages merged, wall-clock time and virtual-time
	// extremes. EventsPerSec is the E9 headline number.
	FleetStats = engine.Stats
	// FleetRecord is one entry of a fleet's merged timeline.
	FleetRecord = engine.Record
	// FleetBridge trunks two shard-local switches through the
	// deterministic merge.
	FleetBridge = engine.Bridge
	// Shard is one deterministic slice of a Fleet; events scheduled on
	// it run against its private Lab.
	Shard = engine.Shard
	// FleetTrace is the deterministic merged fleet trace — every
	// shard's tracer events in (emission vtime, shard, seq) order, with
	// Perfetto export, flow-event validation and vtime profiling.
	FleetTrace = obs.MergedTrace
	// FleetWatchdog configures the engine's barrier-time health
	// monitors (stalled shards, queue-depth anomalies). The zero value
	// disables everything.
	FleetWatchdog = engine.Watchdog
	// Telemetry is a per-shard streaming sampler: vclock-periodic
	// registry snapshots in a ring buffer.
	Telemetry = obs.Telemetry
	// TelemetrySample is one telemetry snapshot.
	TelemetrySample = obs.Sample
	// Profile is a virtual-time profile folded from trace spans
	// (folded-stacks and top-N export).
	Profile = obs.Profile
)

// SetWorkers sets how many OS workers fleets spawned from this lab
// (NewFleet) use to execute shards concurrently. Worker count is pure
// mechanism: any value produces bit-identical virtual-time results,
// metrics, and replay logs — it only changes wall-clock time. n < 1
// falls back to 1.
func (l *Lab) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	l.workers = n
}

// Workers returns the worker count NewFleet will use (default 1).
func (l *Lab) Workers() int {
	if l.workers < 1 {
		return 1
	}
	return l.workers
}

// Fleet is a sharded parallel simulation: `shards` independent Labs,
// each with its own virtual clock, process table, disk, tracer and
// metrics, executed concurrently by a worker pool and merged
// deterministically at (vtime, shard, seq) order. Schedule work with
// Schedule, couple shards with Bridge or cross-shard posts on the
// underlying engine, then Run.
type Fleet struct {
	eng  *engine.Engine
	labs []*Lab
}

// NewFleet creates a fleet of n shard Labs sharing this lab's cost
// model (read-only) and worker count (SetWorkers). The spawning lab's
// own host is not part of the fleet; it remains usable independently.
func (l *Lab) NewFleet(n int) *Fleet {
	eng := engine.NewWithCosts(n, l.Workers(), l.Host.Costs)
	f := &Fleet{eng: eng, labs: make([]*Lab, n)}
	for i := range f.labs {
		f.labs[i] = &Lab{Host: eng.Shard(i).Host()}
	}
	return f
}

// Lab returns shard i's private Lab. Use it only from events scheduled
// on shard i — touching it from another shard's events (or from
// outside a run) forfeits determinism.
func (f *Fleet) Lab(i int) *Lab { return f.labs[i] }

// Shards returns the number of shards.
func (f *Fleet) Shards() int { return f.eng.Shards() }

// SetWorkers resizes the worker pool for subsequent Runs.
func (f *Fleet) SetWorkers(n int) { f.eng.SetWorkers(n) }

// Schedule queues fn on shard i at virtual time at (relative to the
// fleet epoch; events scheduled behind the shard's clock fire
// immediately at the clock's current time). fn receives the shard's
// private Lab. Events on one shard fire in (at, scheduling order);
// name labels the event in the merged Timeline.
func (f *Fleet) Schedule(i int, at time.Duration, name string, fn func(*Lab) error) {
	lab := f.labs[i]
	f.eng.At(i, at, name, func(*engine.Shard) error { return fn(lab) })
}

// Bridge trunks switches on shards a and b (each created with the
// respective shard Lab's NewSwitch) through the deterministic merge,
// so guests behind different shards exchange frames in an order that
// is a pure function of virtual time. See engine.NewBridge for the
// MAC-staggering caveat.
func (f *Fleet) Bridge(a int, aSw *Switch, b int, bSw *Switch, link LinkParams) *FleetBridge {
	return engine.NewBridge(f.eng.Shard(a), aSw, f.eng.Shard(b), bSw, link)
}

// Run executes every scheduled event to quiescence and returns the
// run's statistics. Repeated Runs form phases: later phases see the
// clocks and hosts exactly where earlier phases left them, and stats
// accumulate. Virtual-time results are bit-identical for any worker
// count.
func (f *Fleet) Run() (*FleetStats, error) { return f.eng.Run() }

// VTimes returns each shard's final virtual time, indexed by shard.
func (f *Fleet) VTimes() []time.Duration { return f.eng.VTimes() }

// Metrics merges every shard's registry (shard order) into a fresh
// aggregate; its Text() is byte-stable across worker counts.
func (f *Fleet) Metrics() *obs.Registry { return f.eng.MergedMetrics() }

// Timeline returns all shards' event records merged in deterministic
// (fired vtime, shard) order, each shard's records in execution order.
func (f *Fleet) Timeline() []FleetRecord { return f.eng.Timeline() }

// Engine exposes the underlying engine for cross-shard posts, barriers
// (Engine.BarrierAt) and per-shard access beyond the Lab facade.
func (f *Fleet) Engine() *engine.Engine { return f.eng }

// EnableTrace turns on every shard's tracer. Tracing never advances
// any virtual clock, so traced and untraced fleets produce identical
// results and determinism digests. Call before Run.
func (f *Fleet) EnableTrace() { f.eng.EnableTrace() }

// Trace snapshots every shard tracer into the merged fleet trace:
// events ordered by (emission vtime, shard, per-shard seq). The bytes
// its WriteChrome produces are identical at any worker count.
func (f *Fleet) Trace() *FleetTrace { return f.eng.Trace() }

// WriteChrome writes the merged fleet trace as Chrome trace-event JSON
// (one process per shard) loadable in Perfetto.
func (f *Fleet) WriteChrome(w io.Writer) error { return f.eng.Trace().WriteChrome(w) }

// Profile folds every shard's span log into one fleet-wide vtime
// profile (stacks rooted at "shard<N>"). Requires EnableTrace.
func (f *Fleet) Profile() *Profile { return f.eng.Profile() }

// EnableTelemetry starts per-shard streaming telemetry: each shard's
// registry is snapshotted every interval of that shard's virtual time
// into a ring of `capacity` samples. Read-only — results and digests
// are unchanged. Call before Run.
func (f *Fleet) EnableTelemetry(interval time.Duration, capacity int) {
	f.eng.EnableTelemetry(interval, capacity)
}

// Telemetry returns shard i's sampler (nil until EnableTelemetry).
func (f *Fleet) Telemetry(i int) *Telemetry { return f.eng.Telemetry(i) }

// SetWatchdog installs the barrier watchdog (zero value removes it).
// Checks run on deterministic state only, so firings are identical at
// any worker count; each firing emits a "watchdog" trace event and an
// engine.watchdog.* counter on the affected shard.
func (f *Fleet) SetWatchdog(w FleetWatchdog) { f.eng.SetWatchdog(w) }
