package obs

import (
	"fmt"
	"strings"
	"time"

	"vmsh/internal/vclock"
)

// Sample is one telemetry snapshot: the registry's scalar view frozen
// at a virtual instant.
type Sample struct {
	VTime  time.Duration
	Values map[string]int64
}

// Telemetry periodically samples a Registry on virtual-time interval
// boundaries into a fixed-capacity ring buffer, turning the registry's
// final-value counters into time series over vtime. Sampling is driven
// by the clock's own Observe hook, so it fires deterministically: the
// first Advance landing at or past each interval boundary takes one
// snapshot, regardless of wall-clock scheduling or worker count.
//
// Telemetry only reads simulation state — it never advances the clock
// or touches the registry's values — so enabling it cannot change any
// simulated result or determinism digest.
type Telemetry struct {
	clock    *vclock.Clock
	reg      *Registry
	interval time.Duration

	next      time.Duration
	ring      []Sample
	head      int // index of oldest sample when full
	full      bool
	taken     int64 // total samples ever taken (>= len when ring wrapped)
	unobserve func()
}

// NewTelemetry starts sampling reg every interval of clock's virtual
// time, keeping the most recent capacity samples. interval and
// capacity must be positive.
func NewTelemetry(clock *vclock.Clock, reg *Registry, interval time.Duration, capacity int) *Telemetry {
	if interval <= 0 {
		panic("obs: telemetry interval must be positive")
	}
	if capacity <= 0 {
		panic("obs: telemetry capacity must be positive")
	}
	tm := &Telemetry{
		clock:    clock,
		reg:      reg,
		interval: interval,
		ring:     make([]Sample, 0, capacity),
	}
	now := clock.Now()
	tm.next = now - now%interval + interval
	tm.unobserve = clock.Observe(func(time.Duration) {
		tm.tick(clock.Now())
	})
	return tm
}

// tick takes a sample when the clock crossed the next boundary. One
// sample per crossing: a single large Advance spanning many boundaries
// still snapshots once (the intermediate instants never existed).
func (tm *Telemetry) tick(now time.Duration) {
	if now < tm.next {
		return
	}
	tm.next = now - now%tm.interval + tm.interval
	s := Sample{VTime: now, Values: tm.reg.Snapshot()}
	if len(tm.ring) < cap(tm.ring) {
		tm.ring = append(tm.ring, s)
	} else {
		tm.ring[tm.head] = s
		tm.head = (tm.head + 1) % cap(tm.ring)
		tm.full = true
	}
	tm.taken++
}

// Stop detaches the clock observer; recorded samples survive.
func (tm *Telemetry) Stop() {
	if tm == nil {
		return
	}
	if tm.unobserve != nil {
		tm.unobserve()
		tm.unobserve = nil
	}
}

// Interval returns the sampling period.
func (tm *Telemetry) Interval() time.Duration { return tm.interval }

// Taken returns how many samples were ever taken (ring overwrites
// included).
func (tm *Telemetry) Taken() int64 {
	if tm == nil {
		return 0
	}
	return tm.taken
}

// Samples returns the retained samples oldest-first.
func (tm *Telemetry) Samples() []Sample {
	if tm == nil {
		return nil
	}
	out := make([]Sample, 0, len(tm.ring))
	if tm.full {
		out = append(out, tm.ring[tm.head:]...)
		out = append(out, tm.ring[:tm.head]...)
	} else {
		out = append(out, tm.ring...)
	}
	return out
}

// Series extracts one metric's time series from the retained samples:
// parallel vtime/value slices oldest-first. Samples missing the key
// contribute a zero (the counter did not exist yet).
func (tm *Telemetry) Series(key string) ([]time.Duration, []int64) {
	samples := tm.Samples()
	ts := make([]time.Duration, len(samples))
	vs := make([]int64, len(samples))
	for i, s := range samples {
		ts[i] = s.VTime
		vs[i] = s.Values[key]
	}
	return ts, vs
}

// Keys returns the union of metric keys across retained samples,
// sorted.
func (tm *Telemetry) Keys() []string {
	set := make(map[string]struct{})
	for _, s := range tm.Samples() {
		for k := range s.Values {
			set[k] = struct{}{}
		}
	}
	return sortedKeys(set)
}

// WriteText renders the retained series deterministically: one line
// per sample per sorted key. Intended for examples and debugging, not
// machine parsing (use Samples/Series for that).
func (tm *Telemetry) WriteText(sb *strings.Builder, keys ...string) {
	samples := tm.Samples()
	if len(keys) == 0 {
		keys = tm.Keys()
	}
	for _, s := range samples {
		for _, k := range keys {
			fmt.Fprintf(sb, "%12s %s=%d\n", s.VTime, k, s.Values[k])
		}
	}
}
