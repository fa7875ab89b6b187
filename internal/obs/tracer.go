// Package obs is the observability layer for the simulated stack: a
// span/event tracer and a metrics registry, both keyed to the virtual
// clock.
//
// Everything that charges vclock time (ptrace stops, process_vm
// copies, virtqueue service passes, link transits, attach phases) can
// emit spans onto a per-component Track; the result exports as Chrome
// trace-event JSON loadable in Perfetto, with virtual microseconds as
// timestamps. Because the simulation is deterministic, two runs with
// the same seed produce byte-identical trace files — a property the
// tier-1 tests assert.
//
// The tracer is built to cost nothing while disabled: Track and Span
// are plain value types, every emit path checks one pointer and one
// bool before touching any state, and no interface{} boxing or
// map lookup happens on the hot path (argument helpers take typed
// int64 values). testing.AllocsPerRun over the disabled paths must
// report zero.
package obs

import (
	"time"

	"vmsh/internal/vclock"
)

// Phase constants mirror the Chrome trace-event phases the tracer
// emits: complete spans, instants, async begin/end pairs, and causal
// flow begin/step/end chains (rendered as arrows in Perfetto).
const (
	PhaseSpan       = 'X'
	PhaseInstant    = 'i'
	PhaseAsyncBegin = 'b'
	PhaseAsyncEnd   = 'e'
	PhaseFlowBegin  = 's'
	PhaseFlowStep   = 't'
	PhaseFlowEnd    = 'f'
)

// Event is one recorded trace event. Args are a fixed-size inline pair
// so recording never allocates beyond the event log itself.
type Event struct {
	Track TrackID
	Phase byte
	Cat   string
	Name  string
	TS    time.Duration // virtual time at start (spans) or occurrence
	Dur   time.Duration // PhaseSpan only
	ID    uint64        // async phases only
	NArgs uint8
	K1    string
	V1    int64
	K2    string
	V2    int64
}

// TrackID identifies a registered track (one Perfetto "thread").
type TrackID int32

// asyncOpen is one outstanding async span awaiting its end.
type asyncOpen struct {
	track TrackID
	cat   string
	name  string
	start time.Duration
}

// Tracer records virtual-time spans and events. A nil *Tracer is a
// valid disabled tracer; a non-nil tracer is also disabled until
// Enable. Like the host and clock it records, a tracer is a
// single-owner value: drive it from one goroutine at a time.
type Tracer struct {
	clock   *vclock.Clock
	enabled bool
	charged time.Duration // total the clock advanced while enabled

	// Flow state. flowBase tags every allocated flow id so ids from
	// different shard tracers never collide in a merged fleet trace;
	// curFlow is the ambient flow the current synchronous call chain
	// is propagating (a frame's journey through device, switch and
	// bridge); flowq holds FIFO id queues keyed by virtqueue so the
	// device side can end the flow the driver side began without any
	// shared simulation state.
	flowBase uint64
	flowSeq  uint64
	curFlow  uint64

	tracks    []string
	byName    map[string]TrackID
	events    []Event
	async     map[uint64]asyncOpen
	flowq     map[uint64][]uint64
	unobserve func() // detaches this tracer's clock observer
}

// New returns a disabled tracer bound to the given clock. Tracks may
// be registered immediately; nothing is recorded until Enable.
func New(clock *vclock.Clock) *Tracer {
	return &Tracer{
		clock:  clock,
		byName: make(map[string]TrackID),
		async:  make(map[uint64]asyncOpen),
		flowq:  make(map[uint64][]uint64),
	}
}

// SetFlowBase tags every flow id this tracer allocates with base (the
// engine sets a per-shard base at construction), making flow ids
// fleet-unique so cross-shard arrows in a merged trace never alias.
// Call during setup, before any events run.
func (t *Tracer) SetFlowBase(base uint64) {
	if t == nil {
		return
	}
	t.flowBase = base
}

// newFlowID allocates the next fleet-unique flow id. Allocation order
// follows the shard's deterministic event order, so ids are identical
// across same-seed runs at any worker count.
func (t *Tracer) newFlowID() uint64 {
	t.flowSeq++
	return t.flowBase | t.flowSeq
}

// CurrentFlow returns the ambient flow id the current synchronous call
// chain is propagating (0 when none). Safe on a nil receiver.
func (t *Tracer) CurrentFlow() uint64 {
	if t == nil {
		return 0
	}
	return t.curFlow
}

// AdoptFlow makes id the ambient flow — how a cross-shard bridge
// continues the sending shard's flow on the receiving shard's tracer.
// Adopting 0 clears instead.
func (t *Tracer) AdoptFlow(id uint64) {
	if t == nil {
		return
	}
	t.curFlow = id
}

// ClearFlow drops the ambient flow.
func (t *Tracer) ClearFlow() {
	if t == nil {
		return
	}
	t.curFlow = 0
}

// Enable starts recording. It also hooks the clock so the tracer
// accumulates the total charged virtual time (Charged), letting
// consumers reconcile span sums against the clock. The hook is a
// composable vclock.Clock.Observe registration, so enabling a tracer
// never disturbs other clock observers (the engine's shard accounting,
// a second tracer) and repeated Enable calls are idempotent.
func (t *Tracer) Enable() {
	if t == nil {
		return
	}
	t.enabled = true
	if t.clock != nil && t.unobserve == nil {
		t.unobserve = t.clock.Observe(func(d time.Duration) {
			t.charged += d
		})
	}
}

// Disable stops recording (events already logged are kept) and
// detaches only this tracer's clock observer.
func (t *Tracer) Disable() {
	if t == nil {
		return
	}
	t.enabled = false
	if t.unobserve != nil {
		t.unobserve()
		t.unobserve = nil
	}
}

// Enabled reports whether the tracer is currently recording. Safe on a
// nil receiver, which reports false.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled }

// Charged returns the total virtual time the clock advanced while the
// tracer was enabled.
func (t *Tracer) Charged() time.Duration {
	if t == nil {
		return 0
	}
	return t.charged
}

// Reset drops all recorded events and outstanding async spans; track
// registrations survive, so cached Track handles stay valid.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.events = nil
	t.async = make(map[uint64]asyncOpen)
	t.flowq = make(map[uint64][]uint64)
	t.charged = 0
	t.curFlow = 0
}

// Track registers (or finds) a named track and returns a handle. The
// zero Track is valid and permanently disabled. Registration is cheap
// but looks the name up in a map — call it at construction time, not
// per event.
func (t *Tracer) Track(name string) Track {
	if t == nil {
		return Track{}
	}
	if id, ok := t.byName[name]; ok {
		return Track{t: t, id: id}
	}
	id := TrackID(len(t.tracks))
	t.tracks = append(t.tracks, name)
	t.byName[name] = id
	return Track{t: t, id: id}
}

// Tracks returns the registered track names in registration order
// (index == TrackID).
func (t *Tracer) Tracks() []string {
	if t == nil {
		return nil
	}
	out := make([]string, len(t.tracks))
	copy(out, t.tracks)
	return out
}

// Events returns a snapshot of the event log in emission order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// now reads the virtual clock.
func (t *Tracer) now() time.Duration {
	if t.clock == nil {
		return 0
	}
	return t.clock.Now()
}

func (t *Tracer) append(e Event) { t.events = append(t.events, e) }

// Track is a handle onto one named track; all emission goes through
// it. The zero value is disabled, so components can carry a Track
// unconditionally and wire a real one only when observability is on.
type Track struct {
	t  *Tracer
	id TrackID
}

// Live reports whether events emitted on this track are recorded right
// now.
func (tk Track) Live() bool { return tk.t != nil && tk.t.enabled }

// Span opens a complete-span measurement; call End (or a variant) to
// record it. While the tracer is disabled this returns the zero Span
// and records nothing, allocating nothing.
func (tk Track) Span(cat, name string) Span {
	if !tk.Live() {
		return Span{}
	}
	return Span{t: tk.t, track: tk.id, cat: cat, name: name, start: tk.t.now()}
}

// Event records an instant event.
func (tk Track) Event(cat, name string) {
	if !tk.Live() {
		return
	}
	tk.t.append(Event{Track: tk.id, Phase: PhaseInstant, Cat: cat, Name: name, TS: tk.t.now()})
}

// Event1 records an instant event with one typed argument.
func (tk Track) Event1(cat, name, k string, v int64) {
	if !tk.Live() {
		return
	}
	tk.t.append(Event{Track: tk.id, Phase: PhaseInstant, Cat: cat, Name: name,
		TS: tk.t.now(), NArgs: 1, K1: k, V1: v})
}

// Begin opens an async span identified by (cat, id); the matching
// AsyncEnd may come from a different track — how a request published
// by the guest driver is closed by the device that completes it.
func (tk Track) Begin(cat, name string, id uint64) {
	if !tk.Live() {
		return
	}
	now := tk.t.now()
	tk.t.async[id] = asyncOpen{track: tk.id, cat: cat, name: name, start: now}
	tk.t.append(Event{Track: tk.id, Phase: PhaseAsyncBegin, Cat: cat, Name: name, TS: now, ID: id})
}

// AsyncEnd closes the async span opened with id and returns its
// virtual-time duration. Unknown ids (begun before tracing started, or
// never begun) return ok=false and record nothing.
func (tk Track) AsyncEnd(id uint64) (time.Duration, bool) {
	if !tk.Live() {
		return 0, false
	}
	now := tk.t.now()
	open, ok := tk.t.async[id]
	if !ok {
		return 0, false
	}
	delete(tk.t.async, id)
	tk.t.append(Event{Track: tk.id, Phase: PhaseAsyncEnd, Cat: open.cat, Name: open.name, TS: now, ID: id})
	return now - open.start, true
}

// FlowBegin allocates a fleet-unique flow id, records the flow-begin
// event on this track, and makes the id the tracer's ambient flow so
// downstream hops (switch ports, bridges, the receiving device) can
// FlowStep/FlowEnd it without threading the id through their APIs.
// Returns the id; 0 (and no state change) while disabled.
func (tk Track) FlowBegin(cat, name string) uint64 {
	if !tk.Live() {
		return 0
	}
	id := tk.t.newFlowID()
	tk.t.append(Event{Track: tk.id, Phase: PhaseFlowBegin, Cat: cat, Name: name,
		TS: tk.t.now(), ID: id})
	tk.t.curFlow = id
	return id
}

// FlowStep records a flow step for the ambient flow on this track —
// one arrow waypoint. No-op when no flow is ambient or while disabled.
func (tk Track) FlowStep(cat, name string) {
	if !tk.Live() {
		return
	}
	id := tk.t.curFlow
	if id == 0 {
		return
	}
	tk.t.append(Event{Track: tk.id, Phase: PhaseFlowStep, Cat: cat, Name: name,
		TS: tk.t.now(), ID: id})
}

// FlowEnd terminates the ambient flow on this track and clears it.
// No-op when no flow is ambient or while disabled.
func (tk Track) FlowEnd(cat, name string) {
	if !tk.Live() {
		return
	}
	id := tk.t.curFlow
	if id == 0 {
		return
	}
	tk.t.append(Event{Track: tk.id, Phase: PhaseFlowEnd, Cat: cat, Name: name,
		TS: tk.t.now(), ID: id})
	tk.t.curFlow = 0
}

// ClearFlow drops the tracer's ambient flow (frame handed off but
// never terminated — e.g. queued behind a bridge). Valid on the zero
// Track.
func (tk Track) ClearFlow() {
	if tk.t == nil {
		return
	}
	tk.t.curFlow = 0
}

// FlowBeginQ allocates a flow id, records the begin event, and
// enqueues the id under key (FIFO) for FlowEndQ — the request-flow
// protocol between the two sides of a virtqueue, which share a tracer
// but no Go state. key is the queue's Avail GPA, identical in both
// views.
func (tk Track) FlowBeginQ(key uint64, cat, name string) {
	if !tk.Live() {
		return
	}
	id := tk.t.newFlowID()
	tk.t.flowq[key] = append(tk.t.flowq[key], id)
	tk.t.append(Event{Track: tk.id, Phase: PhaseFlowBegin, Cat: cat, Name: name, TS: tk.t.now(), ID: id})
}

// FlowEndQ dequeues the oldest flow id under key and records its end
// event — the completing side of FlowBeginQ. An empty queue (flow
// begun before tracing started) records nothing.
func (tk Track) FlowEndQ(key uint64, cat, name string) {
	if !tk.Live() {
		return
	}
	q := tk.t.flowq[key]
	if len(q) == 0 {
		return
	}
	id := q[0]
	if len(q) == 1 {
		delete(tk.t.flowq, key)
	} else {
		tk.t.flowq[key] = q[1:]
	}
	tk.t.append(Event{Track: tk.id, Phase: PhaseFlowEnd, Cat: cat, Name: name, TS: tk.t.now(), ID: id})
}

// Span is one in-flight complete-span measurement. The zero value is
// disabled; every End variant on it is a no-op.
type Span struct {
	t     *Tracer
	track TrackID
	cat   string
	name  string
	start time.Duration
}

// End records the span.
func (s Span) End() {
	if s.t == nil || !s.t.enabled {
		return
	}
	s.t.append(Event{Track: s.track, Phase: PhaseSpan, Cat: s.cat, Name: s.name,
		TS: s.start, Dur: s.t.now() - s.start})
}

// End1 records the span with one typed argument.
func (s Span) End1(k string, v int64) {
	if s.t == nil || !s.t.enabled {
		return
	}
	s.t.append(Event{Track: s.track, Phase: PhaseSpan, Cat: s.cat, Name: s.name,
		TS: s.start, Dur: s.t.now() - s.start, NArgs: 1, K1: k, V1: v})
}

// End2 records the span with two typed arguments.
func (s Span) End2(k1 string, v1 int64, k2 string, v2 int64) {
	if s.t == nil || !s.t.enabled {
		return
	}
	s.t.append(Event{Track: s.track, Phase: PhaseSpan, Cat: s.cat, Name: s.name,
		TS: s.start, Dur: s.t.now() - s.start, NArgs: 2, K1: k1, V1: v1, K2: k2, V2: v2})
}
