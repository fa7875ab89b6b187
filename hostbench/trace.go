package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer, or one whole op.
// Spans live in memory until the run ends.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int32         // index of the enclosing span, -1 for none
	op         int64         // the op this span belongs to, -1 for none
	lane       int32         // Chrome thread id: 0 main, shard+1 in a fleet
	alloc      int64         // heap bytes allocated inside, -1 unmeasured
	failed     bool
}

// allocBoundaries are the layer calls whose heap allocation is measured
// per call (from runtime/metrics deltas, so only meaningful when one
// goroutine runs simulation code at a time).
var allocBoundaries = map[string]bool{
	"hypervisor.launch": true, "core.attach": true, "mem.ram_hash": true,
	"lifecycle.take": true, "lifecycle.encode": true, "lifecycle.decode": true,
	"lifecycle.restore": true, "lifecycle.migrate": true,
}

// tracer records spans around the benchmark's calls into layers. A nil
// *tracer records nothing; the pprof labels are set either way.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// handle identifies an open span; i is -1 when nothing is recorded.
type handle struct {
	i      int32
	alloc0 int64
}

// begin opens a span.
func (t *tracer) begin(name string, parent int32, op int64, lane int32) handle {
	if t == nil {
		return handle{i: -1}
	}
	h := handle{alloc0: -1}
	if allocBoundaries[name] {
		h.alloc0 = int64(heapAllocBytes())
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		name: name, start: time.Since(t.epoch), parent: parent,
		op: op, lane: lane, alloc: -1,
	})
	h.i = int32(len(t.spans) - 1)
	return h
}

// end closes the span h opened.
func (t *tracer) end(h handle, failed bool) {
	if t == nil || h.i < 0 {
		return
	}
	now := time.Since(t.epoch)
	alloc := int64(-1)
	if h.alloc0 >= 0 {
		alloc = int64(heapAllocBytes()) - h.alloc0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[h.i]
	sp.end, sp.failed, sp.alloc = now, failed, alloc
}

// labels holds one pprof label context per boundary so that setting a
// goroutine's labels around a layer call allocates nothing.
type labels struct {
	base  context.Context
	bound map[string]context.Context
}

func newLabels(workload string) *labels {
	base := pprof.WithLabels(context.Background(), pprof.Labels("workload", workload))
	l := &labels{base: base, bound: make(map[string]context.Context, len(layerBoundaries))}
	for _, b := range layerBoundaries {
		l.bound[b] = pprof.WithLabels(base, pprof.Labels("boundary", b))
	}
	return l
}

// heapAllocBytes is the cumulative heap allocation of the process.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// layerStats aggregates the spans of one boundary.
type layerStats struct {
	count   int
	busy    time.Duration
	durs    []time.Duration
	alloc   int64
	allocN  int
	failed  int
	selfDur time.Duration // duration not covered by child spans
}

// aggregate folds spans into per-boundary statistics. Self time is a
// span's duration minus the time its direct children cover (children
// of one span never overlap: every caller is sequential).
func aggregate(spans []span) map[string]*layerStats {
	child := make([]time.Duration, len(spans))
	for _, sp := range spans {
		if sp.parent >= 0 {
			child[sp.parent] += sp.end - sp.start
		}
	}
	out := map[string]*layerStats{}
	for i, sp := range spans {
		st := out[sp.name]
		if st == nil {
			st = &layerStats{}
			out[sp.name] = st
		}
		d := sp.end - sp.start
		st.count++
		st.busy += d
		st.durs = append(st.durs, d)
		st.selfDur += d - child[i]
		if sp.alloc >= 0 {
			st.alloc += sp.alloc
			st.allocN++
		}
		if sp.failed {
			st.failed++
		}
	}
	return out
}

func (st *layerStats) p50() time.Duration {
	if st == nil || len(st.durs) == 0 {
		return 0
	}
	d := append([]time.Duration(nil), st.durs...)
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[len(d)/2]
}

// maxChromeSpans caps the spans writeChrome exports, which keeps the
// file of a microsecond-op workload near 10 MB; the per-layer metrics
// always use every span.
const maxChromeSpans = 100000

// writeChrome writes the first maxChromeSpans spans as Chrome
// trace-event JSON (complete "X" events, microseconds), loadable in
// Perfetto.
func writeChrome(path string, spans []span) error {
	spans = spans[:min(len(spans), maxChromeSpans)]
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int32          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	enc := json.NewEncoder(w)
	for i, sp := range spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		args := map[string]any{"op": sp.op, "parent": sp.parent, "id": i}
		if sp.alloc >= 0 {
			args["alloc_bytes"] = sp.alloc
		}
		if sp.failed {
			args["failed"] = true
		}
		if err := enc.Encode(event{
			Name: sp.name, Ph: "X", Pid: 1, Tid: sp.lane, Args: args,
			Ts:  float64(sp.start) / 1e3,
			Dur: float64(sp.end-sp.start) / 1e3,
		}); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
