package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"
)

// endToEndMetrics are printed by every untraced run, in BENCHMARK.json
// order. failed_ratio is printed as an info line: it is 0 on a correct
// build, and the result's failed/attempted counts carry it.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"alloc_mib_per_op", "MiB"},
	{"peak_rss_mib", "MiB"},
	{"sim_s_per_host_s", "s/s"},
}

// layerBoundaries are the calls into layers a span is recorded around,
// across all three workloads. Each gets .count, .busy_s and .p50_us.
var layerBoundaries = []string{
	// attach_storm (launch through detach also in snapshot_migrate)
	"hypervisor.launch", "core.attach", "core.exec", "core.detach",
	"mem.ram_hash", "hostsim.exit", "engine.run",
	// device_io
	"virtio.blk_read_4k", "virtio.blk_write_4k", "virtio.blk_read_64k",
	"virtio.blk_write_64k", "virtio.blk_flush", "guestos.exec_write",
	"guestos.exec_read", "netsim.ping_64", "netsim.ping_1400",
	// snapshot_migrate
	"replay.read", "replay.run", "lifecycle.take", "lifecycle.encode",
	"lifecycle.decode", "lifecycle.restore", "lifecycle.migrate",
	"lifecycle.verify",
}

// failedBoundaries get a .failed count.
var failedBoundaries = []string{"core.attach", "lifecycle.migrate", "lifecycle.verify"}

// counterMetrics are program counters taken over each workload's digest
// prefix, so they repeat exactly for a seed. A workload reports the
// ones its layers touch; the rest print as 0.
var counterMetrics = []struct{ name, unit string }{
	{"hostsim.syscalls_per_attach", "count"},
	{"hostsim.ptrace_stops_per_attach", "count"},
	{"hostsim.procvm_calls_per_attach", "count"},
	{"kvm.exits_per_op", "count"},
	{"core.procvm_calls_per_io", "count"},
	{"core.procvm_kib_per_io", "KiB"},
	{"virtio.irqs_per_io", "count"},
	{"netsim.frames_forwarded", "count"},
	{"lifecycle.snapshot_mib", "MiB"},
	{"lifecycle.pages_on_wire", "count"},
	{"replay.crossings", "count"},
	{"lifecycle.precopy_resent_ratio", "ratio"},
}

// perLayerMetrics lists every metric a traced run prints, with its unit.
func perLayerMetrics() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(name, unit string) { out = append(out, struct{ name, unit string }{name, unit}) }
	for _, b := range layerBoundaries {
		add(b+".count", "count")
		add(b+".busy_s", "s")
		add(b+".p50_us", "us")
	}
	for _, b := range layerBoundaries {
		if allocBoundaries[b] {
			add(b+".alloc_mib", "MiB")
		}
	}
	for _, b := range failedBoundaries {
		add(b+".failed", "count")
	}
	add("engine.worker_wait_s", "s")
	add("op.count", "count")
	add("op.busy_s", "s")
	add("op.self_s", "s")
	for _, c := range counterMetrics {
		add(c.name, c.unit)
	}
	add("runtime.gc_cycles", "count")
	add("runtime.gc_pause_s", "s")
	add("runtime.gc_cpu_fraction", "ratio")
	add("trace.untraced_ops_per_s", "1/s")
	add("trace.traced_ops_per_s", "1/s")
	add("trace.overhead_ratio", "ratio")
	return out
}

// endToEnd assembles an untraced run's result.
func endToEnd(cfg config, w workload, setupS float64, win window) *result {
	res := &result{attempted: win.attempted, failed: win.failed,
		correct: win.failed == 0, metrics: map[string]metric{}}
	lat := sortedDurations(win.lat)
	pct, tl, parts := splitTail(win.lat)
	vals := map[string]float64{
		"setup_s":          setupS,
		"ops_per_s":        win.opsPerSec(),
		"latency_p50_ms":   ms(lat[len(lat)/2]),
		"latency_tail_ms":  ms(tl),
		"alloc_mib_per_op": float64(win.allocated) / (1 << 20) / float64(win.attempted),
		"peak_rss_mib":     peakRSSMiB(),
		"sim_s_per_host_s": float64(win.simNS) / 1e9 / win.wall.Seconds(),
	}
	for _, m := range endToEndMetrics {
		res.metrics[m.name] = metric{vals[m.name], m.unit}
	}
	res.info = append(res.info,
		fmt.Sprintf("info failed_ratio %.6f (%d of %d ops)", float64(win.failed)/float64(win.attempted), win.failed, win.attempted),
		fmt.Sprintf("info latency_tail_ms is p%.4f, the median over %d consecutive parts of %d samples in all", pct, parts, len(lat)),
		fmt.Sprintf("info window_s %.3f", win.wall.Seconds()),
		fmt.Sprintf("digest %s %s (first %d ops, workers %d)", cfg.workload, win.digest, w.prefixOps(), cfg.workers),
	)
	res.info = append(res.info, failureNotes(win)...)
	return res
}

// perLayer assembles a traced run's result from its untraced baseline
// window and its traced window.
func perLayer(cfg config, w workload, base, traced window) *result {
	res := &result{attempted: base.attempted + traced.attempted,
		failed: base.failed + traced.failed, metrics: map[string]metric{}, spans: traced.spans}
	res.correct = res.failed == 0 && base.digest == traced.digest
	vals := map[string]float64{}
	stats := aggregate(traced.spans)
	for name, st := range stats {
		vals[name+".count"] = float64(st.count)
		vals[name+".busy_s"] = st.busy.Seconds()
		vals[name+".p50_us"] = float64(st.p50()) / 1e3
		if st.allocN > 0 {
			vals[name+".alloc_mib"] = float64(st.alloc) / (1 << 20) / float64(st.allocN)
		}
		vals[name+".failed"] = float64(st.failed)
	}
	if op := stats[opSpan]; op != nil {
		vals["op.count"] = float64(op.count)
		vals["op.busy_s"] = op.busy.Seconds()
		vals["op.self_s"] = op.selfDur.Seconds()
		if run := stats["engine.run"]; run != nil {
			// The traced fleet runs one worker: its wait is the run time
			// no event (op) kept busy.
			vals["engine.worker_wait_s"] = (run.busy - op.busy).Seconds()
		}
	}
	for k, v := range traced.counters {
		vals[k] = v
	}
	vals["runtime.gc_cycles"] = float64(traced.gc.cycles)
	vals["runtime.gc_pause_s"] = traced.gc.pause.Seconds()
	if traced.gc.cpuS > 0 {
		vals["runtime.gc_cpu_fraction"] = traced.gc.gcCPUS / traced.gc.cpuS
	}
	vals["trace.untraced_ops_per_s"] = base.opsPerSec()
	vals["trace.traced_ops_per_s"] = traced.opsPerSec()
	if b := base.opsPerSec(); b > 0 {
		vals["trace.overhead_ratio"] = 1 - traced.opsPerSec()/b
	}
	for _, m := range perLayerMetrics() {
		res.metrics[m.name] = metric{vals[m.name], m.unit}
	}
	busy := vals["op.busy_s"]
	res.info = append(res.info,
		fmt.Sprintf("info failed_ratio %.6f (%d of %d ops)", float64(res.failed)/float64(res.attempted), res.failed, res.attempted),
		fmt.Sprintf("info op.self_share %.4f of op busy time", vals["op.self_s"]/max(busy, 1e-9)),
		fmt.Sprintf("digest %s untraced %s traced %s (first %d ops, workers %d)", cfg.workload, base.digest, traced.digest, w.prefixOps(), cfg.workers),
	)
	if base.digest != traced.digest {
		res.info = append(res.info, "info DIGEST MISMATCH: tracing changed the simulation")
	}
	res.info = append(res.info, failureNotes(base)...)
	res.info = append(res.info, failureNotes(traced)...)
	return res
}

// tailPart is how many consecutive ops one tail measurement covers at
// least. A run long enough for several parts reports the median of
// their tails, so that one rare host stall (a GC cycle, a preemption)
// cannot move the result on its own.
const tailPart = 2000

// splitTail returns the tail percentile, its value and the number of
// parts it was taken over (see tail and tailPart). lat is in op order.
func splitTail(lat []time.Duration) (pct float64, v time.Duration, parts int) {
	parts = max(1, len(lat)/tailPart)
	var pcts, vals []float64
	for i := 0; i < parts; i++ {
		p, v := tail(sortedDurations(lat[i*len(lat)/parts : (i+1)*len(lat)/parts]))
		pcts, vals = append(pcts, p), append(vals, float64(v))
	}
	return median(pcts), time.Duration(median(vals)), parts
}

func failureNotes(win window) []string {
	var out []string
	for _, n := range win.notes {
		out = append(out, "info failure: "+n)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// gcStats is a snapshot (or difference) of the Go runtime's GC work.
type gcStats struct {
	cycles       uint64
	pause        time.Duration
	gcCPUS, cpuS float64
}

func readGC() gcStats {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcStats{
		cycles: s[0].Value.Uint64(),
		gcCPUS: s[1].Value.Float64(),
		cpuS:   s[2].Value.Float64(),
		pause:  time.Duration(ms.PauseTotalNs),
	}
}

func (g gcStats) minus(o gcStats) gcStats {
	return gcStats{
		cycles: g.cycles - o.cycles,
		pause:  g.pause - o.pause,
		gcCPUS: g.gcCPUS - o.gcCPUS,
		cpuS:   g.cpuS - o.cpuS,
	}
}
