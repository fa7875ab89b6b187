package eval

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"vmsh/internal/core"
	"vmsh/internal/hostsim"
	"vmsh/internal/obs"
	"vmsh/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestTraceDeterminism: the exported Chrome trace is part of the
// deterministic surface — two same-seed runs must produce
// byte-identical Perfetto JSON.
func TestTraceDeterminism(t *testing.T) {
	render := func() []byte {
		run, err := TraceFioFastPath()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := run.Trace.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed runs produced different traces (%d vs %d bytes)", len(a), len(b))
	}

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace is empty")
	}
}

// TestTraceReconciliation cross-checks the three observability outputs
// against each other: the request-latency histogram must have one
// sample per served block request, no sample may exceed the run's
// total virtual time, and the clock charge accumulated by the tracer
// must cover the workload's measured elapsed time.
func TestTraceReconciliation(t *testing.T) {
	run, err := TraceFioFastPath()
	if err != nil {
		t.Fatal(err)
	}
	hist := run.Session.Registry().Histogram("blk.req_vlat")
	if hist.Count() == 0 {
		t.Fatal("no request latencies recorded")
	}
	if got, want := hist.Count(), run.Session.BlkRequests(); got != want {
		t.Errorf("latency samples %d != served blk requests %d", got, want)
	}
	elapsed := run.Host.Clock.Now()
	if hist.Max() > elapsed {
		t.Errorf("max request latency %v exceeds total virtual time %v", hist.Max(), elapsed)
	}
	if charged := run.Trace.Charged(); charged < run.Mode.VirtualTime {
		t.Errorf("tracer charged %v < workload virtual time %v", charged, run.Mode.VirtualTime)
	}
	// The metrics snapshot agrees with the Stats view.
	m := run.Session.Metrics()
	if st := run.Session.Stats(); m["procvm.calls"] != st.ProcVMCalls {
		t.Errorf("metrics procvm.calls %d != stats %d", m["procvm.calls"], st.ProcVMCalls)
	}
	if m["blk.req_vlat.count"] != hist.Count() {
		t.Errorf("snapshot histogram count %d != live %d", m["blk.req_vlat.count"], hist.Count())
	}
	// Every vq:service span lives on the dev:blk track and sums to no
	// more than the tracer's total charge.
	var svc int64
	for _, e := range run.Trace.Events() {
		if e.Phase == obs.PhaseSpan && e.Cat == "vq" && e.Name == "service" {
			svc += int64(e.Dur)
		}
	}
	if svc == 0 {
		t.Error("no virtqueue service spans recorded")
	}
	if svc > int64(run.Trace.Charged()) {
		t.Errorf("service span total %dns exceeds charged %v", svc, run.Trace.Charged())
	}
}

// TestTraceGoldenSpanTree pins the span taxonomy of one small E5 job:
// the attach phase tree and the blk device's service shape. Run with
// -update to regenerate after intentionally changing instrumentation.
func TestTraceGoldenSpanTree(t *testing.T) {
	run, err := TraceFioSmall()
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, track := range []string{"vmsh:attach", "dev:blk"} {
		got.WriteString("== " + track + " ==\n")
		got.WriteString(obs.FormatSpanTree(run.Trace.SpanTree(track)))
	}
	path := filepath.Join("testdata", "e5_small_spans.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (rerun with -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("span tree drifted from golden (rerun with -update if intended):\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}
}

// TestTracingPreservesVirtualTime: turning the tracer on must observe,
// never perturb — the same workload reports bit-identical virtual-time
// results traced and untraced.
func TestTracingPreservesVirtualTime(t *testing.T) {
	spec := workloads.FioSpec{Name: "smoke-read-4k", RW: "read", BS: 4096, Total: 64 << 10, QD: 8}

	runOnce := func(trace bool) (int64, int64) {
		h := hostsim.NewHost()
		inst, err := fioVM(h)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := attachScratchOpts(h, inst, core.Options{
			Trap: core.TrapIoregionfd, Trace: trace,
		}); err != nil {
			t.Fatal(err)
		}
		dev, ok := inst.GuestDisk("vmshblk0")
		if !ok {
			t.Fatal("vmshblk0 missing")
		}
		s := spec
		s.Batch = true
		r, err := workloads.FioOnDevice(h, dev, s)
		if err != nil {
			t.Fatal(err)
		}
		return int64(r.Elapsed), int64(h.Clock.Now())
	}

	elapsedOff, clockOff := runOnce(false)
	elapsedOn, clockOn := runOnce(true)
	if elapsedOff != elapsedOn {
		t.Errorf("tracing changed job virtual time: off %dns, on %dns", elapsedOff, elapsedOn)
	}
	if clockOff != clockOn {
		t.Errorf("tracing changed total virtual time: off %dns, on %dns", clockOff, clockOn)
	}
}
