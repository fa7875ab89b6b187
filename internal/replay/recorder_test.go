package replay

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"vmsh/internal/faults"
	"vmsh/internal/vclock"
)

// driveRecorder plays a fixed little session into a tap (a Recorder
// or a Verifier) through the same faults.Crossing values the host
// taps deliver.
func driveRecorder(clock *vclock.Clock, tap faults.Tap) {
	cross := func(op faults.Op, stage string, args, result uint64, err string) {
		tap.Crossing(faults.Crossing{Op: op, Stage: stage, Args: args, Result: result, Err: err})
	}
	clock.Advance(100 * time.Nanosecond)
	cross("ptrace:attach", "attach", 1, 2, "")
	clock.Advance(50 * time.Nanosecond)
	cross("procvm:readv", "scan_kernel", 3, 4, "")
	clock.Advance(50 * time.Nanosecond)
	cross("procvm:readv", "scan_kernel", 5, 6, "eintr")
	clock.Advance(200 * time.Nanosecond)
	cross("vq:blk", "", 7, 8, "")
}

func TestRecorderBuildsValidLog(t *testing.T) {
	clock := vclock.New()
	rec := NewRecorder(clock, "unit", 99)
	driveRecorder(clock, rec)
	clock.Advance(25 * time.Nanosecond)
	lg := rec.Finalize([]uint64{0xabc}, map[string]int64{"k": 1})

	if lg.Label != "unit" || lg.Seed != 99 {
		t.Fatalf("header: %+v", lg)
	}
	if len(lg.Records) != 4 || rec.Crossings() != 4 {
		t.Fatalf("want 4 records, got %d", len(lg.Records))
	}
	if lg.Records[0].VTime != 100 || lg.Records[3].VTime != 400 {
		t.Fatalf("vtime stamps wrong: %+v", lg.Records)
	}
	if lg.Records[1].OpSeq != 1 || lg.Records[2].OpSeq != 2 {
		t.Fatalf("per-op numbering wrong: %+v", lg.Records)
	}
	if lg.Records[2].Err != "eintr" {
		t.Fatalf("error class lost: %+v", lg.Records[2])
	}
	if lg.Footer.VTime != 425 || lg.Footer.Crossings != 4 {
		t.Fatalf("footer: %+v", lg.Footer)
	}
	// Finalize is idempotent; late crossings are dropped.
	rec.Crossing(faults.Crossing{Op: "vq:blk"})
	lg2 := rec.Finalize(nil, nil)
	if len(lg2.Records) != 4 || lg2.Footer.VTime != 425 {
		t.Fatalf("finalize not idempotent: %+v", lg2.Footer)
	}
	// The recorded log must survive the wire and replay to the exact
	// final time.
	dec, err := Read(bytes.NewReader(mustEncode(lg)))
	if err != nil {
		t.Fatalf("recorded log does not decode: %v", err)
	}
	res, err := Run(dec)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if int64(res.VTime) != 425 || res.Crossings != 4 || res.PerOp["procvm:readv"] != 2 {
		t.Fatalf("replay result: %+v", res)
	}
	if res.RAM[0] != 0xabc || res.Metrics["k"] != 1 {
		t.Fatalf("end state lost: %+v", res)
	}
}

func TestReplayTraceSpans(t *testing.T) {
	clock := vclock.New()
	rec := NewRecorder(clock, "trace", 0)
	driveRecorder(clock, rec)
	lg := rec.Finalize(nil, nil)

	res, err := Run(lg, WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	evs := res.Tracer.Events()
	if len(evs) == 0 {
		t.Fatal("traced replay produced no spans")
	}
	names := res.Tracer.Tracks()
	tracks := map[string]bool{}
	for _, ev := range evs {
		tracks[names[ev.Track]] = true
	}
	for _, want := range []string{"replay:ptrace", "replay:procvm", "replay:vq"} {
		if !tracks[want] {
			t.Errorf("missing track %q (have %v)", want, tracks)
		}
	}
	// Untraced replay records nothing (the tracer stays disabled).
	res2, err := Run(lg)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res2.Tracer.Events()); n != 0 {
		t.Fatalf("untraced replay recorded %d events", n)
	}
}

func TestVerifierMatchesAndDiverges(t *testing.T) {
	clock := vclock.New()
	rec := NewRecorder(clock, "v", 0)
	driveRecorder(clock, rec)
	lg := rec.Finalize(nil, nil)

	// A faithful re-run matches every crossing.
	clock2 := vclock.New()
	ver := NewVerifier(lg, clock2)
	driveRecorder(clock2, ver)
	if d := ver.Result(); d != nil {
		t.Fatalf("faithful re-run diverged: %v", d)
	}
	if ver.Matched() != 4 {
		t.Fatalf("matched %d of 4", ver.Matched())
	}

	// A run that stops early is itself a divergence.
	clock3 := vclock.New()
	ver3 := NewVerifier(lg, clock3)
	clock3.Advance(100 * time.Nanosecond)
	ver3.Crossing(faults.Crossing{Op: "ptrace:attach", Stage: "attach", Args: 1, Result: 2})
	if d := ver3.Result(); d == nil {
		t.Fatal("short run verified clean")
	}

	// A wrong op diverges immediately, and the report names both ops.
	clock4 := vclock.New()
	ver4 := NewVerifier(lg, clock4)
	clock4.Advance(100 * time.Nanosecond)
	ver4.Crossing(faults.Crossing{Op: "bpf:kprobe", Args: 1, Result: 2})
	d := ver4.Divergence()
	if d == nil || d.ExpectedOp != "ptrace:attach" || d.ActualOp != "bpf:kprobe" {
		t.Fatalf("divergence: %+v", d)
	}
	// Later crossings do not overwrite the first divergence.
	clock4.Advance(50 * time.Nanosecond)
	ver4.Crossing(faults.Crossing{Op: "procvm:readv", Stage: "scan_kernel", Args: 3, Result: 4})
	if got := ver4.Divergence(); got != d {
		t.Fatal("first divergence not sticky")
	}

	// Extra crossings beyond the log's end diverge too.
	clock5 := vclock.New()
	ver5 := NewVerifier(lg, clock5)
	driveRecorder(clock5, ver5)
	ver5.Crossing(faults.Crossing{Op: "vq:blk"})
	if d := ver5.Result(); d == nil || !strings.Contains(d.Reason, "beyond") {
		t.Fatalf("overlong run: %+v", d)
	}
}

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRecordsAllocBound: recording N crossings, and reading an N-record
// log back, each allocate at most 2.5 times the N Records they hold.
// Both build the slice in fixed-size chunks and copy it once into an
// exact-size slice; growing one slice by append allocates about five
// times the final slice at this size.
func TestRecordsAllocBound(t *testing.T) {
	const n = 100_000
	limit := uint64(n * unsafe.Sizeof(Record{}) * 5 / 2)
	ops := []faults.Op{"procvm:readv", "ptrace:getregs", "vq:blk"}
	clock := vclock.New()
	var lg *Log
	rec := NewRecorder(clock, "alloc", 0)
	if got := allocated(func() {
		for i := 0; i < n; i++ {
			rec.Crossing(faults.Crossing{Op: ops[i%len(ops)], Stage: "scan_kernel", Args: uint64(i)})
		}
		lg = rec.Finalize(nil, nil)
	}); got > limit {
		t.Errorf("recording %d crossings allocated %d bytes, want at most %d", n, got, limit)
	} else {
		t.Logf("recording: %d bytes, %.2f× the records", got, float64(got)/float64(limit)*2.5)
	}
	if len(lg.Records) != n || cap(lg.Records) != n {
		t.Fatalf("recorded %d records in a slice of capacity %d, want %d", len(lg.Records), cap(lg.Records), n)
	}
	enc := mustEncode(lg)
	var dec *Log
	if got := allocated(func() {
		var err error
		if dec, err = Read(bytes.NewReader(enc)); err != nil {
			t.Fatal(err)
		}
	}); got > limit {
		t.Errorf("reading %d records allocated %d bytes, want at most %d", n, got, limit)
	} else {
		t.Logf("reading: %d bytes, %.2f× the records", got, float64(got)/float64(limit)*2.5)
	}
	if len(dec.Records) != n || cap(dec.Records) != n || dec.Records[n-1] != lg.Records[n-1] {
		t.Fatalf("read %d records in a slice of capacity %d, want %d", len(dec.Records), cap(dec.Records), n)
	}
}
