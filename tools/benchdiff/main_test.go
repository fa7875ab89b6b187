package main

import (
	"os"
	"path/filepath"
	"testing"

	"vmsh/internal/eval"
	"vmsh/internal/ledger"
	"vmsh/internal/xfstests"
)

// These tests put each experiment's own rows through the gate, as the
// command reads them from files: they pin which metrics an experiment
// emits as costs and which as invariants. The rule itself is tested
// once, in internal/ledger.

// gate writes both ledgers, loads them back and diffs them.
func gate(t *testing.T, base, cand []ledger.Row, thresholdPct float64) ledger.Report {
	t.Helper()
	var loaded [2][]ledger.Row
	for i, rows := range [][]ledger.Row{base, cand} {
		b, err := ledger.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "ledger.json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if loaded[i], err = load(path); err != nil {
			t.Fatal(err)
		}
	}
	return ledger.Diff(loaded[0], loaded[1], thresholdPct)
}

func wantRegressions(t *testing.T, r ledger.Report, n int) {
	t.Helper()
	if len(r.Regressions) != n {
		t.Fatalf("want %d regression(s), got %q (notes %q)", n, r.Regressions, r.Notes)
	}
}

func e5Modes() []eval.FastPathMode {
	return []eval.FastPathMode{
		{Name: "fast", VirtualTime: 1000, ProcVMCalls: 10, Interrupts: 5, BytesMoved: 4096},
		{Name: "legacy", VirtualTime: 2000, ProcVMCalls: 300, Interrupts: 140, BytesMoved: 4096},
	}
}

func TestE5IdenticalPasses(t *testing.T) {
	r := gate(t, eval.FastPathRows(e5Modes()), eval.FastPathRows(e5Modes()), 0)
	wantRegressions(t, r, 0)
	if len(r.Notes) != 0 {
		t.Fatalf("identical ledgers produced notes: %q", r.Notes)
	}
}

func TestE5GrowthBeyondThresholdFails(t *testing.T) {
	cand := e5Modes()
	cand[0].VirtualTime = 1200
	wantRegressions(t, gate(t, eval.FastPathRows(e5Modes()), eval.FastPathRows(cand), 5), 1)
	// The same growth passes under a looser threshold.
	wantRegressions(t, gate(t, eval.FastPathRows(e5Modes()), eval.FastPathRows(cand), 25), 0)
}

func TestE5ImprovementPasses(t *testing.T) {
	cand := e5Modes()
	cand[0].VirtualTime, cand[0].ProcVMCalls = 900, 8
	r := gate(t, eval.FastPathRows(e5Modes()), eval.FastPathRows(cand), 0)
	wantRegressions(t, r, 0)
	if len(r.Notes) != 2 {
		t.Fatalf("want two improvement notes, got %q", r.Notes)
	}
}

func TestE5MissingModeFails(t *testing.T) {
	// Every one of the legacy mode's four rows is missing.
	wantRegressions(t, gate(t, eval.FastPathRows(e5Modes()), eval.FastPathRows(e5Modes()[:1]), 0), 4)
}

// TestE1CountChangeFails: test counts are invariants, so a test moving
// from passed to failed fails the gate at any threshold.
func TestE1CountChangeFails(t *testing.T) {
	base := []xfstests.Result{{Env: "cow", Total: 619, Passed: 579, Skipped: 40}}
	cand := []xfstests.Result{{Env: "cow", Total: 619, Passed: 578, Failed: 1, Skipped: 40}}
	wantRegressions(t, gate(t, eval.XfstestsRows(base), eval.XfstestsRows(cand), 1000), 2)
}

func e9Result() *eval.FleetStormResult {
	return &eval.FleetStormResult{VMs: 100, Shards: 2, Seed: 42,
		Runs: []eval.FleetStormRun{
			{Workers: 1, Events: 500, Messages: 8, MaxVTimeMS: 900.5, Digest: "c5c2d24c87928b87"},
			{Workers: 2, Events: 500, Messages: 8, MaxVTimeMS: 900.5, Digest: "c5c2d24c87928b87"},
		},
		VTimesMS: []float64{1.5, 900.5},
	}
}

func TestE9IdenticalPasses(t *testing.T) {
	wantRegressions(t, gate(t, e9Result().Rows(), e9Result().Rows(), 0), 0)
}

func TestE9EventGrowthFails(t *testing.T) {
	cand := e9Result()
	cand.Runs[0].Events++
	wantRegressions(t, gate(t, e9Result().Rows(), cand.Rows(), 0), 1)
}

func TestE9ConfigMismatchFails(t *testing.T) {
	cand := e9Result()
	cand.VMs = 1000
	wantRegressions(t, gate(t, e9Result().Rows(), cand.Rows(), 1000), 1)
	cand = e9Result()
	cand.Seed = 7
	wantRegressions(t, gate(t, e9Result().Rows(), cand.Rows(), 1000), 1)
}

func TestE9DigestChangeFails(t *testing.T) {
	cand := e9Result()
	cand.Runs[0].Digest = "c5c2d24c87928b88"
	wantRegressions(t, gate(t, e9Result().Rows(), cand.Rows(), 1000), 1)
}

func TestE9VTimeShiftFails(t *testing.T) {
	cand := e9Result()
	cand.VTimesMS[0] = 3.0
	wantRegressions(t, gate(t, e9Result().Rows(), cand.Rows(), 0), 1)
}

func e11Result() *eval.MigrationResult {
	return &eval.MigrationResult{Seed: 42,
		Legs: []eval.MigrationLeg{
			{Mode: "stop_and_copy", DirtyPages: 256, DowntimeNS: 892000, TotalNS: 5000000,
				PagesPrecopy: 512, PagesCutover: 256, BytesOnWire: 3290112, HashesEqual: true},
			{Mode: "postcopy", DirtyPages: 256, DowntimeNS: 52000, TotalNS: 5000000,
				PagesPrecopy: 512, PagesFaulted: 1, PagesDrained: 255, BytesOnWire: 3292160, HashesEqual: true},
		},
		SessionSurvived: true, SessionFaultedPages: 1,
		RecordVerified: true, RecordCrossings: 328373,
	}
}

func TestE11IdenticalPasses(t *testing.T) {
	wantRegressions(t, gate(t, e11Result().Rows(), e11Result().Rows(), 0), 0)
}

func TestE11DowntimeGrowthFails(t *testing.T) {
	cand := e11Result()
	cand.Legs[1].DowntimeNS = 60000
	wantRegressions(t, gate(t, e11Result().Rows(), cand.Rows(), 5), 1)
	wantRegressions(t, gate(t, e11Result().Rows(), cand.Rows(), 20), 0)
}

func TestE11HashDivergenceFailsAtAnyThreshold(t *testing.T) {
	cand := e11Result()
	cand.Legs[1].HashesEqual = false
	wantRegressions(t, gate(t, e11Result().Rows(), cand.Rows(), 1000), 1)
}

func TestE11LostBooleansFail(t *testing.T) {
	cand := e11Result()
	cand.SessionSurvived, cand.RecordVerified = false, false
	wantRegressions(t, gate(t, e11Result().Rows(), cand.Rows(), 1000), 2)
}

func TestE11MissingLegFails(t *testing.T) {
	cand := e11Result()
	cand.Legs = cand.Legs[:1]
	// The leg's hash flag, downtime, total time, pages (all, before
	// the pause and after it) and bytes.
	wantRegressions(t, gate(t, e11Result().Rows(), cand.Rows(), 0), 7)
}

func TestE11SeedMismatchFails(t *testing.T) {
	cand := e11Result()
	cand.Seed = 7
	wantRegressions(t, gate(t, e11Result().Rows(), cand.Rows(), 1000), 1)
}
