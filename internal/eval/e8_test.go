package eval

import (
	"testing"

	"vmsh/internal/ledger"
)

// rowValue returns the value of rows' row key, failing the test when
// there is none.
func rowValue(t *testing.T, rows []ledger.Row, key string) any {
	t.Helper()
	for _, r := range rows {
		if r.Key == key {
			return r.Value
		}
	}
	t.Fatalf("no row %q", key)
	return nil
}

// TestE8FaultSweep runs the full single-fault sweep: every crossing
// class of a clean attach gets faulted once, and every point must
// either roll back byte-identically or absorb the fault. The sweep
// itself errors on any violation, so the test body is a thin wrapper.
func TestE8FaultSweep(t *testing.T) {
	rows, err := RunFaultSweep(42)
	for _, r := range rows {
		t.Logf("%s = %v %s", r.Key, r.Value, r.Unit)
	}
	if err != nil {
		t.Fatal(err)
	}
	if v := rowValue(t, rows, "crossing_classes").(float64); v < 5 {
		t.Fatalf("suspiciously few crossing classes: %v", v)
	}
	if v := rowValue(t, rows, "violations"); v != 0.0 {
		t.Fatalf("violations: %v", v)
	}
	if v := rowValue(t, rows, "armed_plan_vtime_delta_ns"); v != 0.0 {
		t.Fatalf("armed plan perturbed virtual time by %vns", v)
	}
	if v := rowValue(t, rows, "net_frames_dropped"); v == 0.0 {
		t.Fatal("net degradation leg dropped nothing")
	}
}

// TestE8Deterministic replays the sweep with the same seed and
// requires identical rows — the whole fault plane is seeded.
func TestE8Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full sweeps")
	}
	a, err := RunFaultSweep(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFaultSweep(7)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, a, b)
}
