package eval

import (
	"sync"
	"testing"
)

// firstFastPath is the first fast-path sweep. TestE5FastPathAcceptance
// checks it and TestE5FastPathDeterminism compares a rerun against it,
// so tier-1 runs the sweep at most twice.
var firstFastPath = sync.OnceValues(RunFioFastPath)

// TestE5FastPathAcceptance checks the fast path's contract against the
// legacy per-chain service on the same batched workload: at least 5x
// fewer process_vm crossings, at least 2x fewer interrupts, strictly
// less virtual time, and identical data volume.
func TestE5FastPathAcceptance(t *testing.T) {
	modes, err := firstFastPath()
	if err != nil {
		t.Fatal(err)
	}
	fast, legacy := modes[0], modes[1]
	if fast.Name != "fast" || legacy.Name != "legacy" {
		t.Fatalf("mode order %q/%q", fast.Name, legacy.Name)
	}
	if fast.ProcVMCalls == 0 || legacy.ProcVMCalls == 0 {
		t.Fatal("counters did not register")
	}
	if r := float64(legacy.ProcVMCalls) / float64(fast.ProcVMCalls); r < 5 {
		t.Errorf("process_vm call reduction %.1fx, want >= 5x (fast %d, legacy %d)",
			r, fast.ProcVMCalls, legacy.ProcVMCalls)
	}
	if r := float64(legacy.Interrupts) / float64(fast.Interrupts); r < 2 {
		t.Errorf("interrupt reduction %.1fx, want >= 2x (fast %d, legacy %d)",
			r, fast.Interrupts, legacy.Interrupts)
	}
	if fast.VirtualTime >= legacy.VirtualTime {
		t.Errorf("fast path virtual time %v not below legacy %v",
			fast.VirtualTime, legacy.VirtualTime)
	}
	// Both modes moved the same workload.
	if len(fast.Results) != len(legacy.Results) {
		t.Fatal("result count mismatch")
	}
	for i := range fast.Results {
		f, l := fast.Results[i], legacy.Results[i]
		if f.Bytes != l.Bytes || f.Ops != l.Ops {
			t.Errorf("%s: fast moved %d bytes/%d ops, legacy %d/%d",
				f.Spec.Name, f.Bytes, f.Ops, l.Bytes, l.Ops)
		}
		// Per-job virtual time must not regress either.
		if f.Elapsed > l.Elapsed {
			t.Errorf("%s: fast elapsed %v above legacy %v", f.Spec.Name, f.Elapsed, l.Elapsed)
		}
	}
}

// TestE5FastPathDeterminism: everything is virtual-clock driven, so a
// rerun gives identical E5 rows — batching must not introduce ordering
// nondeterminism.
func TestE5FastPathDeterminism(t *testing.T) {
	first, err := firstFastPath()
	if err != nil {
		t.Fatal(err)
	}
	again, err := RunFioFastPath()
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, FastPathRows(first), FastPathRows(again))
}
