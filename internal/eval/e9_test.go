package eval

import (
	"runtime/metrics"
	"testing"
)

// heapAllocBytes reads the cumulative bytes allocated on the heap.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// fleetStormBytesPerLifecycle is the heap allocation budget of one
// storm VM lifecycle (launch, attach, exec, detach, RAM hash): about
// 1.5x the 36.5 MB measured with sparse page stores. Dense guest RAM
// and host images allocated 143 MB per lifecycle.
const fleetStormBytesPerLifecycle = 52 << 20

// TestFleetStormSmall is E9 at CI scale: a 40-VM storm swept at
// workers=1 and 2 must complete, report real throughput, produce
// identical determinism digests at both worker counts, and stay within
// its heap allocation budget per VM lifecycle.
func TestFleetStormSmall(t *testing.T) {
	before := heapAllocBytes()
	res, err := RunFleetStorm(40, []int{1, 2}, 7)
	if err != nil {
		t.Fatal(err)
	}
	lifecycles := uint64(40 * len(res.Runs))
	if per := (heapAllocBytes() - before) / lifecycles; per > fleetStormBytesPerLifecycle {
		t.Errorf("%d lifecycles allocated %d bytes each, budget %d", lifecycles, per, fleetStormBytesPerLifecycle)
	}
	if len(res.Runs) != 2 {
		t.Fatalf("runs %d, want 2", len(res.Runs))
	}
	for _, run := range res.Runs {
		if run.EventsPerSec <= 0 || run.VMsPerSec <= 0 {
			t.Errorf("workers=%d: no throughput: %+v", run.Workers, run)
		}
		if run.Events < 40 {
			t.Errorf("workers=%d: only %d events for 40 VM cycles", run.Workers, run.Events)
		}
		if run.Messages == 0 {
			t.Errorf("workers=%d: no cross-shard messages merged", run.Workers)
		}
		if run.Digest != res.Runs[0].Digest {
			t.Errorf("workers=%d: digest %s, workers=1 %s", run.Workers, run.Digest, res.Runs[0].Digest)
		}
		if run.MaxVTimeMS != res.Runs[0].MaxVTimeMS {
			t.Errorf("workers=%d: max vtime moved: %v vs %v",
				run.Workers, run.MaxVTimeMS, res.Runs[0].MaxVTimeMS)
		}
	}
	if v := rowValue(t, res.Rows(), "deterministic"); v != true {
		t.Errorf("deterministic row is %v", v)
	}
}

// TestFleetStormSeedSensitivity: different seeds must produce
// different digests (the digest actually covers the run, rather than
// hashing constants).
func TestFleetStormSeedSensitivity(t *testing.T) {
	a, err := RunFleetStorm(8, []int{1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFleetStorm(8, []int{1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Runs[0].Digest == b.Runs[0].Digest {
		t.Fatalf("seeds 1 and 2 produced the same digest %s", a.Runs[0].Digest)
	}
}

// TestFleetPlanDistribution pins the shard planner: cycles sum to the
// VM count and the plan is a pure function of its inputs.
func TestFleetPlanDistribution(t *testing.T) {
	plans := planFleet(103, 10, 42)
	total := 0
	for _, p := range plans {
		total += p.cycles
	}
	if total != 103 {
		t.Fatalf("planned %d cycles for 103 VMs", total)
	}
	again := planFleet(103, 10, 42)
	for i := range plans {
		if plans[i] != again[i] {
			t.Fatalf("plan not deterministic at shard %d", i)
		}
	}
}
