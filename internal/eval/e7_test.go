package eval

import "testing"

func TestE7NetworkSweep(t *testing.T) {
	results, err := RunNetwork(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(StandardE7Scenarios()) {
		t.Fatalf("got %d results", len(results))
	}
	byName := map[string]int{}
	for i, r := range results {
		byName[r.Spec.Name] = i
		if r.PingsSent != r.Spec.Pings {
			t.Fatalf("%s: sent %d of %d pings", r.Spec.Name, r.PingsSent, r.Spec.Pings)
		}
	}
	base := results[byName["base link"]]
	if base.PingsLost != 0 || base.MBps <= 0 || base.RTTMean <= 0 {
		t.Fatalf("base link result %v", base)
	}
	// The sweep axes must move the figures in the modelled direction.
	if fat := results[byName["10x bandwidth"]]; fat.MBps <= base.MBps {
		t.Fatalf("10x bandwidth goodput %.1f not above base %.1f", fat.MBps, base.MBps)
	}
	if lag := results[byName["10x latency"]]; lag.RTTMean <= base.RTTMean {
		t.Fatalf("10x latency RTT %v not above base %v", lag.RTTMean, base.RTTMean)
	}
	drop := results[byName["drop 1-in-16"]]
	if drop.StreamRecvFrames >= drop.StreamSentFrames {
		t.Fatalf("lossy link delivered %d of %d frames", drop.StreamRecvFrames, drop.StreamSentFrames)
	}
	if rows := NetworkRows(results); len(rows) != 3*len(results) {
		t.Fatalf("ledger has %d rows", len(rows))
	}
}

func TestE7Deterministic(t *testing.T) {
	// Same seed, identical virtual-clock figures, the legacy device
	// path's base link among them.
	r1, err := RunNetwork(42)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunNetwork(42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("scenario %d differs:\n%v\nvs\n%v", i, r1[i], r2[i])
		}
	}
	sameRows(t, NetworkRows(r1), NetworkRows(r2))
	// A different seed reshuffles the traffic mix; RTT extremes depend
	// on the payload draw, so at least one figure should move.
	r3, err := RunNetwork(43)
	if err != nil {
		t.Fatal(err)
	}
	a, b := NetworkRows(r1), NetworkRows(r3)
	moved := false
	for i := range a {
		if a[i].Value != b[i].Value {
			moved = true
		}
	}
	if !moved {
		t.Fatal("seed had no effect on the sweep")
	}
}
