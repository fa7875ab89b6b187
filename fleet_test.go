package vmsh_test

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"vmsh"
	"vmsh/internal/mem"
	"vmsh/internal/netsim"
)

// fleetRun runs a small real-VM fleet — every shard launches a VM,
// attaches with the tool image, execs through the overlay, detaches —
// and returns everything determinism is judged by: per-shard final
// vtimes, per-shard RAM hashes, merged metrics text, and the raw bytes
// of shard 0's crossing recording.
func fleetRun(t *testing.T, shards, workers int) ([]time.Duration, [][]uint64, string, []byte) {
	t.Helper()
	recPath := filepath.Join(t.TempDir(), "shard0.rec")
	lab := vmsh.NewLab()
	lab.SetWorkers(workers)
	fleet := lab.NewFleet(shards)

	rams := make([][]uint64, shards)
	for i := 0; i < shards; i++ {
		i := i
		// Stagger shard starts so shard clocks disagree — the merge
		// must still be deterministic.
		start := time.Duration(i) * 10 * time.Millisecond
		fleet.Schedule(i, start, "storm", func(sl *vmsh.Lab) error {
			vm, err := sl.LaunchVM(
				vmsh.WithHypervisor(vmsh.QEMU),
				vmsh.WithMemMiB(32),
				vmsh.WithVMSeed(int64(1000+i)),
				vmsh.WithRootFS(vmsh.GuestRoot(fmt.Sprintf("fleet-%d", i))),
			)
			if err != nil {
				return err
			}
			img, err := sl.BuildImage("tools.img", vmsh.ToolImage())
			if err != nil {
				return err
			}
			opts := []vmsh.Option{vmsh.WithImage(img)}
			if i == 0 {
				opts = append(opts, vmsh.WithRecord(recPath),
					vmsh.WithRecordLabel("fleet-shard0", 42))
			}
			sess, err := sl.Attach(vm, opts...)
			if err != nil {
				return err
			}
			if _, err := sess.Exec("ls /var/lib/vmsh/bin"); err != nil {
				return err
			}
			if err := sess.Detach(); err != nil {
				return err
			}
			for _, s := range vm.VM.MemSlots() {
				h := fnv.New64a()
				page := make([]byte, mem.PageSize)
				for off := uint64(0); off < s.Phys.Size(); off += mem.PageSize {
					b := page[:min(mem.PageSize, s.Phys.Size()-off)]
					s.Phys.ReadAt(s.Phys.Base+mem.GPA(off), b)
					h.Write(b)
				}
				rams[i] = append(rams[i], h.Sum64())
			}
			return nil
		})
	}
	if _, err := fleet.Run(); err != nil {
		t.Fatalf("fleet run (workers=%d): %v", workers, err)
	}
	rec, err := os.ReadFile(recPath)
	if err != nil {
		t.Fatalf("shard 0 recording: %v", err)
	}
	return fleet.VTimes(), rams, fleet.Metrics().Text(), rec
}

// TestFleetWorkerInvariance is the headline determinism claim at the
// public surface: the same fleet at workers=1, 3, and 8 ends with
// bit-identical virtual times, guest RAM, merged metrics, and crossing
// recordings.
func TestFleetWorkerInvariance(t *testing.T) {
	const shards = 4
	refVT, refRAM, refMetrics, refRec := fleetRun(t, shards, 1)
	for i, vt := range refVT {
		if vt <= 0 {
			t.Fatalf("shard %d never advanced: %v", i, vt)
		}
	}
	for _, workers := range []int{3, 8} {
		vt, ram, metrics, rec := fleetRun(t, shards, workers)
		if !reflect.DeepEqual(vt, refVT) {
			t.Errorf("workers=%d: vtimes %v, want %v", workers, vt, refVT)
		}
		if !reflect.DeepEqual(ram, refRAM) {
			t.Errorf("workers=%d: guest RAM hashes diverged", workers)
		}
		if metrics != refMetrics {
			t.Errorf("workers=%d: merged metrics diverged", workers)
		}
		if string(rec) != string(refRec) {
			t.Errorf("workers=%d: shard 0 recording diverged (%d vs %d bytes)",
				workers, len(rec), len(refRec))
		}
	}
}

// fleetTraceRun runs a two-shard real-VM fleet with the telemetry
// plane on — tracing, telemetry, watchdog — plus one bridged alert
// frame whose causal flow crosses the shard boundary, and returns the
// merged trace plus its rendered Chrome JSON bytes.
func fleetTraceRun(t *testing.T, workers int) (*vmsh.FleetTrace, string) {
	t.Helper()
	lab := vmsh.NewLab()
	lab.SetWorkers(workers)
	fleet := lab.NewFleet(2)
	fleet.EnableTrace()
	fleet.EnableTelemetry(time.Millisecond, 16)
	fleet.SetWatchdog(vmsh.FleetWatchdog{StallWindows: 8, QueueDepth: 64})

	swA := fleet.Lab(0).NewSwitch()
	swB := fleet.Lab(1).NewSwitch()
	alerter := swA.NewPort("alerter", vmsh.LinkParams{})
	fleet.Bridge(0, swA, 1, swB, vmsh.LinkParams{})
	collector := swB.NewPort("collector", vmsh.LinkParams{})
	collectorTrack := fleet.Lab(1).Trace().Track("collector")
	collector.Deliver = func([]byte) { collectorTrack.FlowEnd("flow", "alert.rx") }
	alertTrack := fleet.Lab(0).Trace().Track("alerter")

	for i := 0; i < 2; i++ {
		i := i
		fleet.Schedule(i, time.Duration(i)*5*time.Millisecond, "monitor", func(sl *vmsh.Lab) error {
			vm, err := sl.LaunchVM(
				vmsh.WithMemMiB(32),
				vmsh.WithVMSeed(int64(i)),
				vmsh.WithRootFS(vmsh.GuestRoot(fmt.Sprintf("trace-%d", i))),
			)
			if err != nil {
				return err
			}
			img, err := sl.BuildImage("tools.img", vmsh.ToolImage())
			if err != nil {
				return err
			}
			sess, err := sl.Attach(vm, vmsh.WithImage(img))
			if err != nil {
				return err
			}
			if _, err := sess.Exec("ls /var/lib/vmsh/bin"); err != nil {
				return err
			}
			if err := sess.Detach(); err != nil {
				return err
			}
			if i == 0 {
				alertTrack.FlowBegin("flow", "alert")
				swA.Send(alerter, netsim.BuildFrame(netsim.Broadcast, alerter.MAC(),
					netsim.EtherTypeVMSH, []byte("alert")))
				sl.Trace().ClearFlow()
			}
			return nil
		})
	}
	if _, err := fleet.Run(); err != nil {
		t.Fatalf("fleet run (workers=%d): %v", workers, err)
	}
	var sb strings.Builder
	if err := fleet.WriteChrome(&sb); err != nil {
		t.Fatal(err)
	}
	return fleet.Trace(), sb.String()
}

// TestFleetTraceWorkerInvariance pins the fleet telemetry plane's
// acceptance criterion at the public surface: Fleet.Trace() renders
// byte-identical Chrome JSON at workers 1/2/4/8, with the virtio blk
// request flows and the bridged cross-shard flow all paired.
func TestFleetTraceWorkerInvariance(t *testing.T) {
	ref, refChrome := fleetTraceRun(t, 1)
	if err := ref.ValidateFlows(); err != nil {
		t.Fatal(err)
	}
	fs := ref.FlowStats()
	if fs.Begins == 0 {
		t.Fatal("traced fleet recorded no causal flows")
	}
	if fs.CrossShard < 1 {
		t.Fatalf("no flow crossed the shard bridge: %+v", fs)
	}
	for _, workers := range []int{2, 4, 8} {
		if _, chrome := fleetTraceRun(t, workers); chrome != refChrome {
			t.Errorf("workers=%d: Fleet.Trace() bytes diverged from workers=1", workers)
		}
	}
}

// TestFleetRecordingReplays closes the loop on a fleet-made recording
// (E10 semantics under the engine): it must load, replay to the
// recorded final vtime, and live-verify crossing by crossing against
// a fresh fleet re-run of the same seed.
func TestFleetRecordingReplays(t *testing.T) {
	_, _, _, rec := fleetRun(t, 2, 2)
	path := filepath.Join(t.TempDir(), "fleet.rec")
	if err := os.WriteFile(path, rec, 0o644); err != nil {
		t.Fatal(err)
	}
	lg, err := vmsh.ReadRecording(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := vmsh.Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.VTime != time.Duration(lg.Footer.VTime) {
		t.Fatalf("replay ended at %v, recording at %v", res.VTime, time.Duration(lg.Footer.VTime))
	}

	// Verify leg: re-run shard 0's lifecycle in a fresh fleet with a
	// live verifier armed against the fleet-made log. The verifier is
	// built inside the shard's own event so it binds the shard clock.
	lab := vmsh.NewLab()
	lab.SetWorkers(2)
	fleet := lab.NewFleet(2)
	var verifier *vmsh.Verifier
	for i := 0; i < 2; i++ {
		i := i
		fleet.Schedule(i, time.Duration(i)*10*time.Millisecond, "verify", func(sl *vmsh.Lab) error {
			vm, err := sl.LaunchVM(
				vmsh.WithHypervisor(vmsh.QEMU),
				vmsh.WithMemMiB(32),
				vmsh.WithVMSeed(int64(1000+i)),
				vmsh.WithRootFS(vmsh.GuestRoot(fmt.Sprintf("fleet-%d", i))),
			)
			if err != nil {
				return err
			}
			img, err := sl.BuildImage("tools.img", vmsh.ToolImage())
			if err != nil {
				return err
			}
			opts := []vmsh.Option{vmsh.WithImage(img)}
			if i == 0 {
				verifier = sl.NewVerifier(lg)
				opts = append(opts, vmsh.WithVerifier(verifier))
			}
			sess, err := sl.Attach(vm, opts...)
			if err != nil {
				return err
			}
			if _, err := sess.Exec("ls /var/lib/vmsh/bin"); err != nil {
				return err
			}
			return sess.Detach()
		})
	}
	if _, err := fleet.Run(); err != nil {
		t.Fatal(err)
	}
	if d := verifier.Result(); d != nil {
		t.Fatalf("fleet re-run diverged from its recording: %v", d)
	}
}

// TestFleetBridgeCrossShardPing runs guests on two different shards
// attached to shard-local switches trunked by a fleet bridge, and has
// one ping the other across the shard boundary. The echo request and
// the auto-reply each cross the trunk in a later engine window (the
// conservative relaxation), so the sender's shell reports a timeout —
// the packet counters prove the round trip happened.
func TestFleetBridgeCrossShardPing(t *testing.T) {
	lab := vmsh.NewLab()
	lab.SetWorkers(2)
	fleet := lab.NewFleet(2)

	swA := fleet.Lab(0).NewSwitch()
	swB := fleet.Lab(1).NewSwitch()
	// Pad switch B's port numbering so guest MACs — and therefore the
	// 10.0.0.x addresses derived from them — stay distinct across the
	// bridged fabric (port MACs embed only the per-switch port ID).
	swB.NewPort("pad", vmsh.LinkParams{})
	fleet.Bridge(0, swA, 1, swB, vmsh.LinkParams{})

	sessions := make([]*vmsh.Session, 2)
	vms := make([]*vmsh.VM, 2)
	for i := 0; i < 2; i++ {
		i := i
		sw := swA
		if i == 1 {
			sw = swB
		}
		fleet.Schedule(i, 0, "boot", func(sl *vmsh.Lab) error {
			vm, err := sl.LaunchVM(
				vmsh.WithMemMiB(32),
				vmsh.WithRootFS(vmsh.GuestRoot(fmt.Sprintf("net-%d", i))),
			)
			if err != nil {
				return err
			}
			vms[i] = vm
			img, err := sl.BuildImage("tools.img", vmsh.ToolImage())
			if err != nil {
				return err
			}
			sessions[i], err = sl.Attach(vm, vmsh.WithImage(img), vmsh.WithNet(sw))
			return err
		})
	}
	if _, err := fleet.Run(); err != nil {
		t.Fatal(err)
	}
	ifcA, ok := vms[0].Kernel.IfaceByName("vmsh0")
	if !ok {
		t.Fatal("guest 0: vmsh0 not registered")
	}
	ifcB, ok := vms[1].Kernel.IfaceByName("vmsh0")
	if !ok {
		t.Fatal("guest 1: vmsh0 not registered")
	}
	// Phase 2: guest 0 pings guest 1's address through the trunk.
	fleet.Schedule(0, 0, "ping", func(*vmsh.Lab) error {
		_, err := sessions[0].Exec(fmt.Sprintf("ping %s 1", ifcB.IP))
		return err
	})
	if _, err := fleet.Run(); err != nil {
		t.Fatal(err)
	}
	if ifcB.RxPackets < 1 {
		t.Errorf("echo request never crossed the bridge (guest 1 rx=%d)", ifcB.RxPackets)
	}
	if ifcA.RxPackets < 1 {
		t.Errorf("echo reply never crossed back (guest 0 rx=%d)", ifcA.RxPackets)
	}
}
