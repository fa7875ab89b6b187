package eval

import (
	"fmt"
	"time"

	"vmsh/internal/core"
	"vmsh/internal/hostsim"
	"vmsh/internal/ledger"
	"vmsh/internal/workloads"
)

// FastPathMode is one mode of the E5 fast-path sweep: the same batched
// fio jobs against vmsh-blk with the device either batching guest-
// memory crossings (fast) or replaying the per-chain legacy pattern.
type FastPathMode struct {
	Name        string
	Results     []workloads.FioResult
	VirtualTime time.Duration // summed measured elapsed across jobs
	ProcVMCalls int64         // simulated process_vm_* syscalls issued
	Interrupts  int64         // device interrupts raised
	BytesMoved  int64         // bytes through process_vm (both ways)
}

// FastPathRows is E5's ledger: each mode's virtual time, process_vm
// calls, interrupts and bytes moved, all costs.
func FastPathRows(modes []FastPathMode) []ledger.Row {
	l := ledgerRows{exp: "e5"}
	for _, m := range modes {
		l.cost(m.Name+".virtual_time_ns", float64(m.VirtualTime), "ns")
		l.cost(m.Name+".procvm_calls", float64(m.ProcVMCalls), "calls")
		l.cost(m.Name+".interrupts", float64(m.Interrupts), "irqs")
		l.cost(m.Name+".bytes_moved", float64(m.BytesMoved), "bytes")
	}
	return l.rows
}

// fastPathModes runs the sweep and returns both modes, fast first.
// The driver submits queue-depth bursts in both modes, so the columns
// isolate exactly what the device-side fast path saves: crossings and
// interrupts, not workload shape.
func fastPathModes() ([]FastPathMode, error) {
	var modes []FastPathMode
	for _, m := range []struct {
		name   string
		legacy bool
	}{{"fast", false}, {"legacy", true}} {
		h := hostsim.NewHost()
		inst, err := fioVM(h)
		if err != nil {
			return nil, err
		}
		sess, err := attachScratchOpts(h, inst, core.Options{
			Trap: core.TrapIoregionfd, LegacyVirtio: m.legacy,
		})
		if err != nil {
			return nil, err
		}
		vmshDev, ok := inst.GuestDisk("vmshblk0")
		if !ok {
			return nil, fmt.Errorf("vmshblk0 missing")
		}
		before := sess.Stats()
		mode := FastPathMode{Name: m.name}
		for _, spec := range workloads.StandardFigure6Specs(fioTotalBytes) {
			spec.Batch = true
			r, err := workloads.FioOnDevice(h, vmshDev, spec)
			if err != nil {
				return nil, fmt.Errorf("fast-path %s %s: %w", m.name, spec.Name, err)
			}
			mode.Results = append(mode.Results, r)
			mode.VirtualTime += r.Elapsed
		}
		after := sess.Stats()
		mode.ProcVMCalls = after.ProcVMCalls - before.ProcVMCalls
		mode.Interrupts = after.Interrupts - before.Interrupts
		mode.BytesMoved = after.BytesRead - before.BytesRead + after.BytesWritten - before.BytesWritten
		modes = append(modes, mode)
	}
	return modes, nil
}

// RunFioFastPath regenerates the fast-path-vs-legacy comparison table:
// per-job virtual-time columns for both modes plus the crossing and
// interrupt reduction ratios the optimisation is about.
func RunFioFastPath() (*Table, []FastPathMode, error) {
	modes, err := fastPathModes()
	if err != nil {
		return nil, nil, err
	}
	fast, legacy := modes[0], modes[1]
	tbl := &Table{ID: "E5 / fast path",
		Title: "vmsh-blk batched fast path vs legacy per-chain service (ioregionfd, QD 32)"}
	for i, r := range fast.Results {
		lr := legacy.Results[i]
		unit, fv, lv := "MB/s", r.MBps, lr.MBps
		if r.Spec.BS == 4096 {
			unit, fv, lv = "kIOPS", r.IOPS/1000, lr.IOPS/1000
		}
		tbl.Rows = append(tbl.Rows,
			Row{Name: "fast " + r.Spec.Name, Measured: fv, Unit: unit},
			Row{Name: "legacy " + r.Spec.Name, Measured: lv, Unit: unit},
		)
	}
	ratio := func(a, b int64) float64 {
		if a == 0 {
			return 0
		}
		return float64(b) / float64(a)
	}
	tbl.Rows = append(tbl.Rows,
		Row{Name: "process_vm calls fast", Measured: float64(fast.ProcVMCalls), Unit: "calls"},
		Row{Name: "process_vm calls legacy", Measured: float64(legacy.ProcVMCalls), Unit: "calls"},
		Row{Name: "process_vm call reduction", Measured: ratio(fast.ProcVMCalls, legacy.ProcVMCalls), Unit: "x",
			Note: "legacy/fast; >=5x required"},
		Row{Name: "interrupts fast", Measured: float64(fast.Interrupts), Unit: "irqs"},
		Row{Name: "interrupts legacy", Measured: float64(legacy.Interrupts), Unit: "irqs"},
		Row{Name: "interrupt reduction", Measured: ratio(fast.Interrupts, legacy.Interrupts), Unit: "x",
			Note: "legacy/fast; >=2x required"},
		Row{Name: "virtual time fast", Measured: fast.VirtualTime.Seconds() * 1000, Unit: "ms"},
		Row{Name: "virtual time legacy", Measured: legacy.VirtualTime.Seconds() * 1000, Unit: "ms"},
	)
	return tbl, modes, nil
}
