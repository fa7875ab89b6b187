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

// FastPathRows is the fast-path sweep's part of E5's ledger: each
// mode's virtual time, process_vm calls, interrupts and bytes moved,
// all costs, then its rate per job (as fioRate), invariants.
func FastPathRows(modes []FastPathMode) []ledger.Row {
	l := ledger.Builder{Exp: "e5"}
	for _, m := range modes {
		l.Cost(m.Name+".virtual_time_ns", float64(m.VirtualTime), "ns")
		l.Cost(m.Name+".procvm_calls", float64(m.ProcVMCalls), "calls")
		l.Cost(m.Name+".interrupts", float64(m.Interrupts), "irqs")
		l.Cost(m.Name+".bytes_moved", float64(m.BytesMoved), "bytes")
		for _, r := range m.Results {
			v, unit := fioRate(r)
			l.Invariant(m.Name+"."+r.Spec.Name, v, unit)
		}
	}
	return l.Rows
}

// RunFioFastPath runs the fast-path sweep and returns both modes, fast
// first. The fio jobs submit queue-depth bursts in both modes, so the
// columns isolate exactly what the device-side fast path saves:
// crossings and interrupts, not workload shape.
func RunFioFastPath() ([]FastPathMode, error) {
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
