package eval

import (
	"fmt"

	"vmsh/internal/core"
	"vmsh/internal/hostsim"
	"vmsh/internal/obs"
	"vmsh/internal/workloads"
)

// TraceRun bundles the artifacts of one traced run: the tracer that
// recorded it (for Perfetto export), the live session (for metrics)
// and the usual mode results.
type TraceRun struct {
	Host    *hostsim.Host
	Trace   *obs.Tracer
	Session *core.Session
	Mode    FastPathMode
}

// TraceFioFastPath runs the E5 fast-path fio sweep once with tracing
// enabled from before the attach, so the exported trace covers the
// attach phases, every virtqueue service pass and every request's
// avail-to-used latency. Everything is virtual-clock driven, so two
// calls produce byte-identical WriteChrome output.
func TraceFioFastPath() (*TraceRun, error) {
	run, err := traceFio(workloads.StandardFigure6Specs(fioTotalBytes))
	if err != nil {
		return nil, err
	}
	return run, nil
}

// TraceFioSmall is the one-small-job variant used by the golden
// span-tree test and CI trace smoke: a single 64 KiB sequential read
// at queue depth 8.
func TraceFioSmall() (*TraceRun, error) {
	return traceFio([]workloads.FioSpec{
		{Name: "smoke-read-4k", RW: "read", BS: 4096, Total: 64 << 10, QD: 8},
	})
}

func traceFio(specs []workloads.FioSpec) (*TraceRun, error) {
	h := hostsim.NewHost()
	inst, err := fioVM(h)
	if err != nil {
		return nil, err
	}
	sess, err := attachScratchOpts(h, inst, core.Options{
		Trap: core.TrapIoregionfd, Trace: true,
	})
	if err != nil {
		return nil, err
	}
	vmshDev, ok := inst.GuestDisk("vmshblk0")
	if !ok {
		return nil, fmt.Errorf("vmshblk0 missing")
	}
	mode := FastPathMode{Name: "traced"}
	for _, spec := range specs {
		spec.Batch = true
		r, err := workloads.FioOnDevice(h, vmshDev, spec)
		if err != nil {
			return nil, fmt.Errorf("traced fast-path %s: %w", spec.Name, err)
		}
		mode.Results = append(mode.Results, r)
		mode.VirtualTime += r.Elapsed
	}
	st := sess.Stats()
	mode.ProcVMCalls = st.ProcVMCalls
	mode.Interrupts = st.Interrupts
	mode.BytesMoved = st.BytesRead + st.BytesWritten
	return &TraceRun{Host: h, Trace: h.Trace, Session: sess, Mode: mode}, nil
}
