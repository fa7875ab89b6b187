package eval

import (
	"fmt"
	"math"
	"time"

	"vmsh/internal/core"
	"vmsh/internal/fsimage"
	"vmsh/internal/hostsim"
	"vmsh/internal/hypervisor"
	"vmsh/internal/ledger"
	"vmsh/internal/simplefs"
	"vmsh/internal/workloads"
)

// PhoronixRow is one Figure 5 row: relative slowdown of vmsh-blk
// against qemu-blk for one workload.
type PhoronixRow struct {
	Name     string
	QemuBlk  time.Duration
	VmshBlk  time.Duration
	Relative float64 // vmsh / qemu; > 1 means vmsh slower
}

// RunPhoronix regenerates Figure 5 (E4): the Phoronix disk suite on a
// filesystem served by qemu-blk versus the same filesystem served by
// vmsh-blk, inside the same guest.
// The legacy device path is pinned so the figure keeps the paper's
// measured shape; RunPhoronixOpts with the default options runs the
// fast path for PhoronixRows' comparison column.
func RunPhoronix() ([]PhoronixRow, error) {
	return RunPhoronixOpts(core.Options{LegacyVirtio: true})
}

// RunPhoronixOpts allows ablation variants (e.g. BounceCopy).
func RunPhoronixOpts(extra core.Options) ([]PhoronixRow, error) {
	h := hostsim.NewHost()
	inst, err := hypervisor.Launch(h, hypervisor.Config{
		Kind:    hypervisor.QEMU,
		RAMSize: 512 << 20,
		RootFS:  fsimage.GuestRoot("phoronix"),
		ExtraDisks: []hypervisor.DiskSpec{
			{GuestName: "vdb", Size: 512 << 20, Mkfs: true, MountAt: "/mnt/qemu"},
		},
	})
	if err != nil {
		return nil, err
	}
	kern := inst.Kernel

	img := h.CreateFile("phoronix-vmsh.img", 512<<20, false)
	if err := fsimage.Build(hostsim.NewHostFileDevice(img), fsimage.Manifest{}); err != nil {
		return nil, err
	}
	v := core.New(h)
	opts := extra
	opts.Image = img
	opts.Minimal = true
	if _, err := v.Attach(inst.Proc.PID, opts); err != nil {
		return nil, err
	}
	vmshDrv, ok := kern.BlockDevByName("vmshblk0")
	if !ok {
		return nil, fmt.Errorf("vmshblk0 missing")
	}
	fs, err := simplefs.Mount(vmshDrv)
	if err != nil {
		return nil, err
	}
	fs.NowFn = kern.NowSec
	kern.InitProc.NS.AddMount("/mnt/vmsh", fs)

	var rows []PhoronixRow
	for i, bench := range workloads.PhoronixDiskSuite() {
		run := func(mount string) (time.Duration, error) {
			if err := kern.DropCaches(); err != nil {
				return 0, err
			}
			p := inst.NewGuestProc("pts")
			dir := fmt.Sprintf("%s/run-%02d", mount, i)
			d, err := workloads.RunPhoronix(bench, p, dir)
			if err != nil {
				return 0, err
			}
			// Clean the scratch tree between benchmarks (untimed).
			if err := p.RemoveAll(dir); err != nil {
				return 0, err
			}
			return d, nil
		}
		q, err := run("/mnt/qemu")
		if err != nil {
			return nil, fmt.Errorf("qemu-blk %s: %w", bench.Name, err)
		}
		vm, err := run("/mnt/vmsh")
		if err != nil {
			return nil, fmt.Errorf("vmsh-blk %s: %w", bench.Name, err)
		}
		rows = append(rows, PhoronixRow{
			Name: bench.Name, QemuBlk: q, VmshBlk: vm,
			Relative: float64(vm) / float64(q),
		})
	}
	return rows, nil
}

// PhoronixStats summarises Figure 5: mean, standard deviation, and
// the worst row.
func PhoronixStats(rows []PhoronixRow) (mean, stddev, worst float64, worstName string) {
	if len(rows) == 0 {
		return
	}
	for _, r := range rows {
		mean += r.Relative
		if r.Relative > worst {
			worst, worstName = r.Relative, r.Name
		}
	}
	mean /= float64(len(rows))
	for _, r := range rows {
		d := r.Relative - mean
		stddev += d * d
	}
	stddev = math.Sqrt(stddev / float64(len(rows)))
	return
}

// PhoronixRows is E4's ledger, from a legacy-path run (Figure 5
// proper, RunPhoronix), a fast-path run of the same suite and a
// fast-path run with BounceCopy (design decision D2: the direct
// process_vm copies against the unoptimised bounce buffers). Per
// benchmark: the Figure 5 slowdown of vmsh-blk against qemu-blk and
// vmsh-blk's virtual time in all three runs, all costs. Then the
// figure's summary: average and worst slowdown (costs), their spread
// and the worst benchmark's name (invariants). Last, D2's average
// slowdown on the direct and on the bounce path (costs).
func PhoronixRows(legacy, fast, bounce []PhoronixRow) []ledger.Row {
	l := ledger.Builder{Exp: "e4"}
	for i, r := range legacy {
		l.Cost(r.Name+".relative", r.Relative, "x")
		l.Cost(r.Name+".legacy_ns", float64(r.VmshBlk), "ns")
		l.Cost(r.Name+".fast_ns", float64(fast[i].VmshBlk), "ns")
		l.Cost(r.Name+".bounce_ns", float64(bounce[i].VmshBlk), "ns")
	}
	mean, stddev, worst, worstName := PhoronixStats(legacy)
	l.Cost("average", mean, "x").Paper = 1.5
	l.Invariant("stddev", stddev, "x").Paper = 0.6
	// The paper's worst rows are fio direct IO at 2 MB.
	l.Cost("worst", worst, "x").Paper = 3.7
	l.Invariant("worst_bench", worstName, "text")
	fastMean, _, _, _ := PhoronixStats(fast)
	l.Cost("fast_average", fastMean, "x")
	bounceMean, _, _, _ := PhoronixStats(bounce)
	l.Cost("bounce_average", bounceMean, "x")
	return l.Rows
}
