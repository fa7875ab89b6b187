// Package workloads implements the IO workload generators the paper's
// evaluation uses: fio (§6.3 B/C) and the Phoronix disk suite (§6.3 A)
// — Compile Bench, DBENCH, FS-Mark, IOR, PostMark and SQLite.
//
// All generators run against the guest syscall surface or raw guest
// block devices and measure elapsed *virtual* time, so their results
// reflect the cost model rather than host noise.
package workloads

import (
	"fmt"
	"math/rand"
	"time"

	"vmsh/internal/guestos"
	"vmsh/internal/hostsim"
	"vmsh/internal/storage"
	"vmsh/internal/vclock"
	"vmsh/internal/virtio"
)

// FioSpec describes one fio job.
type FioSpec struct {
	Name   string
	RW     string // "read", "write", "randread", "randwrite"
	BS     int    // block size in bytes
	Total  int64  // bytes to transfer
	QD     int    // io depth (latency amortisation)
	Direct bool   // O_DIRECT (file targets only; device IO is direct)
	Seed   int64
	// Batch submits QD requests per doorbell when the target supports
	// it (the virtio-blk fast path); otherwise ops go one at a time.
	Batch bool
}

// FioResult is one job's outcome in virtual time.
type FioResult struct {
	Spec    FioSpec
	Elapsed time.Duration
	Bytes   int64
	Ops     int64
	MBps    float64
	IOPS    float64
}

func (r FioResult) String() string {
	return fmt.Sprintf("%-24s %8.1f MB/s %10.0f IOPS", r.Spec.Name, r.MBps, r.IOPS)
}

func finish(spec FioSpec, elapsed time.Duration) FioResult {
	ops := spec.Total / int64(spec.BS)
	sec := elapsed.Seconds()
	if sec <= 0 {
		sec = 1e-12
	}
	return FioResult{
		Spec: spec, Elapsed: elapsed, Bytes: spec.Total, Ops: ops,
		MBps: float64(spec.Total) / 1e6 / sec,
		IOPS: float64(ops) / sec,
	}
}

func (s FioSpec) isWrite() bool { return s.RW == "write" || s.RW == "randwrite" }
func (s FioSpec) isRandom() bool {
	return s.RW == "randread" || s.RW == "randwrite"
}

// offsets yields the op offset sequence.
func (s FioSpec) offsets(span int64) []int64 {
	n := int(s.Total / int64(s.BS))
	out := make([]int64, n)
	if s.isRandom() {
		rnd := rand.New(rand.NewSource(s.Seed + 77))
		blocks := span / int64(s.BS)
		for i := range out {
			out[i] = rnd.Int63n(blocks) * int64(s.BS)
		}
		return out
	}
	for i := range out {
		out[i] = (int64(i) * int64(s.BS)) % span
	}
	return out
}

// BatchTarget is a block target that accepts a whole queue-depth burst
// behind one doorbell (virtio.BlkDriver's fast path).
type BatchTarget interface {
	SubmitBatch(reqs []virtio.BlkReq) error
}

// FioOnDevice runs a job against a raw block device from inside the
// guest (the /dev/vdX direct-IO path of Figure 6's left panels). The
// queue depth propagates to the backing disk: with qd outstanding
// commands the device amortises its latency, whatever path the
// requests take to reach it.
func FioOnDevice(h *hostsim.Host, dev storage.BlockBackend, spec FioSpec) (FioResult, error) {
	clock, costs := h.Clock, h.Costs
	if spec.QD < 1 {
		spec.QD = 1
	}
	h.Disk.QueueDepth = spec.QD
	defer func() { h.Disk.QueueDepth = 1 }()
	span := dev.Size()
	if span > 1<<30 {
		span = 1 << 30
	}
	buf := make([]byte, spec.BS)
	for i := range buf {
		buf[i] = byte(i)
	}
	start := clock.Now()
	offs := spec.offsets(span)
	if bt, ok := dev.(BatchTarget); ok && spec.Batch {
		// Fast path: each op still pays its guest submission cost, but
		// the driver hands QD of them to the device per doorbell.
		typ := uint32(virtio.BlkTIn)
		if spec.isWrite() {
			typ = virtio.BlkTOut
		}
		bufs := make([][]byte, spec.QD)
		for i := range bufs {
			b := make([]byte, spec.BS)
			copy(b, buf)
			bufs[i] = b
		}
		for len(offs) > 0 {
			n := spec.QD
			if n > len(offs) {
				n = len(offs)
			}
			reqs := make([]virtio.BlkReq, n)
			for i := 0; i < n; i++ {
				clock.Advance(costs.GuestSyscall + costs.BlockLayerOp)
				reqs[i] = virtio.BlkReq{Typ: typ, Off: offs[i], Buf: bufs[i]}
			}
			if err := bt.SubmitBatch(reqs); err != nil {
				return FioResult{}, fmt.Errorf("fio %s: %w", spec.Name, err)
			}
			offs = offs[n:]
		}
		return finish(spec, clock.Since(start)), nil
	}
	for _, off := range offs {
		clock.Advance(costs.GuestSyscall + costs.BlockLayerOp)
		var err error
		if spec.isWrite() {
			err = dev.WriteAt(off, buf)
		} else {
			err = dev.ReadAt(off, buf)
		}
		if err != nil {
			return FioResult{}, fmt.Errorf("fio %s at %d: %w", spec.Name, off, err)
		}
	}
	return finish(spec, clock.Since(start)), nil
}

// FioOnFile runs a job against a file path inside the guest (the
// "File IO" panels of Figure 6). The file is laid out first; the laying
// out is not measured.
func FioOnFile(p *guestos.Proc, path string, spec FioSpec) (FioResult, error) {
	if spec.QD < 1 {
		spec.QD = 1
	}
	k := pKernelClock(p)
	span := spec.Total
	if span < int64(spec.BS) {
		span = int64(spec.BS)
	}
	// Preallocate the file (unmeasured).
	prep, err := p.Open(path, guestos.OCreate|guestos.OWronly, 0o644)
	if err != nil {
		return FioResult{}, err
	}
	chunk := make([]byte, 1<<20)
	for off := int64(0); off < span; off += int64(len(chunk)) {
		n := int64(len(chunk))
		if off+n > span {
			n = span - off
		}
		if _, err := prep.WriteAt(chunk[:n], off); err != nil {
			return FioResult{}, err
		}
	}
	if err := prep.Fsync(); err != nil {
		return FioResult{}, err
	}
	prep.Close()
	// fio's invalidate=1: drop the page cache the layout phase
	// populated, so the measured phase faces cold caches.
	if err := p.Kernel().DropCaches(); err != nil {
		return FioResult{}, err
	}

	flags := guestos.ORdonly
	if spec.isWrite() {
		flags = guestos.OWronly
	}
	if spec.Direct {
		flags |= guestos.ODirect
	}
	f, err := p.Open(path, flags, 0o644)
	if err != nil {
		return FioResult{}, err
	}
	defer f.Close()

	buf := make([]byte, spec.BS)
	start := k.Now()
	for _, off := range spec.offsets(span) {
		var err error
		if spec.isWrite() {
			_, err = f.WriteAt(buf, off)
		} else {
			_, err = f.ReadAt(buf, off)
		}
		if err != nil {
			return FioResult{}, fmt.Errorf("fio %s: %w", spec.Name, err)
		}
	}
	if spec.isWrite() {
		// Buffered writes are only finished once written back.
		if !spec.Direct {
			if err := f.Fsync(); err != nil {
				return FioResult{}, err
			}
		}
	}
	return finish(spec, k.Now()-start), nil
}

// pKernelClock digs the clock out of a guest process.
func pKernelClock(p *guestos.Proc) *vclock.Clock { return p.Kernel().Clock() }

// StandardFigure6Specs returns the four fio jobs of Figure 6:
// throughput (256 KiB sequential) and IOPS (4 KiB sequential), read
// and write.
func StandardFigure6Specs(total int64) []FioSpec {
	return []FioSpec{
		{Name: "seqread-256k", RW: "read", BS: 256 * 1024, Total: total, QD: 32},
		{Name: "seqwrite-256k", RW: "write", BS: 256 * 1024, Total: total, QD: 32},
		{Name: "seqread-4k", RW: "read", BS: 4096, Total: total / 4, QD: 32},
		{Name: "seqwrite-4k", RW: "write", BS: 4096, Total: total / 4, QD: 32},
	}
}
