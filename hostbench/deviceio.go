package main

import (
	"fmt"
	"math/rand"
	"time"

	"vmsh"
	"vmsh/internal/core"
	"vmsh/internal/guestos"
)

// deviceIO is one client driving the device data path of two attached
// VMs on one switch: raw vmsh-blk on VM A (a Minimal attach, file
// backend), the tool-image overlay on VM B (cow backend) through
// console Execs, and pings between them. Boot and attach happen only
// in setup, so virtqueue service, process_vm, storage and netsim do
// all the measured work.
type deviceIO struct {
	cfg   config
	lab   *vmsh.Lab
	blk   guestos.BlockDev
	sessA *vmsh.Session
	sessB *vmsh.Session
	ifA   *guestos.Iface
	ifB   *guestos.Iface

	// blocks[k] is where in pool the data last written to VM A's disk
	// block k starts, or -1 while the block still reads as zeros.
	blocks       []int32
	pool         []byte   // seeded write payloads
	files        []string // what /w/f<k> on VM B must read as
	rbuf         []byte
	rng          *rand.Rand
	seqRd, seqWr int64 // sequential cursors
	n            int   // ops of the measured sequence run so far
	dig          *digester
	ctr0         ioCounters
	ctrs         map[string]float64
	dsum         string
}

const (
	scratchSize  = 64 << 20
	ioFiles      = 16
	ioPrefixOps  = 400
	ioWarmupOps  = 200
	ioVMMiB      = 32
	writePoolLen = 256 << 10 // small enough to stay in cache
	blockSize    = 4 << 10
)

var zeroBlock = make([]byte, blockSize)

// ioKinds is the fixed op mix; weights are per mille. Execs are rare
// because Session.Exec copies the session's whole console history, so
// their cost grows with every Exec before them: at a few percent of
// ops they would dominate the run and tie its figures to how far it
// got.
var ioKinds = []struct {
	name   string
	weight int
}{
	{"virtio.blk_read_4k", 290},
	{"virtio.blk_write_4k", 290},
	{"virtio.blk_read_64k", 145},
	{"virtio.blk_write_64k", 145},
	{"virtio.blk_flush", 60},
	{"guestos.exec_write", 5},
	{"guestos.exec_read", 5},
	{"netsim.ping_64", 30},
	{"netsim.ping_1400", 30},
}

func newDeviceIO(cfg config) workload { return &deviceIO{cfg: cfg} }

func (d *deviceIO) prefixOps() int               { return ioPrefixOps }
func (d *deviceIO) digest() string               { return d.dsum }
func (d *deviceIO) counters() map[string]float64 { return d.ctrs }

// setup boots both VMs, attaches each once, creates the files VM B's
// reads come from, and warms up with ops from a separate stream.
func (d *deviceIO) setup(r *runner) error {
	lab := vmsh.NewLab()
	sw := lab.NewSwitch()
	vmA, err := lab.LaunchVM(vmsh.WithVMName("io-a"), vmsh.WithMemMiB(ioVMMiB),
		vmsh.WithVMSeed(d.cfg.seed), vmsh.WithRootFS(vmsh.GuestRoot("io-a")))
	if err != nil {
		return err
	}
	scratch := lab.Host.CreateFile("io-a-scratch.img", scratchSize, false)
	sessA, err := core.New(lab.Host).Attach(vmA.Proc.PID, core.Options{
		Image: scratch, Minimal: true, Storage: "file", Net: sw,
	})
	if err != nil {
		return fmt.Errorf("attach A: %w", err)
	}
	blk, ok := vmA.GuestDisk("vmshblk0")
	if !ok {
		return fmt.Errorf("VM A has no vmshblk0")
	}
	img, err := lab.BuildImage("io-b-tools.img", vmsh.ToolImage())
	if err != nil {
		return err
	}
	vmB, err := lab.LaunchVM(vmsh.WithVMName("io-b"), vmsh.WithMemMiB(ioVMMiB),
		vmsh.WithVMSeed(d.cfg.seed+1), vmsh.WithRootFS(vmsh.GuestRoot("io-b")))
	if err != nil {
		return err
	}
	sessB, err := lab.Attach(vmB, vmsh.WithImage(img), vmsh.WithStorageBackend("cow"), vmsh.WithNet(sw))
	if err != nil {
		return fmt.Errorf("attach B: %w", err)
	}
	ifA, okA := vmA.Kernel.IfaceByName("vmsh0")
	ifB, okB := vmB.Kernel.IfaceByName("vmsh0")
	if !okA || !okB {
		return fmt.Errorf("vmsh0 missing on a VM")
	}
	*d = deviceIO{cfg: d.cfg, lab: lab, blk: blk, sessA: sessA, sessB: sessB, ifA: ifA, ifB: ifB,
		blocks: make([]int32, scratchSize/blockSize), files: make([]string, ioFiles),
		pool: make([]byte, writePoolLen+64<<10), rbuf: make([]byte, 64<<10)}
	rand.New(rand.NewSource(d.cfg.seed ^ 0x5eed)).Read(d.pool)
	for k := range d.blocks {
		d.blocks[k] = -1
	}

	if out, err := sessB.Exec("mkdir /w"); err != nil || out != "" {
		return fmt.Errorf("mkdir /w: %q %v", out, err)
	}
	d.rng = rand.New(rand.NewSource(d.cfg.seed ^ 0x3a7f))
	for k := range d.files {
		token := fmt.Sprintf("%016x", d.rng.Uint64())
		if out, err := sessB.Exec(fmt.Sprintf("echo %s > /w/f%d", token, k)); err != nil || out != "" {
			return fmt.Errorf("creating /w/f%d: %q %v", k, out, err)
		}
		d.files[k] = token + "\n"
	}
	warm := r.warmup()
	for i := 0; i < ioWarmupOps; i++ {
		d.op(warm, -1, d.draw())
	}
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %s", warm.notes[0])
	}
	d.rng = rand.New(rand.NewSource(d.cfg.seed))
	d.dig = newDigester()
	d.ctr0 = d.readCounters()
	return nil
}

func (d *deviceIO) draw() int {
	x := d.rng.Intn(1000)
	for i, k := range ioKinds {
		if x < k.weight {
			return i
		}
		x -= k.weight
	}
	panic("ioKinds weights do not sum to 1000")
}

func (d *deviceIO) step(r *runner) int {
	kind := d.draw()
	vt := d.op(r, int64(d.n), kind)
	d.n++
	if d.n <= ioPrefixOps {
		d.dig.add("%d %d", kind, vt)
		if d.n == ioPrefixOps {
			d.finishPrefix()
		}
	}
	return 1
}

// op runs one op of the given kind and returns the virtual time after
// it. id is -1 for set-up ops.
func (d *deviceIO) op(r *runner, id int64, kind int) time.Duration {
	start := time.Now()
	v0 := d.lab.Clock().Now()
	h := r.tr.begin(opSpan, -1, id, 0)
	err := d.do(r, h, id, kind)
	r.tr.end(h, err != nil)
	v1 := d.lab.Clock().Now()
	r.done(time.Since(start), int64(v1-v0), err)
	return v1
}

func (d *deviceIO) do(r *runner, h handle, id int64, kind int) error {
	name := ioKinds[kind].name
	call := func(fn func() error) error { return r.call(name, h, id, 0, fn) }
	switch name {
	case "virtio.blk_read_4k", "virtio.blk_read_64k":
		n, off := int64(4<<10), d.rng.Int63n(scratchSize>>12)<<12
		if name == "virtio.blk_read_64k" {
			n, off = 64<<10, d.seqRd
			d.seqRd = (d.seqRd + n) % scratchSize
		}
		buf := d.rbuf[:n]
		if err := call(func() error { return d.blk.ReadAt(off, buf) }); err != nil {
			return fmt.Errorf("%s @%d: %w", name, off, err)
		}
		for i := int64(0); i < n; i += blockSize {
			want := zeroBlock
			if src := d.blocks[(off+i)/blockSize]; src >= 0 {
				want = d.pool[src : src+blockSize]
			}
			if err := r.expectBytes(name, off+i, buf[i:i+blockSize], want); err != nil {
				return err
			}
		}
		return nil
	case "virtio.blk_write_4k", "virtio.blk_write_64k":
		n, off := int64(4<<10), d.rng.Int63n(scratchSize>>12)<<12
		if name == "virtio.blk_write_64k" {
			n, off = 64<<10, d.seqWr
			d.seqWr = (d.seqWr + n) % scratchSize
		}
		src := d.rng.Intn(writePoolLen)
		data := d.pool[src : src+int(n)]
		if err := call(func() error { return d.blk.WriteAt(off, data) }); err != nil {
			return fmt.Errorf("%s @%d: %w", name, off, err)
		}
		for i := int64(0); i < n; i += blockSize {
			d.blocks[(off+i)/blockSize] = int32(int64(src) + i)
		}
		return nil
	case "virtio.blk_flush":
		return call(d.blk.Flush)
	case "guestos.exec_write":
		k := d.rng.Intn(ioFiles)
		token := fmt.Sprintf("%016x", d.rng.Uint64())
		cmd := fmt.Sprintf("echo %s > /w/f%d", token, k)
		var out string
		err := call(func() (err error) {
			out, err = d.sessB.Exec(cmd)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", cmd, err)
		}
		d.files[k] = token + "\n"
		return r.expectText(cmd, out, "")
	case "guestos.exec_read":
		k := d.rng.Intn(ioFiles)
		cmd := fmt.Sprintf("cat /w/f%d", k)
		var out string
		err := call(func() (err error) {
			out, err = d.sessB.Exec(cmd)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", cmd, err)
		}
		return r.expectText(cmd, out, d.files[k])
	default: // pings
		size := 64
		if name == "netsim.ping_1400" {
			size = 1400
		}
		src, dst := d.ifA, d.ifB
		if d.rng.Intn(2) == 1 {
			src, dst = dst, src
		}
		var replied bool
		err := call(func() (err error) {
			_, replied, err = src.Ping(dst.IP, uint16(id), size)
			return err
		})
		if err == nil && !replied {
			err = fmt.Errorf("no reply on a lossless link")
		}
		if err != nil {
			return fmt.Errorf("%s %s->%s: %w", name, src.IP, dst.IP, err)
		}
		return nil
	}
}

// ioCounters are the program counters device_io reports per op.
type ioCounters struct {
	procvmCalls, procvmBytes, irqs, forwarded int64
}

func (d *deviceIO) readCounters() ioCounters {
	a, b := d.sessA.Stats(), d.sessB.Stats()
	return ioCounters{
		procvmCalls: a.ProcVMCalls + b.ProcVMCalls,
		procvmBytes: a.BytesRead + a.BytesWritten + b.BytesRead + b.BytesWritten,
		irqs:        a.Interrupts + b.Interrupts,
		forwarded:   d.lab.Metrics().Counter("net.switch.forwarded").Value(),
	}
}

func (d *deviceIO) finishPrefix() {
	c := d.readCounters()
	n := float64(ioPrefixOps)
	d.ctrs = map[string]float64{
		"core.procvm_calls_per_io": float64(c.procvmCalls-d.ctr0.procvmCalls) / n,
		"core.procvm_kib_per_io":   float64(c.procvmBytes-d.ctr0.procvmBytes) / 1024 / n,
		"virtio.irqs_per_io":       float64(c.irqs-d.ctr0.irqs) / n,
		"netsim.frames_forwarded":  float64(c.forwarded - d.ctr0.forwarded),
	}
	d.dig.add("%+v", c)
	d.dsum = d.dig.sum()
}
