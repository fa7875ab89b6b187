// Package core is VMSH itself: the hypervisor-agnostic sideloader and
// the external VirtIO device host.
//
// Attach reaches the guest exclusively through the simulated host
// interfaces — /proc fd enumeration, ptrace, injected system calls,
// process_vm_readv/writev, an eBPF kprobe on kvm_vm_ioctl — mirroring
// §4 and §5 of the paper step by step:
//
//  1. discover the KVM fds in /proc/<pid>/fd;
//  2. ptrace-interrupt every hypervisor thread;
//  3. recover the memslot layout (GPA -> HVA) with the eBPF probe,
//     then drop CAP_BPF;
//  4. read CR3 via an injected KVM_GET_SREGS and walk the guest page
//     tables through process_vm_readv to find the kernel in the KASLR
//     window;
//  5. scan the image for .ksymtab_strings/.ksymtab (all layout
//     variants in parallel) and recover the exported symbols;
//  6. allocate fresh guest physical memory at the top of the address
//     space with an injected mmap + KVM_SET_USER_MEMORY_REGION, write
//     the relocated library blob into it and map it into guest
//     virtual memory right after the kernel image;
//  7. create eventfds/sockets in the hypervisor by injection, pass
//     them back over a unix socket, register irqfds (and, in
//     ioregionfd mode, the MMIO region) for the external devices;
//  8. hijack the vCPU's RIP into the library and resume.
package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"

	"vmsh/internal/faults"
	"vmsh/internal/guestlib"
	"vmsh/internal/guestos"
	"vmsh/internal/hostsim"
	"vmsh/internal/ksym"
	"vmsh/internal/kvm"
	"vmsh/internal/mem"
	"vmsh/internal/netsim"
	"vmsh/internal/obs"
	"vmsh/internal/overlay"
	"vmsh/internal/pagetable"
	"vmsh/internal/replay"
	"vmsh/internal/virtio"
)

// TrapMode selects how MMIO accesses to VMSH's devices are
// intercepted (§5).
type TrapMode int

const (
	// TrapIoregionfd routes the MMIO range through a kernel-filtered
	// socket: zero overhead for unrelated exits. Requires a host
	// kernel carrying the ioregionfd patch.
	TrapIoregionfd TrapMode = iota
	// TrapWrapSyscall hooks every KVM_RUN (and other hypervisor
	// syscalls) with ptrace: works everywhere, taxes everything.
	TrapWrapSyscall
	// TrapAuto tries ioregionfd and falls back to wrap_syscall when
	// the host kernel does not know the ioctl.
	TrapAuto
)

// String implements fmt.Stringer.
func (t TrapMode) String() string {
	switch t {
	case TrapWrapSyscall:
		return "wrap_syscall"
	case TrapAuto:
		return "auto"
	default:
		return "ioregionfd"
	}
}

// VMSH device placement in guest physical space.
const (
	vmshBlkBase  = mem.GPA(0xd8000000)
	vmshConsBase = mem.GPA(0xd8001000)
	vmshNetBase  = mem.GPA(0xd8002000)
	vmshBlkGSI   = uint32(48)
	vmshConsGSI  = uint32(49)
	vmshNetGSI   = uint32(50)
	vmshSlotNum  = uint32(500)
	vmshSlotSize = uint64(4 << 20)
)

// vmshMMIOWindow is the size of the contiguous trap window covering
// all VMSH device register blocks (blk, console, net).
const vmshMMIOWindow = uint64(vmshNetBase-vmshBlkBase) + virtio.MMIOSize

// Options configures an attach.
type Options struct {
	// Image is the host file holding the filesystem image to serve
	// through vmsh-blk.
	Image *hostsim.HostFile
	// Trap selects the MMIO interception mechanism.
	Trap TrapMode
	// ContainerPID adopts a guest container's context (§4.4).
	ContainerPID int
	// SpawnShell starts a shell on the console (default true via
	// Attach; set NoShell to suppress).
	NoShell bool
	// Minimal only side-loads and registers devices without spawning
	// the overlay (test/diagnostic mode).
	Minimal bool
	// BounceCopy disables the direct process_vm data path in the blk
	// backend, restoring the unoptimised bounce-buffer copies — the
	// ablation for the optimisation §5 says doubled Phoronix scores.
	BounceCopy bool
	// Storage names the block store serving the vmsh-blk image, as
	// storage.OpenBlock knows them ("" or "file" = the historic
	// direct-mmap path; "memory", "cow", "cas", "remote" — each
	// seeded with the image's content). Unknown names fail the
	// attach transaction.
	Storage string
	// PCITransport registers the devices with MSI-routed irqfds (the
	// virtio-over-PCI interrupt path), the extension §6.2 names as
	// future work for Cloud Hypervisor support. The register window
	// becomes the device's memory BAR; only interrupt routing
	// changes.
	PCITransport bool
	// Net, when non-nil, additionally serves a vmsh-net device cabled
	// into this switch — the multi-VM overlay network. The device runs
	// in the VMSH process like blk and console, reading virtqueues
	// through process_vm only.
	Net *netsim.Switch
	// NetLink sets the per-link parameters of this VM's switch port
	// (zero values fall back to the host cost model).
	NetLink netsim.LinkParams
	// LegacyVirtio disables the batched guest-memory fast path for the
	// hosted devices: per-field process_vm crossings, one interrupt
	// per chain — reproducing the pre-fast-path timing exactly. The
	// paper-reproduction experiments pin this on so Figures 5/6 keep
	// their measured shape; everything else gets the fast path.
	LegacyVirtio bool
	// Trace enables the host-wide virtual-time tracer for this attach:
	// every clock-charging layer records spans/events, exportable as
	// Chrome trace-event JSON via Host.Trace.WriteChrome. Tracing never
	// advances the clock, so enabling it leaves all virtual-time
	// results bit-identical.
	Trace bool
	// Fault, when non-nil, arms the host-wide deterministic fault
	// plane with this plan for the attach and the session that follows
	// it (device service passes keep checking the plan after attach).
	Fault *faults.Plan
	// Retry bounds per-stage retries of transient failures (EINTR/
	// EAGAIN-class). The zero value disables retry.
	Retry RetryPolicy
	// Record, when non-nil, observes every host crossing of this
	// attach and the session that follows it (the tap shares the
	// fault plane's stage and pause context, so rollback/detach undo
	// crossings are never recorded). The recording is finalized — end
	// vtime, per-memslot RAM hashes, session metrics — and written to
	// RecordSink when the session detaches; a failed attach finalizes
	// and writes the partial log so the failure can be replayed.
	Record *replay.Recorder
	// RecordSink, when non-nil alongside Record, is opened lazily to
	// persist the finalized log (e.g. a file-create closure).
	RecordSink func() (io.WriteCloser, error)
	// Verify, when non-nil, checks the live crossing stream of this
	// attach/session against a prior recording, latching the first
	// divergence (replay-verify mode). May be combined with Record.
	Verify *replay.Verifier
}

// VMSH is one instance of the host-side tool.
type VMSH struct {
	Host *hostsim.Host
	Proc *hostsim.Process
}

// New creates the VMSH process with the privileges the prototype
// needs: ptrace for injection, BPF for the memslot probe (§4.5). A
// VMSH serves one attach: a failed Attach, or the Detach of the
// session it returns, exits the process.
func New(h *hostsim.Host) *VMSH {
	proc := h.NewProcess("vmsh", hostsim.Creds{UID: 0,
		Caps: hostsim.Caps(hostsim.CapSysPtrace, hostsim.CapBPF)})
	return &VMSH{Host: h, Proc: proc}
}

// Attach side-loads into the hypervisor process identified by pid and
// returns a live session.
//
// Attach runs as a staged transaction: every stage registers an undo
// for each host- or guest-visible side effect it applies (injected
// mmaps, the library memslot, page-table entry writes, created fds,
// the saved vCPU register file). A failure at any stage rolls all of
// them back — leaving the guest byte-identical to its pre-attach
// state — and surfaces as a typed *AttachError naming the stage.
// Transient failures (EINTR/EAGAIN-class) unwind only their own stage
// and retry under opts.Retry with vclock-charged exponential backoff.
func (v *VMSH) Attach(pid int, opts Options) (*Session, error) {
	h := v.Host
	if opts.Fault != nil {
		h.SetFaultPlan(opts.Fault)
	}
	tapped := opts.Record != nil || opts.Verify != nil
	if tapped {
		switch {
		case opts.Record != nil && opts.Verify != nil:
			h.Faults.SetTap(faults.Tee(opts.Record, opts.Verify))
		case opts.Record != nil:
			h.Faults.SetTap(opts.Record)
		default:
			h.Faults.SetTap(opts.Verify)
		}
	}
	// abandon ends a failed attach on the host: the vmsh process exits
	// and the tap comes off, sealing and persisting the partial log —
	// a failed attach is exactly the kind of run worth replaying.
	abandon := func() {
		h.Exit(v.Proc)
		if tapped {
			h.Faults.SetTap(nil)
			if opts.Record != nil {
				opts.Record.Finalize(nil, nil)
				_ = writeRecording(opts.Record, opts.RecordSink)
			}
		}
	}
	target, ok := h.Process(pid)
	if !ok {
		abandon()
		return nil, &AttachError{PID: pid, Err: ErrNoProcess}
	}
	if opts.Trace {
		h.Trace.Enable()
	}
	trAttach := h.Trace.Track("vmsh:attach")
	spAttach := trAttach.Span("attach", "attach")

	tx := newAttachTx(h, pid, opts.Retry)
	fail := func(stage string, err error) (*Session, error) {
		tx.rollback()
		abandon()
		return nil, &AttachError{Stage: stage, PID: pid, Err: err}
	}

	// --- 1. fd discovery via /proc --------------------------------
	vmFD := -1
	var vcpuFDs []int
	if err := tx.run("fd_discovery", func() error {
		sp := trAttach.Span("attach", "fd_discovery")
		fds, err := h.ProcFDInfo(v.Proc, pid)
		if err != nil {
			return fmt.Errorf("reading /proc/%d/fd: %w", pid, err)
		}
		vmFD, vcpuFDs = -1, nil
		for _, fi := range fds {
			if fi.Link == "anon_inode:kvm-vm" {
				vmFD = fi.Num
			}
			if strings.HasPrefix(fi.Link, "anon_inode:kvm-vcpu:") {
				vcpuFDs = append(vcpuFDs, fi.Num)
			}
		}
		if vmFD < 0 || len(vcpuFDs) == 0 {
			return ErrNotHypervisor
		}
		sp.End1("fds", int64(len(fds)))
		return nil
	}); err != nil {
		return fail("fd_discovery", err)
	}

	// --- 2. ptrace attach + interrupt ------------------------------
	if err := tx.run("ptrace_interrupt", func() error {
		sp := trAttach.Span("attach", "ptrace_interrupt")
		tr, err := v.Proc.Attach(target)
		if err != nil {
			return err
		}
		tx.tracer, tx.tid = tr, target.MainThread()
		tx.onUndo("ptrace_detach", func() error {
			if tx.tracer == nil {
				return nil
			}
			err := tx.tracer.Detach()
			tx.tracer = nil
			if errors.Is(err, hostsim.ErrNotTraced) {
				return nil
			}
			return err
		})
		if err := tr.InterruptAll(); err != nil {
			return err
		}
		sp.End()
		return nil
	}); err != nil {
		return fail("ptrace_interrupt", err)
	}

	// --- 3. memslots via the eBPF kvm_vm_ioctl probe ----------------
	var pm *procMem
	var reg *obs.Registry
	if err := tx.run("memslot_probe", func() error {
		sp := trAttach.Span("attach", "memslot_probe")
		var slots []kvm.MemSlotInfo
		probe, err := h.AttachKProbe(v.Proc, "kvm_vm_ioctl", func(d any) {
			if s, ok := d.([]kvm.MemSlotInfo); ok {
				slots = s
			}
		})
		if err != nil {
			return fmt.Errorf("attaching eBPF probe: %w", err)
		}
		tx.onUndo("kprobe_close", func() error { probe.Close(); return nil })
		if _, err := tx.inject(hostsim.SysIoctl, uint64(vmFD), kvm.KVMCheckExtension, 0); err != nil {
			return fmt.Errorf("triggering kvm_vm_ioctl: %w", err)
		}
		probe.Close()
		// Privilege drop (§4.5): everything after here runs with
		// ptrace rights only.
		v.Proc.DropCapability(hostsim.CapBPF)
		if len(slots) == 0 {
			return ErrNoMemslots
		}
		reg = obs.NewRegistry()
		pm = newProcMem(h, v.Proc, pid, slots, reg)
		sp.End1("slots", int64(len(slots)))
		return nil
	}); err != nil {
		return fail("memslot_probe", err)
	}

	// --- 4. page-table root + kernel discovery ----------------------
	// The target's architecture selects the sregs layout (CR3 vs
	// TTBR0_EL1), the page-table descriptor format and the KASLR
	// window — the three axes of the arm64 port (§5).
	tArch := target.Arch
	var scratch uint64
	var cr3 mem.GPA
	var kernelRun *pagetable.Mapped
	var version guestos.Version
	var scan *ksym.ScanResult
	if err := tx.run("kernel_scan", func() error {
		sp := trAttach.Span("attach", "kernel_scan")
		s, err := tx.inject(hostsim.SysMmap, 0, 4096, 3,
			hostsim.MapAnonymous|hostsim.MapPrivate, ^uint64(0))
		if err != nil {
			return fmt.Errorf("injected mmap: %w", err)
		}
		scratch = s
		tx.onUndo("munmap_scratch", func() error {
			_, err := tx.inject(hostsim.SysMunmap, s, 4096)
			return err
		})
		if _, err := tx.inject(hostsim.SysIoctl, uint64(vcpuFDs[0]), kvm.KVMGetSregs, scratch); err != nil {
			return fmt.Errorf("KVM_GET_SREGS: %w", err)
		}
		sregsRaw := make([]byte, kvm.SregsStructSize)
		if err := h.ProcessVMRead(v.Proc, pid, mem.HVA(scratch), sregsRaw); err != nil {
			return err
		}
		cr3 = mem.GPA(hostsim.DecodeU64(sregsRaw, kvm.PageTableRootOffset(tArch)/8))

		walker := &pagetable.Walker{R: pm, Root: cr3, Fmt: guestos.PageFormat(tArch)}
		kaslrBase, kaslrEnd := guestos.KASLRWindow(tArch)
		kernelRun = nil
		err = walker.VisitRange(kaslrBase, kaslrEnd, func(r pagetable.Mapped) bool {
			if r.Size >= 1<<20 {
				kernelRun = &r
				return false
			}
			return true
		})
		if err != nil {
			return fmt.Errorf("page-table walk: %w", err)
		}
		if kernelRun == nil {
			return ErrKernelNotFound
		}

		img := make([]byte, kernelRun.Size)
		if err := pm.ReadPhys(kernelRun.GPA, img); err != nil {
			return fmt.Errorf("reading kernel image: %w", err)
		}
		if version, err = detectVersion(img); err != nil {
			return err
		}
		if scan, err = ksym.Scan(img, kernelRun.GVA); err != nil {
			return fmt.Errorf("%w: %v", ErrKsymNotFound, err)
		}
		sp.End2("kernel_bytes", int64(len(img)), "symbols", int64(len(scan.Symbols)))
		return nil
	}); err != nil {
		return fail("kernel_scan", err)
	}

	// --- 5. build + relocate the library ----------------------------
	var blob []byte
	var hdr *guestlib.Header
	if err := tx.run("build_blob", func() error {
		sp := trAttach.Span("attach", "build_blob")
		params := blobParams{
			version:  version,
			blkBase:  vmshBlkBase,
			blkGSI:   vmshBlkGSI,
			consBase: vmshConsBase,
			consGSI:  vmshConsGSI,
			net:      opts.Net != nil,
			netBase:  vmshNetBase,
			netGSI:   vmshNetGSI,
			minimal:  opts.Minimal,
			overlay: overlay.Options{
				Console:      "hvc-vmsh",
				BlkDev:       "vmshblk0",
				ContainerPID: opts.ContainerPID,
				SpawnShell:   !opts.NoShell,
			},
		}
		var err error
		if blob, err = buildBlob(params); err != nil {
			return err
		}
		if hdr, err = guestlib.ParseHeader(blob); err != nil {
			return err
		}
		for i := 0; i < int(hdr.RelocCnt); i++ {
			name, err := hdr.RelocName(blob, i)
			if err != nil {
				return err
			}
			gva, ok := scan.Symbols[name]
			if !ok {
				return fmt.Errorf("%w: kernel %s does not export %q", ErrKsymNotFound, version, name)
			}
			patchU64(blob, hdr.RelocSlotOffset(i), uint64(gva))
		}
		sp.End1("blob_bytes", int64(len(blob)))
		return nil
	}); err != nil {
		return fail("build_blob", err)
	}

	// --- 6. new memslot at the top of guest physical space ----------
	var libGPA mem.GPA
	var libGVA mem.GVA
	if err := tx.run("inject_library", func() error {
		sp := trAttach.Span("attach", "inject_library")
		libGPA = mem.GPA(mem.PageAlign(uint64(pm.maxGPAEnd()) + 2<<20))
		libHVA, err := tx.inject(hostsim.SysMmap, 0, vmshSlotSize, 3,
			hostsim.MapAnonymous|hostsim.MapPrivate, ^uint64(0))
		if err != nil {
			return fmt.Errorf("injected mmap for memslot: %w", err)
		}
		tx.onUndo("munmap_library", func() error {
			_, err := tx.inject(hostsim.SysMunmap, libHVA, vmshSlotSize)
			return err
		})
		region := make([]byte, 32)
		putU32(region[0:], vmshSlotNum)
		putU64(region[8:], uint64(libGPA))
		putU64(region[16:], vmshSlotSize)
		putU64(region[24:], libHVA)
		if err := h.ProcessVMWrite(v.Proc, pid, mem.HVA(scratch), region); err != nil {
			return err
		}
		if _, err := tx.inject(hostsim.SysIoctl, uint64(vmFD), kvm.KVMSetUserMemoryRegion, scratch); err != nil {
			return fmt.Errorf("KVM_SET_USER_MEMORY_REGION: %w", err)
		}
		tx.onUndo("delete_memslot", func() error {
			// memory_size 0 deletes the numbered slot (real KVM
			// semantics), taking the library back out of guest
			// physical space.
			del := make([]byte, 32)
			putU32(del[0:], vmshSlotNum)
			if err := h.ProcessVMWrite(v.Proc, pid, mem.HVA(scratch), del); err != nil {
				return err
			}
			_, err := tx.inject(hostsim.SysIoctl, uint64(vmFD), kvm.KVMSetUserMemoryRegion, scratch)
			return err
		})
		pm.addSlot(kvm.MemSlotInfo{Slot: vmshSlotNum, GPA: libGPA, Size: vmshSlotSize, HVA: mem.HVA(libHVA)})
		tx.onUndo("forget_memslot", func() error { pm.removeSlot(vmshSlotNum); return nil })

		if err := pm.WritePhys(libGPA, blob); err != nil {
			return fmt.Errorf("uploading library: %w", err)
		}

		// Map the library right after the kernel image (§4.2), using
		// page-table pages from VMSH's own slot so no guest allocator
		// is involved. Every entry write is journaled so rollback can
		// restore the guest tables to their exact prior bytes.
		libGVA = kernelRun.GVA + mem.GVA(kernelRun.Size)
		sideAlloc := mem.NewBumpAlloc(libGPA+mem.GPA(mem.PageAlign(uint64(len(blob)))), libGPA+mem.GPA(vmshSlotSize))
		mapper := pagetable.AttachMapper(pm, sideAlloc, cr3)
		mapper.Fmt = guestos.PageFormat(tArch)
		mapper.StartJournal()
		tx.onUndo("undo_pagetable", mapper.UndoJournal)
		if err := mapper.MapRange(libGVA, libGPA, mem.PageAlign(uint64(len(blob))),
			pagetable.FlagWrite|pagetable.FlagGlobal); err != nil {
			return fmt.Errorf("mapping library: %w", err)
		}
		sp.End()
		return nil
	}); err != nil {
		return fail("inject_library", err)
	}

	// --- 7. devices: irqfds, trap, external hosting -----------------
	sess := &Session{
		v: v, target: target, tracer: tx.tracer, pm: pm, reg: reg, tx: tx,
		vmFD: vmFD, vcpuFDs: vcpuFDs,
		libGPA: libGPA, libGVA: libGVA, hdr: hdr,
		trap: opts.Trap, version: version, kernelBase: kernelRun.GVA,
		image: opts.Image, storage: opts.Storage,
		record: opts.Record, recordSink: opts.RecordSink, tapped: tapped,
	}
	if err := tx.run("setup_devices", func() error {
		sp := trAttach.Span("attach", "setup_devices")
		sess.tracer = tx.tracer
		if err := sess.setupDevices(tx, scratch, opts); err != nil {
			return err
		}
		sp.End()
		return nil
	}); err != nil {
		return fail("setup_devices", err)
	}

	// --- 8. hijack the instruction pointer and resume ----------------
	if err := tx.run("rip_flip", func() error {
		sp := trAttach.Span("attach", "rip_flip")
		if _, err := tx.inject(hostsim.SysIoctl, uint64(vcpuFDs[0]), kvm.KVMGetRegs, scratch); err != nil {
			return fmt.Errorf("KVM_GET_REGS: %w", err)
		}
		regsRaw := make([]byte, kvm.RegsStructSize(tArch))
		if err := h.ProcessVMRead(v.Proc, pid, mem.HVA(scratch), regsRaw); err != nil {
			return err
		}
		// Register the register-file restore before touching it. Once
		// the guest resumed this undo is skipped: the library's
		// trampoline owns the restore from then on, and re-writing the
		// saved snapshot would rewind a running guest.
		orig := append([]byte(nil), regsRaw...)
		tx.onUndoSkipResumed("restore_vcpu_regs", func() error {
			if err := h.ProcessVMWrite(v.Proc, pid, mem.HVA(scratch), orig); err != nil {
				return err
			}
			_, err := tx.inject(hostsim.SysIoctl, uint64(vcpuFDs[0]), kvm.KVMSetRegs, scratch)
			return err
		})
		ipIdx := kvm.InstrPtrIndex(tArch)
		origRIP := hostsim.DecodeU64(regsRaw, ipIdx)
		// Pre-store the resume instruction pointer in the trampoline
		// save area (slot 16 by blob convention on both
		// architectures).
		var ripRaw [8]byte
		putU64(ripRaw[:], origRIP)
		if err := pm.WritePhys(libGPA+mem.GPA(hdr.SavedOff+16*8), ripRaw[:]); err != nil {
			return err
		}
		patchU64(regsRaw, uint64(ipIdx*8), uint64(libGVA))
		if err := h.ProcessVMWrite(v.Proc, pid, mem.HVA(scratch), regsRaw); err != nil {
			return err
		}
		if _, err := tx.inject(hostsim.SysIoctl, uint64(vcpuFDs[0]), kvm.KVMSetRegs, scratch); err != nil {
			return fmt.Errorf("KVM_SET_REGS: %w", err)
		}

		// Resume: the in-flight KVM_RUN re-enters the guest, which now
		// executes the library. From here the stage must not re-run —
		// re-flipping an instruction pointer that already points into
		// the library would corrupt the guest — so the status poll
		// below retries at the operation level only.
		if err := tx.tracer.ResumeAll(); err != nil {
			return err
		}
		tx.resumed = true

		// Poll the shared sync page for the library's verdict.
		status, err := retryOp(tx, func() (uint64, error) {
			return sess.readSync(guestlib.SyncStatus)
		})
		if err != nil {
			return err
		}
		if status&guestlib.StatusErrorBase != 0 {
			return fmt.Errorf("%w: library reported error %#x (see guest log)", ErrLibraryFailed, status)
		}
		if status != guestlib.StatusReady {
			return fmt.Errorf("%w: library did not become ready (status %d)", ErrLibraryFailed, status)
		}
		sp.End()
		return nil
	}); err != nil {
		return fail("rip_flip", err)
	}
	spAttach.End()

	// In ioregionfd mode ptrace was only needed during setup; the
	// detach-time cleanup re-attaches. (The session's trap field
	// carries the *resolved* mode: TrapAuto has already collapsed to
	// whichever mechanism worked.)
	if sess.trap == TrapIoregionfd {
		_ = tx.tracer.Detach()
		tx.tracer = nil
		sess.tracer = nil
	}
	return sess, nil
}

// detectVersion parses the "Linux version X.Y" banner out of the
// kernel image bytes.
func detectVersion(img []byte) (guestos.Version, error) {
	const marker = "Linux version "
	idx := bytes.Index(img, []byte(marker))
	if idx < 0 {
		return guestos.Version{}, fmt.Errorf("vmsh: no version banner in kernel image")
	}
	rest := img[idx+len(marker):]
	end := 0
	dots := 0
	for end < len(rest) && end < 16 {
		c := rest[end]
		if c == '.' {
			dots++
			if dots == 2 {
				break
			}
		} else if c < '0' || c > '9' {
			break
		}
		end++
	}
	return guestos.ParseVersion(string(rest[:end]))
}

// writeRecording persists a finalized recording through the lazy sink;
// a nil sink means the caller only wanted the in-memory log.
func writeRecording(rec *replay.Recorder, sink func() (io.WriteCloser, error)) error {
	if rec == nil || sink == nil {
		return nil
	}
	w, err := sink()
	if err != nil {
		return fmt.Errorf("vmsh: opening record sink: %w", err)
	}
	encErr := rec.Log().Encode(w)
	closeErr := w.Close()
	if encErr != nil {
		return fmt.Errorf("vmsh: writing recording: %w", encErr)
	}
	if closeErr != nil {
		return fmt.Errorf("vmsh: closing record sink: %w", closeErr)
	}
	return nil
}

func patchU64(b []byte, off uint64, v uint64) {
	putU64(b[off:], v)
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func putU32(b []byte, v uint32) {
	for i := 0; i < 4; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
