package core

import (
	"bytes"
	"fmt"
	"io"
	"strings"

	"vmsh/internal/guestlib"
	"vmsh/internal/guestos"
	"vmsh/internal/hostsim"
	"vmsh/internal/kvm"
	"vmsh/internal/mem"
	"vmsh/internal/netsim"
	"vmsh/internal/obs"
	"vmsh/internal/replay"
	"vmsh/internal/virtio"
)

// Session is a live attachment to a VM.
type Session struct {
	v      *VMSH
	target *hostsim.Process
	tracer *hostsim.Tracer // non-nil only in wrap_syscall mode
	pm     *procMem
	reg    *obs.Registry // session-scoped metrics (procvm, devices, net)

	vmFD    int
	vcpuFDs []int
	libGPA  mem.GPA
	libGVA  mem.GVA
	hdr     *guestlib.Header

	trap       TrapMode
	version    guestos.Version
	kernelBase mem.GVA

	// image/storage remember what the vmsh-blk device was serving so a
	// lifecycle operation (snapshot, migration) can quiesce the session
	// and re-attach an equivalent one on the restored VM. image is nil
	// for Minimal attaches.
	image   *hostsim.HostFile
	storage string

	blk  *virtio.BlkDevice
	cons *virtio.ConsoleDevice
	net  *virtio.NetDevice // nil unless Options.Net supplied a switch

	netPort *netsim.Port

	blkEvFD, consEvFD, netEvFD int
	sigHVA                     uint64
	wrapVM                     *kvm.VM
	// serveSock is the ioregionfd serving end; closing it (clearing
	// its handler) deregisters the MMIO routing kernel-side.
	serveSock *hostsim.SockPairFD

	// tx is the attach transaction whose undo stack still holds every
	// live compensation; Detach drains it so a detached guest is left
	// byte-identical to one that was never attached to.
	tx *attachTx

	// record/recordSink carry the crossing recording to finalize and
	// persist at Detach; tapped remembers that this attach armed the
	// host tap (record and/or verify) so Detach disarms it.
	record     *replay.Recorder
	recordSink func() (io.WriteCloser, error)
	tapped     bool

	out      bytes.Buffer
	detached bool
}

// Version reports the guest kernel version the sideloader detected.
func (s *Session) Version() guestos.Version { return s.version }

// Image returns the host file the vmsh-blk device serves (nil for
// Minimal attaches). Lifecycle operations copy it across hosts so a
// re-attached session sees the same overlay filesystem.
func (s *Session) Image() *hostsim.HostFile { return s.image }

// StorageBackend returns the Options.Storage name this session was
// attached with ("" = the historic direct-mmap file path).
func (s *Session) StorageBackend() string { return s.storage }

// KernelBase reports where KASLR put the guest kernel (diagnostics).
func (s *Session) KernelBase() mem.GVA { return s.kernelBase }

// Trap reports the active MMIO interception mechanism.
func (s *Session) Trap() TrapMode { return s.trap }

// readSync reads one word of the shared sync area via process_vm.
func (s *Session) readSync(word int) (uint64, error) {
	raw := make([]byte, 8)
	if err := s.pm.ReadPhys(s.libGPA+mem.GPA(s.hdr.SyncOff+uint64(word*8)), raw); err != nil {
		return 0, err
	}
	return hostsim.DecodeU64(raw, 0), nil
}

// writeSync writes one word of the shared sync area.
func (s *Session) writeSync(word int, val uint64) error {
	return s.pm.WritePhys(s.libGPA+mem.GPA(s.hdr.SyncOff+uint64(word*8)), hostsim.EncodeU64s(val))
}

// SendConsole delivers raw bytes to the guest console (keystrokes).
func (s *Session) SendConsole(data []byte) {
	s.reg.Counter("cons.bytes_to_guest").Add(int64(len(data)))
	s.cons.SendToGuest(data)
}

// Output returns everything the guest console produced so far.
func (s *Session) Output() string { return s.out.String() }

// Exec runs one shell command over the console and returns its output
// (without the trailing prompt).
func (s *Session) Exec(cmd string) (string, error) {
	if s.detached {
		return "", fmt.Errorf("vmsh: session detached")
	}
	mark := s.out.Len()
	s.SendConsole([]byte(cmd + "\n"))
	outSlice := string(s.out.Bytes()[mark:])
	if !strings.HasSuffix(outSlice, guestos.Prompt) {
		return outSlice, fmt.Errorf("vmsh: shell did not return a prompt (got %q)", outSlice)
	}
	return strings.TrimSuffix(outSlice, guestos.Prompt), nil
}

// BlkRequests reports how many requests the vmsh-blk device served.
func (s *Session) BlkRequests() int64 { return s.blk.Requests }

// Stats is a snapshot of the session's guest-memory traffic counters:
// how many simulated process_vm_readv/writev calls VMSH issued, how
// many bytes they moved, and how many interrupts the hosted devices
// raised. The fast path shrinks ProcVMCalls and Interrupts for the
// same byte volume; legacy mode reproduces the historical counts.
//
// The per-device fields break the totals down: interrupts per device,
// console traffic in both directions, and the frames/bytes the net
// device exchanged with the switch. All of them are read from the
// session's metrics registry — Metrics() exposes the same numbers
// (and more) by name.
type Stats struct {
	ProcVMCalls  int64
	BytesRead    int64
	BytesWritten int64
	Interrupts   int64

	BlkInterrupts  int64
	ConsInterrupts int64
	NetInterrupts  int64

	ConsBytesToGuest   int64 // host -> guest console bytes
	ConsBytesFromGuest int64 // guest -> host console bytes
	NetTxFrames        int64 // guest -> switch
	NetTxBytes         int64
	NetRxFrames        int64 // switch -> guest
	NetRxBytes         int64
}

// Stats returns the session's counters so far.
func (s *Session) Stats() Stats {
	st := Stats{
		ProcVMCalls:        s.pm.calls.Value(),
		BytesRead:          s.pm.bytesRead.Value(),
		BytesWritten:       s.pm.bytesWritten.Value(),
		ConsBytesToGuest:   s.reg.Counter("cons.bytes_to_guest").Value(),
		ConsBytesFromGuest: s.reg.Counter("cons.bytes_from_guest").Value(),
		NetTxFrames:        s.reg.Counter("net.tx_frames").Value(),
		NetTxBytes:         s.reg.Counter("net.tx_bytes").Value(),
		NetRxFrames:        s.reg.Counter("net.rx_frames").Value(),
		NetRxBytes:         s.reg.Counter("net.rx_bytes").Value(),
	}
	if s.blk != nil {
		st.BlkInterrupts = s.blk.Dev.InterruptCount()
	}
	if s.cons != nil {
		st.ConsInterrupts = s.cons.Dev.InterruptCount()
	}
	if s.net != nil {
		st.NetInterrupts = s.net.Dev.InterruptCount()
	}
	st.Interrupts = st.BlkInterrupts + st.ConsInterrupts + st.NetInterrupts
	return st
}

// Metrics snapshots the session's metrics registry: every named
// counter plus .count/.sum_ns/.max_ns per histogram. Keys are stable,
// so two same-seed runs produce identical maps.
func (s *Session) Metrics() map[string]int64 { return s.reg.Snapshot() }

// MetricsText renders the registry in the plain-text dump format.
func (s *Session) MetricsText() string { return s.reg.Text() }

// Registry exposes the session-scoped metrics registry (counters and
// virtual-time histograms such as blk.req_vlat).
func (s *Session) Registry() *obs.Registry { return s.reg }

// NetPort returns the switch port this session's vmsh-net device is
// cabled into, or nil when networking was not requested.
func (s *Session) NetPort() *netsim.Port { return s.netPort }

// teardownTraps removes the MMIO interception.
func (s *Session) teardownTraps() {
	if s.wrapVM != nil {
		s.wrapVM.SetWrapTrap(0, 0, nil)
		s.wrapVM = nil
	}
	if s.tracer != nil {
		s.tracer.SetSyscallTax(false)
	}
	if s.serveSock != nil {
		// Close the ioregionfd serving socket: the kernel drops the
		// MMIO routing for this (now dead) session.
		s.serveSock.SetHandler(nil)
		s.serveSock = nil
	}
}

// Detach asks the library to unwind (§4.4): control word + console
// interrupt, wait for the ack — then drains the attach transaction's
// undo stack, removing every host-side artefact of the attach (the
// library memslot and its mapping, the page-table entries, every
// injected mmap and created fd, traps, ptrace) — and exits the vmsh
// process. Detach is idempotent:
// a second call is a no-op, and a Detach after a failed attach finds
// an already-empty undo stack.
func (s *Session) Detach() error {
	if s.detached {
		return nil
	}
	if err := s.writeSync(guestlib.SyncControl, guestlib.ControlDetach); err != nil {
		return err
	}
	// Kick the guest via the console irqfd so it notices the request.
	if _, err := s.v.Proc.Syscall(hostsim.SysWrite, uint64(s.consEvFD), s.sigHVA, 8); err != nil {
		return err
	}
	ack, err := s.readSync(guestlib.SyncAck)
	if err != nil {
		return err
	}
	if ack != 1 {
		return fmt.Errorf("vmsh: guest did not acknowledge detach")
	}
	if tx := s.tx; tx != nil {
		// Cleanup runs with the fault plane paused: compensations must
		// not fault, and must not shift the plan's sequence numbers.
		f := s.v.Host.Faults
		wasPaused := f.Paused()
		f.SetPaused(true)
		if tx.tracer == nil {
			// ioregionfd mode dropped ptrace after setup; the injected
			// cleanup syscalls need it back.
			tr, err := s.v.Proc.Attach(s.target)
			if err != nil {
				f.SetPaused(wasPaused)
				return err
			}
			tx.tracer = tr
		}
		// rollback re-interrupts the (running) target, runs the undo
		// stack LIFO — the guest resumed long ago, so the saved-regs
		// restore is skipped; the trampoline already did it guest-side
		// — and ends by detaching ptrace.
		tx.rollback()
		f.SetPaused(wasPaused)
		s.tracer = nil
	} else {
		s.teardownTraps()
		if s.tracer != nil {
			_ = s.tracer.Detach()
			s.tracer = nil
		}
	}
	s.v.Host.Exit(s.v.Proc)
	s.detached = true
	if s.tapped {
		s.v.Host.Faults.SetTap(nil)
		s.tapped = false
	}
	if s.record != nil {
		// Seal the recording with the session's end state: final
		// virtual time (the recorder reads the clock), FNV-64a hash of
		// each guest memslot after the rollback restored pre-attach
		// state, and the session metric snapshot. Replay re-derives
		// and cross-checks exactly these.
		s.record.Finalize(s.RAMHashes(), s.reg.Snapshot())
		if err := writeRecording(s.record, s.recordSink); err != nil {
			return err
		}
	}
	return nil
}

// RAMHashes returns one FNV-64a hash per guest memslot (in GPA order),
// computed kernel-side — no clock charge, no crossings — so recording
// the end state cannot perturb the run being recorded.
func (s *Session) RAMHashes() []uint64 {
	out := make([]uint64, 0, len(s.pm.slots))
	for _, sl := range s.pm.slots {
		m, ok := s.target.AS.Find(sl.HVA)
		if !ok {
			out = append(out, mem.NewPhys(0, 0).Hash()) // no mapping: no bytes
			continue
		}
		off := uint64(sl.HVA - m.HVA)
		out = append(out, m.Phys.HashRange(off, off+sl.Size))
	}
	return out
}
