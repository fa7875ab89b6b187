package core

import (
	"errors"
	"fmt"
	"time"

	"vmsh/internal/faults"
	"vmsh/internal/hostsim"
	"vmsh/internal/kvm"
	"vmsh/internal/mem"
	"vmsh/internal/obs"
	"vmsh/internal/storage"
	"vmsh/internal/vclock"
	"vmsh/internal/virtio"
)

// mmapBackend serves the vmsh-blk image from a memory-mapped host
// file — the optimisation §5 credits with doubling Phoronix results.
// Reads hit the host page cache (device reads only on first touch);
// writes land in the cache and are charged at steady-state writeback
// bandwidth once, at write time (the background flusher's work,
// attributed to the writer the way dirty throttling does).
//
// The byte store behind the cache model is pluggable
// (Options.Storage): the default serves the image file's own pages as
// a storage.MemBlock, which charges nothing itself and range-checks
// every access like the other backends; the storage-package backends
// (memory, cow, cas, remote) swap the medium while this layer keeps
// the page-cache accounting.
type mmapBackend struct {
	store storage.BlockBackend
	size  int64
	host  *hostsim.Host
	// resident tracks which 4 KiB pages of the image live in the
	// host page cache.
	resident map[int64]bool
	// bounce emulates the unoptimised pre-§5 data path: an extra
	// read/write syscall pair and buffer copy per access (kept for
	// the D2 ablation benchmark).
	bounce bool
}

const mmapPage = 4096

// touch accounts page-cache handling for [off, off+n), returning how
// many bytes were not yet resident.
func (m *mmapBackend) touch(off int64, n int) int {
	first, last := off/mmapPage, (off+int64(n)-1)/mmapPage
	missBytes := 0
	for p := first; p <= last; p++ {
		if !m.resident[p] {
			m.resident[p] = true
			missBytes += mmapPage
		}
	}
	c := m.host.Costs
	m.host.Clock.Advance(time.Duration(last-first+1) * c.PageCacheHit)
	return missBytes
}

// chargeBounce models the pre-optimisation data path (§5): instead of
// one process_vm copy straight between guest memory and the mapped
// image, the device read()/write()s the image in filesystem-block
// units through a bounce buffer — a syscall pair per block plus a
// second full copy of the payload.
func (m *mmapBackend) chargeBounce(n int) {
	blocks := (n + mmapPage - 1) / mmapPage
	c := m.host.Costs
	m.host.Clock.Advance(time.Duration(blocks)*2*c.Syscall + vclock.Copy(n, c.ProcessVMBW))
}

// ReadBlk implements virtio.BlkBackend. An access outside the image
// is refused before touch charges it.
func (m *mmapBackend) ReadBlk(off int64, buf []byte) error {
	if err := storage.CheckRange(m.size, off, len(buf)); err != nil {
		return err
	}
	if m.bounce {
		m.chargeBounce(len(buf))
	}
	if miss := m.touch(off, len(buf)); miss > 0 {
		m.host.Disk.ChargeRead(miss)
	}
	return m.store.ReadAt(off, buf)
}

// WriteBlk implements virtio.BlkBackend.
func (m *mmapBackend) WriteBlk(off int64, buf []byte) error {
	if err := storage.CheckRange(m.size, off, len(buf)); err != nil {
		return err
	}
	if m.bounce {
		m.chargeBounce(len(buf))
	}
	m.touch(off, len(buf))
	if err := m.store.WriteAt(off, buf); err != nil {
		return err
	}
	// Sustained writes are bounded by host writeback to the device.
	m.host.Disk.ChargeWrite(len(buf))
	return nil
}

// FlushBlk implements virtio.BlkBackend: writeback was already paid at
// write time, so a flush costs one device cache flush.
func (m *mmapBackend) FlushBlk() error {
	m.host.Disk.ChargeFlush()
	return m.store.Flush()
}

// Capacity implements virtio.BlkBackend.
func (m *mmapBackend) Capacity() int64 { return m.size }

// mmioMux routes the VMSH MMIO window to the right device. The net
// handler is nil when no switch was attached; accesses to its block
// then read as open bus (zero) instead of faulting.
type mmioMux struct {
	blk  kvm.MMIOHandler
	cons kvm.MMIOHandler
	net  kvm.MMIOHandler
}

// MMIO implements kvm.MMIOHandler.
func (m *mmioMux) MMIO(gpa mem.GPA, size int, write bool, value uint64) uint64 {
	switch {
	case gpa >= vmshNetBase:
		if m.net == nil {
			return 0
		}
		return m.net.MMIO(gpa, size, write, value)
	case gpa >= vmshConsBase:
		return m.cons.MMIO(gpa, size, write, value)
	default:
		return m.blk.MMIO(gpa, size, write, value)
	}
}

// setupDevices performs step 7 of Attach: eventfd + irqfd plumbing by
// injection, fd passing over an injected unix socket, trap
// installation and device hosting. Every side effect registers its
// compensation on the transaction, so both a failed attach and a
// clean detach unwind the same way.
func (s *Session) setupDevices(tx *attachTx, scratch uint64, opts Options) error {
	h := s.v.Host
	pid := s.target.PID

	image := opts.Image
	if image == nil {
		if !opts.Minimal {
			return ErrNoImage
		}
		image = h.CreateFile(fmt.Sprintf("vmsh-minimal-%d.img", pid), 1<<20, false)
	}

	// Unix socket for passing hypervisor-created fds back to us (§5).
	// The name carries an attach sequence number so re-attaching
	// after a detach never collides with a stale binding.
	sockPath := fmt.Sprintf("@vmsh-%d-%d", pid, h.NextAttachSeq())
	listener, err := h.BindUnix(s.v.Proc, sockPath)
	if err != nil {
		return err
	}
	tx.onUndo("unbind_socket", func() error { h.UnbindUnix(sockPath); return nil })

	// Create the two irq eventfds inside the hypervisor and register
	// them as irqfds for our GSIs.
	closeFD := func(name string, fd uint64) {
		tx.onUndo(name, func() error {
			_, err := tx.inject(hostsim.SysClose, fd)
			return err
		})
	}
	evBlk, err := tx.inject(hostsim.SysEventfd2, 0, 0)
	if err != nil {
		return err
	}
	closeFD("close_ev_blk", evBlk)
	evCons, err := tx.inject(hostsim.SysEventfd2, 0, 0)
	if err != nil {
		return err
	}
	closeFD("close_ev_cons", evCons)
	irqRegs := []struct {
		fd  uint64
		gsi uint32
	}{{evBlk, vmshBlkGSI}, {evCons, vmshConsGSI}}
	var evNet uint64
	if opts.Net != nil {
		if evNet, err = tx.inject(hostsim.SysEventfd2, 0, 0); err != nil {
			return err
		}
		closeFD("close_ev_net", evNet)
		irqRegs = append(irqRegs, struct {
			fd  uint64
			gsi uint32
		}{evNet, vmshNetGSI})
	}
	for _, reg := range irqRegs {
		irqfd := make([]byte, 16)
		putU32(irqfd[0:], uint32(reg.fd))
		putU32(irqfd[4:], reg.gsi)
		if opts.PCITransport {
			putU32(irqfd[8:], kvm.IrqfdFlagMSI)
		}
		if err := h.ProcessVMWrite(s.v.Proc, pid, mem.HVA(scratch), irqfd); err != nil {
			return err
		}
		if _, err := tx.inject(hostsim.SysIoctl, uint64(s.vmFD), kvm.KVMIrqfd, scratch); err != nil {
			return fmt.Errorf("vmsh: KVM_IRQFD (gsi %d): %w", reg.gsi, err)
		}
	}

	// Pass the eventfds back over the unix socket.
	sock, err := tx.inject(hostsim.SysSocket, 1, 1, 0)
	if err != nil {
		return err
	}
	closeFD("close_pass_sock", sock)
	if err := h.ProcessVMWrite(s.v.Proc, pid, mem.HVA(scratch)+128, []byte(sockPath)); err != nil {
		return err
	}
	if _, err := tx.inject(hostsim.SysConnect, sock, scratch+128, uint64(len(sockPath))); err != nil {
		return err
	}
	sendArgs := []uint64{sock, 0, 0, evBlk, evCons}
	wantFDs := 2
	if opts.Net != nil {
		sendArgs = append(sendArgs, evNet)
		wantFDs = 3
	}
	if _, err := tx.inject(hostsim.SysSendmsg, sendArgs...); err != nil {
		return err
	}
	conn, ok := listener.Accept()
	if !ok {
		return fmt.Errorf("vmsh: fd-passing connection missing")
	}
	_, rights, ok := conn.Recv()
	if !ok || len(rights) != wantFDs {
		return fmt.Errorf("vmsh: expected %d passed fds, got %d", wantFDs, len(rights))
	}
	s.blkEvFD = s.v.Proc.InstallFD(rights[0])
	s.consEvFD = s.v.Proc.InstallFD(rights[1])
	localFDs := []int{s.blkEvFD, s.consEvFD}
	if opts.Net != nil {
		s.netEvFD = s.v.Proc.InstallFD(rights[2])
		localFDs = append(localFDs, s.netEvFD)
	}
	tx.onUndo("close_local_evfds", func() error {
		for _, fd := range localFDs {
			_ = s.v.Proc.CloseFD(fd)
		}
		return nil
	})

	// A one-page buffer in our own address space for eventfd writes.
	sigHVA, err := s.v.Proc.Syscall(hostsim.SysMmap, 0, 4096, 3,
		hostsim.MapAnonymous|hostsim.MapPrivate, ^uint64(0), 0)
	if err != nil {
		return err
	}
	tx.onUndo("munmap_sig_page", func() error {
		_, err := s.v.Proc.Syscall(hostsim.SysMunmap, sigHVA, 4096)
		return err
	})
	s.sigHVA = sigHVA
	_ = s.v.Proc.WriteMem(mem.HVA(sigHVA), hostsim.EncodeU64s(1))

	// Device instances, running in the VMSH process over the
	// process_vm view of guest memory. The image byte store is
	// selectable (Options.Storage) over the image file's own pages,
	// which the default serves directly, uncharged below the page
	// cache.
	store, err := storage.OpenBlock(opts.Storage, storage.NewMemBlockOver(image.Pages()),
		storage.NewRemoteLink(h.Clock, h.Costs, h.Faults))
	if err != nil {
		return fmt.Errorf("storage backend %q: %w", opts.Storage, err)
	}
	backend := &mmapBackend{store: store, size: store.Size(), host: h,
		resident: make(map[int64]bool), bounce: opts.BounceCopy}
	batch := !opts.LegacyVirtio
	s.blk = virtio.NewBlkDevice(vmshBlkBase, s.pm, backend, h.Clock, h.Costs)
	s.blk.Batch = batch
	s.blk.Dev.Trace = h.Trace.Track("dev:blk")
	s.blk.Dev.Faults, s.blk.Dev.TapOp = h.Faults, faults.OpVQBlk
	s.blk.Dev.IRQs = s.reg.Counter("blk.irqs")
	// Queue 0 request latency: avail-publish to used-publish, vclock.
	s.blk.Dev.ReqLat = []*obs.Histogram{s.reg.Histogram("blk.req_vlat")}
	s.blk.SignalIRQ = func() {
		_, _ = s.v.Proc.Syscall(hostsim.SysWrite, uint64(s.blkEvFD), s.sigHVA, 8)
	}
	s.cons = virtio.NewConsoleDevice(vmshConsBase, s.pm)
	s.cons.Batch = batch
	s.cons.Dev.Trace = h.Trace.Track("dev:console")
	s.cons.Dev.Faults, s.cons.Dev.TapOp = h.Faults, faults.OpVQCons
	s.cons.Dev.IRQs = s.reg.Counter("cons.irqs")
	ctrConsOut := s.reg.Counter("cons.bytes_from_guest")
	s.cons.Output = func(b []byte) {
		// Guest output wakes the blocked VMSH console reader.
		h.Clock.Advance(h.Costs.SchedWake)
		ctrConsOut.Add(int64(len(b)))
		s.out.Write(b)
	}
	s.cons.SignalIRQ = func() {
		_, _ = s.v.Proc.Syscall(hostsim.SysWrite, uint64(s.consEvFD), s.sigHVA, 8)
	}
	if opts.Net != nil {
		// Cable this VM into the switch: the port's deterministic MAC
		// becomes the device's config-space address, guest frames go
		// out through Port.Send and inbound frames arrive through
		// Deliver — all against the process_vm view of guest memory.
		port := opts.Net.NewPort(fmt.Sprintf("vmsh-pid%d", pid), opts.NetLink)
		s.netPort = port
		// Ports cannot be removed from a switch (later port IDs would
		// shift); unplugging the delivery sink is the rollback.
		tx.onUndo("unplug_net_port", func() error { port.Deliver = nil; return nil })
		opts.Net.SetFaults(h.Faults)
		s.net = virtio.NewNetDevice(vmshNetBase, [6]byte(port.MAC()), s.pm)
		s.net.Batch = batch
		s.net.Dev.Trace = h.Trace.Track("dev:net")
		s.net.Dev.Faults, s.net.Dev.TapOp = h.Faults, faults.OpVQNet
		s.net.Dev.IRQs = s.reg.Counter("net.irqs")
		// Tx queue latency (queue NetTxQ); the rx queue's fill spans
		// carry no request semantics, so no histogram for queue 0.
		lat := make([]*obs.Histogram, virtio.NetTxQ+1)
		lat[virtio.NetTxQ] = s.reg.Histogram("net.tx_vlat")
		s.net.Dev.ReqLat = lat
		ctrTxF := s.reg.Counter("net.tx_frames")
		ctrTxB := s.reg.Counter("net.tx_bytes")
		ctrRxF := s.reg.Counter("net.rx_frames")
		ctrRxB := s.reg.Counter("net.rx_bytes")
		s.net.SendFrame = func(f []byte) {
			ctrTxF.Inc()
			ctrTxB.Add(int64(len(f)))
			opts.Net.Send(port, f)
		}
		port.Deliver = func(f []byte) {
			ctrRxF.Inc()
			ctrRxB.Add(int64(len(f)))
			s.net.DeliverToGuest(f)
		}
		s.net.SignalIRQ = func() {
			_, _ = s.v.Proc.Syscall(hostsim.SysWrite, uint64(s.netEvFD), s.sigHVA, 8)
		}
	}
	mux := &mmioMux{blk: s.blk, cons: s.cons}
	if s.net != nil {
		mux.net = s.net
	}

	mode := s.trap
	if mode == TrapAuto {
		mode = TrapIoregionfd
	}
	if mode == TrapIoregionfd {
		err := s.setupIoregion(tx, scratch, sock, listener, conn, mux)
		switch {
		case err == nil:
			// fast path active
		case s.trap == TrapAuto && errors.Is(err, hostsim.ErrNoSys):
			// Host kernel lacks the ioregionfd patch — fall back to
			// the ptrace trap, as the real tool must on stock kernels.
			mode = TrapWrapSyscall
		default:
			return err
		}
	}
	if mode == TrapWrapSyscall {
		// Hook every hypervisor syscall via ptrace and claim our MMIO
		// window on KVM_RUN exits.
		vmfdObj, err := s.target.FD(s.vmFD)
		if err != nil {
			return err
		}
		vmFD, ok := vmfdObj.(*kvm.VMFD)
		if !ok {
			return fmt.Errorf("vmsh: fd %d is not a KVM VM", s.vmFD)
		}
		s.wrapVM = vmFD.VM
		tx.tracer.SetSyscallTax(true)
		s.wrapVM.SetWrapTrap(vmshBlkBase, vmshMMIOWindow, mux)
	}
	tx.onUndo("teardown_traps", func() error { s.teardownTraps(); return nil })
	s.trap = mode
	return nil
}

// decodePairFD reads one little-endian fd number out of a socketpair
// result buffer.
func decodePairFD(raw []byte, off int) uint64 {
	return uint64(raw[off]) | uint64(raw[off+1])<<8 | uint64(raw[off+2])<<16 | uint64(raw[off+3])<<24
}

// setupIoregion creates a socketpair inside the hypervisor, registers
// one end as the ioregionfd for the VMSH MMIO window, receives the
// other end over the unix socket and serves it.
func (s *Session) setupIoregion(tx *attachTx, scratch, sock uint64,
	listener *hostsim.UnixListener, conn *hostsim.SockPairFD, mux kvm.MMIOHandler) error {
	h := s.v.Host
	pid := s.target.PID

	if _, err := tx.inject(hostsim.SysSocketpair, 1, 1, 0, scratch+192); err != nil {
		return fmt.Errorf("vmsh: injected socketpair: %w", err)
	}
	// The undo is registered before the readback: if the read itself
	// faults, the pair must still be closed. The undo re-reads the fd
	// numbers from the scratch page (undo crossings run with the fault
	// plane paused, so this cannot fault recursively).
	tx.onUndo("close_ioregion_pair", func() error {
		raw := make([]byte, 8)
		if err := h.ProcessVMRead(s.v.Proc, pid, mem.HVA(scratch)+192, raw); err != nil {
			return err
		}
		_, e1 := tx.inject(hostsim.SysClose, decodePairFD(raw, 0))
		_, e2 := tx.inject(hostsim.SysClose, decodePairFD(raw, 4))
		if e1 != nil {
			return e1
		}
		return e2
	})
	pairRaw := make([]byte, 8)
	if err := h.ProcessVMRead(s.v.Proc, pid, mem.HVA(scratch)+192, pairRaw); err != nil {
		return err
	}
	rfd := decodePairFD(pairRaw, 0)
	sfd := decodePairFD(pairRaw, 4)

	ioregion := make([]byte, 40)
	putU64(ioregion[0:], uint64(vmshBlkBase))
	putU64(ioregion[8:], vmshMMIOWindow)
	putU32(ioregion[24:], uint32(rfd))
	if err := h.ProcessVMWrite(s.v.Proc, pid, mem.HVA(scratch), ioregion); err != nil {
		return err
	}
	if _, err := tx.inject(hostsim.SysIoctl, uint64(s.vmFD), kvm.KVMSetIoregion, scratch); err != nil {
		return fmt.Errorf("vmsh: KVM_SET_IOREGION: %w", err)
	}
	// Receive the serving end via the unix socket.
	if _, err := tx.inject(hostsim.SysSendmsg, sock, 0, 0, sfd); err != nil {
		return err
	}
	conn2, ok := listener.Accept()
	if !ok {
		conn2 = conn
	}
	_, rights2, ok := conn2.Recv()
	if !ok || len(rights2) != 1 {
		// The second sendmsg reuses the existing connection.
		_, rights2, ok = conn.Recv()
		if !ok || len(rights2) != 1 {
			return fmt.Errorf("vmsh: serving socket not passed")
		}
	}
	serveSock, okCast := rights2[0].(*hostsim.SockPairFD)
	if !okCast {
		return fmt.Errorf("vmsh: passed fd is %T, want socket", rights2[0])
	}
	serveFD := s.v.Proc.InstallFD(serveSock)
	tx.onUndo("close_serve_sock", func() error { return s.v.Proc.CloseFD(serveFD) })
	serveSock.SetHandler(mux)
	s.serveSock = serveSock
	return nil
}
