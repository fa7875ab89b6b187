package hostsim

import (
	"fmt"

	"vmsh/internal/faults"
	"vmsh/internal/mem"
)

// FD is anything installable in a process fd table. ProcLink is what
// a readlink of /proc/<pid>/fd/<n> shows — the sideloader keys its
// KVM fd discovery off these strings.
type FD interface {
	ProcLink() string
}

// IoctlFD is implemented by fds that accept ioctl (the KVM fds,
// registered by internal/kvm).
type IoctlFD interface {
	FD
	Ioctl(p *Process, cmd uint64, arg uint64) (uint64, error)
}

// WritableFD is implemented by fds accepting write(2) (eventfds).
type WritableFD interface {
	FD
	WriteFD(p *Process, data []byte) (int, error)
}

// FDEntry binds an FD into a table slot.
type FDEntry struct {
	Num int
	FD  FD
}

// InstallFD adds fd to the process table and returns its number.
func (p *Process) InstallFD(fd FD) int {
	n := p.nextFD
	p.nextFD++
	p.fds[n] = &FDEntry{Num: n, FD: fd}
	return n
}

// FD resolves a descriptor number.
func (p *Process) FD(n int) (FD, error) {
	e, ok := p.fds[n]
	if !ok {
		return nil, ErrBadFD
	}
	return e.FD, nil
}

// CloseFD removes a descriptor.
func (p *Process) CloseFD(n int) error {
	if _, ok := p.fds[n]; !ok {
		return ErrBadFD
	}
	delete(p.fds, n)
	return nil
}

// FDs returns a snapshot of the table sorted by number.
func (p *Process) FDs() []*FDEntry {
	out := make([]*FDEntry, 0, len(p.fds))
	for _, e := range p.fds {
		out = append(out, e)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].Num > out[j].Num; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// FDInfo is one row of /proc/<pid>/fd.
type FDInfo struct {
	Num  int
	Link string
}

// ProcFDInfo lists a target's descriptors, enforcing the same access
// rule as ptrace — this is how VMSH finds the KVM fds (§5).
func (h *Host) ProcFDInfo(caller *Process, targetPID int) ([]FDInfo, error) {
	target, ok := h.Process(targetPID)
	if !ok {
		return nil, ErrNoEnt
	}
	if !mayAccess(caller, target) {
		return nil, ErrPerm
	}
	if err := h.Faults.Check(faults.OpProcFDInfo); err != nil {
		h.Faults.Observe(faults.OpProcFDInfo, faults.NewDigest().U64(uint64(targetPID)), faults.NewDigest(), err)
		return nil, err
	}
	caller.chargeSyscall()
	var out []FDInfo
	for _, e := range target.FDs() {
		out = append(out, FDInfo{Num: e.Num, Link: e.FD.ProcLink()})
	}
	if h.Faults.Observing() {
		res := faults.NewDigest()
		for _, fi := range out {
			res = res.U64(uint64(fi.Num)).Str(fi.Link)
		}
		h.Faults.Observe(faults.OpProcFDInfo, faults.NewDigest().U64(uint64(targetPID)), res, nil)
	}
	return out, nil
}

// EventFD models eventfd(2): a 64-bit counter whose writes can be
// subscribed to kernel-side (KVM irqfd routing).
type EventFD struct {
	count    uint64
	onSignal func()
}

// ProcLink implements FD.
func (e *EventFD) ProcLink() string { return "anon_inode:[eventfd]" }

// Subscribe registers the kernel-side consumer invoked on each signal.
func (e *EventFD) Subscribe(fn func()) { e.onSignal = fn }

// Signal adds n to the counter and fires the subscriber.
func (e *EventFD) Signal(n uint64) {
	e.count += n
	if e.onSignal != nil {
		e.onSignal()
	}
}

// Drain returns and clears the counter.
func (e *EventFD) Drain() uint64 {
	c := e.count
	e.count = 0
	return c
}

// WriteFD implements write(2) on the eventfd.
func (e *EventFD) WriteFD(p *Process, data []byte) (int, error) {
	if len(data) != 8 {
		return 0, ErrInval
	}
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(data[i])
	}
	e.Signal(v)
	return 8, nil
}

// SockEnd is one end of a unix-domain stream socket. The simulation
// only models what VMSH needs: byte datagrams plus SCM_RIGHTS fd
// passing.
type SockEnd struct {
	peerName string
	msgs     []sockMsg
	handler  any
}

// SetHandler attaches an owner-side service routine to this end; the
// kernel-side ioregionfd router invokes it for each MMIO message
// instead of queueing bytes (the synchronous equivalent of the VMSH
// device thread blocking in read(2) on the socket).
func (s *SockEnd) SetHandler(h any) { s.handler = h }

// Handler returns the attached service routine.
func (s *SockEnd) Handler() any { return s.handler }

type sockMsg struct {
	data []byte
	fds  []FD
}

// ProcLink implements FD.
func (s *SockEnd) ProcLink() string { return "socket:[" + s.peerName + "]" }

// deliver enqueues a message (called on the peer).
func (s *SockEnd) deliver(data []byte, fds []FD) {
	s.msgs = append(s.msgs, sockMsg{data: append([]byte(nil), data...), fds: fds})
}

// Recv pops one message; ok=false when empty.
func (s *SockEnd) Recv() (data []byte, fds []FD, ok bool) {
	if len(s.msgs) == 0 {
		return nil, nil, false
	}
	m := s.msgs[0]
	s.msgs = s.msgs[1:]
	return m.data, m.fds, true
}

// SockPairFD is a connected socket end with a live peer pointer.
type SockPairFD struct {
	SockEnd
	Peer *SockPairFD
}

// NewSockPair returns two connected ends.
func NewSockPair(name string) (*SockPairFD, *SockPairFD) {
	a := &SockPairFD{SockEnd: SockEnd{peerName: name + ".a"}}
	b := &SockPairFD{SockEnd: SockEnd{peerName: name + ".b"}}
	a.Peer, b.Peer = b, a
	return a, b
}

// Send transmits to the peer end.
func (s *SockPairFD) Send(data []byte, fds []FD) { s.Peer.deliver(data, fds) }

// UnixListener is a named unix socket another process can connect to;
// VMSH binds one so injected sendmsg calls in the hypervisor can pass
// freshly created fds back to the VMSH process.
type UnixListener struct {
	Path  string
	Owner *Process
	conns []*SockPairFD // owner-side ends of accepted connections
}

// ProcLink implements FD.
func (l *UnixListener) ProcLink() string { return "socket:[" + l.Path + "]" }

// BindUnix registers a listener at path owned by p.
func (h *Host) BindUnix(p *Process, path string) (*UnixListener, error) {
	if _, exists := h.listeners[path]; exists {
		return nil, fmt.Errorf("%w: %s already bound", ErrInval, path)
	}
	l := &UnixListener{Path: path, Owner: p}
	h.listeners[path] = l
	p.InstallFD(l)
	return l, nil
}

// connectUnix is the connect(2) half: returns the client end, queueing
// the server end on the listener.
func (h *Host) connectUnix(path string) (*SockPairFD, error) {
	l, ok := h.listeners[path]
	if !ok {
		return nil, ErrConnRefuse
	}
	client, server := NewSockPair(path)
	l.conns = append(l.conns, server)
	return client, nil
}

// Accept pops one pending connection (owner side).
func (l *UnixListener) Accept() (*SockPairFD, bool) {
	if len(l.conns) == 0 {
		return nil, false
	}
	c := l.conns[0]
	l.conns = l.conns[1:]
	return c, true
}

// MemFD wraps a raw mem.Phys as an fd (the memory-mapped kvm_run
// region of a vCPU fd, for instance).
type MemFD struct {
	Link string
	Mem  *mem.Phys
}

// ProcLink implements FD.
func (m *MemFD) ProcLink() string { return m.Link }

// UnbindUnix removes a listener previously registered with BindUnix.
// The attach rollback path uses it so a re-attach after a fault can
// bind the same abstract socket name again.
func (h *Host) UnbindUnix(path string) { delete(h.listeners, path) }
