package hostsim

import (
	"encoding/binary"
	"fmt"

	"vmsh/internal/mem"
)

// Real x86-64 Linux syscall numbers for everything the simulation
// dispatches. VMSH builds register files against this ABI when
// injecting calls, exactly like the real sideloader.
const (
	SysRead          = 0
	SysWrite         = 1
	SysClose         = 3
	SysMmap          = 9
	SysMunmap        = 11
	SysIoctl         = 16
	SysPread64       = 17
	SysPwrite64      = 18
	SysSendmsg       = 46
	SysRecvmsg       = 47
	SysSocket        = 41
	SysConnect       = 42
	SysSocketpair    = 53
	SysGetpid        = 39
	SysEventfd2      = 290
	SysFsync         = 74
	SysProcessVMRead = 310
	SysProcessVMWrit = 311
)

// mmap constants (subset).
const (
	ProtRead     = 1
	ProtWrite    = 2
	MapPrivate   = 2
	MapAnonymous = 0x20
)

// SyscallName returns a human-readable name for diagnostics.
func SyscallName(nr uint64) string {
	names := map[uint64]string{
		SysRead: "read", SysWrite: "write", SysClose: "close",
		SysMmap: "mmap", SysMunmap: "munmap", SysIoctl: "ioctl",
		SysPread64: "pread64", SysPwrite64: "pwrite64",
		SysSendmsg: "sendmsg", SysRecvmsg: "recvmsg",
		SysSocket: "socket", SysConnect: "connect", SysGetpid: "getpid",
		SysEventfd2: "eventfd2", SysFsync: "fsync",
	}
	if n, ok := names[nr]; ok {
		return n
	}
	return fmt.Sprintf("sys_%d", nr)
}

// Syscall executes a system call in the context of p's calling thread,
// charging clock costs and enforcing seccomp. Hypervisor device
// backends use this for their own IO so that the wrap_syscall ptrace
// tax lands on them, as §6.3-B measures.
func (p *Process) Syscall(nr uint64, args ...uint64) (uint64, error) {
	if err := p.checkSeccomp(nr); err != nil {
		return 0, err
	}
	p.chargeSyscall()
	return p.host.doSyscall(p, nr, args)
}

// doSyscall dispatches an already-charged, already-filtered syscall.
func (h *Host) doSyscall(p *Process, nr uint64, args []uint64) (uint64, error) {
	a := func(i int) uint64 {
		if i < len(args) {
			return args[i]
		}
		return 0
	}
	switch nr {
	case SysGetpid:
		return uint64(p.PID), nil

	case SysMmap:
		// mmap(NULL, len, prot, MAP_ANONYMOUS|MAP_PRIVATE, -1, 0)
		length := a(1)
		if length == 0 {
			return 0, ErrInval
		}
		if a(3)&MapAnonymous == 0 {
			return 0, ErrNoSys // file mappings handled via HostFile.Mmap
		}
		m, err := p.AS.MapAnon(length, "anon (injected)")
		if err != nil {
			return 0, err
		}
		return uint64(m.HVA), nil

	case SysMunmap:
		if err := p.AS.Unmap(mem.HVA(a(0))); err != nil {
			return 0, err
		}
		return 0, nil

	case SysIoctl:
		fd, err := p.FD(int(a(0)))
		if err != nil {
			return 0, err
		}
		ifd, ok := fd.(IoctlFD)
		if !ok {
			return 0, ErrInval
		}
		return ifd.Ioctl(p, a(1), a(2))

	case SysClose:
		if err := p.CloseFD(int(a(0))); err != nil {
			return 0, err
		}
		return 0, nil

	case SysEventfd2:
		e := &EventFD{count: a(0)}
		return uint64(p.InstallFD(e)), nil

	case SysWrite:
		fd, err := p.FD(int(a(0)))
		if err != nil {
			return 0, err
		}
		w, ok := fd.(WritableFD)
		if !ok {
			return 0, ErrInval
		}
		buf := make([]byte, a(2))
		if err := p.AS.read(mem.HVA(a(1)), buf); err != nil {
			return 0, err
		}
		n, err := w.WriteFD(p, buf)
		return uint64(n), err

	case SysSocketpair:
		// args: domain, type, protocol, pointer to int[2] in memory.
		a1, b1 := NewSockPair(fmt.Sprintf("pair-%d", p.PID))
		fa := p.InstallFD(a1)
		fb := p.InstallFD(b1)
		var out [8]byte
		binary.LittleEndian.PutUint32(out[0:], uint32(fa))
		binary.LittleEndian.PutUint32(out[4:], uint32(fb))
		if err := p.AS.write(mem.HVA(a(3)), out[:]); err != nil {
			return 0, err
		}
		return 0, nil

	case SysSocket:
		// Placeholder socket: becomes connected on connect(2).
		s := &SockPairFD{SockEnd: SockEnd{peerName: "unconnected"}}
		return uint64(p.InstallFD(s)), nil

	case SysConnect:
		// args: fd, path pointer, path length. The path is read from
		// process memory like a real sockaddr_un.
		fdn := int(a(0))
		if _, err := p.FD(fdn); err != nil {
			return 0, err
		}
		pathBuf := make([]byte, a(2))
		if err := p.AS.read(mem.HVA(a(1)), pathBuf); err != nil {
			return 0, err
		}
		client, err := h.connectUnix(string(pathBuf))
		if err != nil {
			return 0, err
		}
		p.fds[fdn] = &FDEntry{Num: fdn, FD: client}
		return 0, nil

	case SysSendmsg:
		// args: fd, data pointer, data length, then any number of fd
		// numbers to pass as SCM_RIGHTS.
		fd, err := p.FD(int(a(0)))
		if err != nil {
			return 0, err
		}
		sock, ok := fd.(*SockPairFD)
		if !ok {
			return 0, ErrInval
		}
		data := make([]byte, a(2))
		if a(2) > 0 {
			if err := p.AS.read(mem.HVA(a(1)), data); err != nil {
				return 0, err
			}
		}
		var rights []FD
		for _, fdnum := range args[3:] {
			f, err := p.FD(int(fdnum))
			if err != nil {
				return 0, err
			}
			rights = append(rights, f)
		}
		sock.Send(data, rights)
		return uint64(len(data)), nil

	case SysPread64, SysPwrite64, SysFsync:
		fd, err := p.FD(int(a(0)))
		if err != nil {
			return 0, err
		}
		hf, ok := fd.(*HostFileFD)
		if !ok {
			return 0, ErrInval
		}
		switch nr {
		case SysFsync:
			return 0, hf.File.Fsync()
		case SysPread64:
			buf := make([]byte, a(2))
			if err := hf.File.ReadAt(buf, int64(a(3))); err != nil {
				return 0, err
			}
			if err := p.AS.write(mem.HVA(a(1)), buf); err != nil {
				return 0, err
			}
			return a(2), nil
		default:
			buf := make([]byte, a(2))
			if err := p.AS.read(mem.HVA(a(1)), buf); err != nil {
				return 0, err
			}
			if err := hf.File.WriteAt(buf, int64(a(3))); err != nil {
				return 0, err
			}
			return a(2), nil
		}

	default:
		return 0, fmt.Errorf("%w: %s", ErrNoSys, SyscallName(nr))
	}
}

// EncodeU64s packs little-endian u64s — helper for building the binary
// structs (kvm_regs, kvm_userspace_memory_region, ...) that injected
// ioctls exchange through hypervisor memory.
func EncodeU64s(vs ...uint64) []byte {
	out := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(out[i*8:], v)
	}
	return out
}

// DecodeU64 reads the i-th u64 of a packed struct.
func DecodeU64(b []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(b[i*8:])
}
