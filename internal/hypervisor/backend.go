package hypervisor

import (
	"vmsh/internal/hostsim"
	"vmsh/internal/mem"
)

// fileBackend serves a virtio-blk device from a host image file using
// the hypervisor's own pread64/pwrite64 system calls — so when the
// wrap_syscall trap is attached, this IO path pays the ptrace tax that
// Figure 6's † rows measure.
type fileBackend struct {
	proc    *hostsim.Process
	fd      uint64
	file    *hostsim.HostFile
	bufHVA  mem.HVA
	bufSize int
}

const backendBufSize = 256 * 1024

func newFileBackend(proc *hostsim.Process, fd uint64, file *hostsim.HostFile) (*fileBackend, error) {
	hva, err := proc.Syscall(hostsim.SysMmap, 0, backendBufSize, 3,
		hostsim.MapAnonymous|hostsim.MapPrivate, ^uint64(0), 0)
	if err != nil {
		return nil, err
	}
	return &fileBackend{proc: proc, fd: fd, file: file, bufHVA: mem.HVA(hva), bufSize: backendBufSize}, nil
}

// ReadBlk implements virtio.BlkBackend. QEMU's O_DIRECT backend reads
// straight into the guest's pages (preadv on the mapped buffer), so
// only the syscall itself and the device time are charged.
func (b *fileBackend) ReadBlk(off int64, buf []byte) error {
	for len(buf) > 0 {
		n := len(buf)
		if n > b.bufSize {
			n = b.bufSize
		}
		if _, err := b.proc.Syscall(hostsim.SysPread64, b.fd, uint64(b.bufHVA), uint64(n), uint64(off)); err != nil {
			return err
		}
		if err := b.proc.ReadMem(b.bufHVA, buf[:n]); err != nil {
			return err
		}
		buf = buf[n:]
		off += int64(n)
	}
	return nil
}

// WriteBlk implements virtio.BlkBackend.
func (b *fileBackend) WriteBlk(off int64, buf []byte) error {
	for len(buf) > 0 {
		n := len(buf)
		if n > b.bufSize {
			n = b.bufSize
		}
		if err := b.proc.WriteMem(b.bufHVA, buf[:n]); err != nil {
			return err
		}
		if _, err := b.proc.Syscall(hostsim.SysPwrite64, b.fd, uint64(b.bufHVA), uint64(n), uint64(off)); err != nil {
			return err
		}
		buf = buf[n:]
		off += int64(n)
	}
	return nil
}

// FlushBlk implements virtio.BlkBackend.
func (b *fileBackend) FlushBlk() error {
	_, err := b.proc.Syscall(hostsim.SysFsync, b.fd)
	return err
}

// Capacity implements virtio.BlkBackend.
func (b *fileBackend) Capacity() int64 { return b.file.Size() }
