package hypervisor

import (
	"sort"
	"time"

	"vmsh/internal/fserr"
	"vmsh/internal/guestos"
	"vmsh/internal/hostsim"
	"vmsh/internal/simplefs"
	"vmsh/internal/vclock"
)

// NinePFS models QEMU's virtio-9p host directory share: a flat host
// directory whose files live in the *host* page cache, reached through
// a per-operation protocol round trip. Stacking the guest page cache
// (the VFS layer adds it) on top of the host's is what makes qemu-9p's
// IOPS collapse in Figure 6b.
type NinePFS struct {
	host *hostsim.Host
	root *ninePNode
	// dirtyBytes tracks data sitting in the host page cache awaiting
	// writeback to the actual disk.
	dirtyBytes int
}

// NewNinePFS creates an empty share.
func NewNinePFS(h *hostsim.Host) *NinePFS {
	fs := &NinePFS{host: h}
	fs.root = &ninePNode{fs: fs, ino: 1, isDir: true, children: map[string]*ninePNode{}}
	return fs
}

// charge accounts one 9p message round trip.
func (fs *NinePFS) charge() {
	c := fs.host.Costs
	fs.host.Clock.Advance(c.NinePOp)
}

// chargeData accounts payload traffic: protocol messages are capped at
// msize (64 KiB), and every byte crosses the host page cache.
func (fs *NinePFS) chargeData(n int) {
	const msize = 64 * 1024
	msgs := (n + msize - 1) / msize
	if msgs < 1 {
		msgs = 1
	}
	c := fs.host.Costs
	fs.host.Clock.Advance(time0(c.NinePOp, msgs))
	fs.host.Clock.Advance(vclock.Copy(n, c.MemcpyBW)) // server-side copy
	pages := (n + 4095) / 4096
	fs.host.Clock.Advance(time0(c.PageCacheHit, pages)) // host page cache
}

// Root implements guestos.FileSystem.
func (fs *NinePFS) Root() (guestos.FSNode, error) { return fs.root, nil }

// Sync implements guestos.FileSystem; host-side fsync writes the
// dirty host page cache back to the device.
func (fs *NinePFS) Sync() error {
	fs.charge()
	if fs.dirtyBytes > 0 {
		fs.host.Disk.ChargeWrite(fs.dirtyBytes)
		fs.dirtyBytes = 0
	}
	return nil
}

// Statfs implements guestos.FileSystem.
func (fs *NinePFS) Statfs() simplefs.StatfsInfo {
	return simplefs.StatfsInfo{BlockSize: 4096, Blocks: 1 << 24, BlocksFree: 1 << 24,
		Inodes: 1 << 20, InodesFree: 1 << 20}
}

// QuotaReport implements guestos.FileSystem.
func (fs *NinePFS) QuotaReport() ([]simplefs.QuotaUsage, error) {
	return nil, fserr.ErrNotSupported
}

// ReadAheadPages caps the guest readahead window at one page: the v9fs
// client of this kernel era issues a protocol round trip per page,
// which is the "two stacked file systems" cost of §6.3-C.
func (fs *NinePFS) ReadAheadPages() int64 { return 1 }

type ninePNode struct {
	fs       *NinePFS
	ino      uint64
	isDir    bool
	data     []byte
	children map[string]*ninePNode
	nextIno  uint64
}

func (n *ninePNode) Stat() simplefs.FileInfo {
	// Attributes are cached client-side (cache=loose), so stat does
	// not pay a protocol round trip.
	mode := uint32(simplefs.ModeFile | 0o644)
	if n.isDir {
		mode = simplefs.ModeDir | 0o755
	}
	return simplefs.FileInfo{Ino: uint32(n.ino), Mode: mode, Nlink: 1, Size: int64(len(n.data))}
}

func (n *ninePNode) IsDir() bool     { return n.isDir }
func (n *ninePNode) IsSymlink() bool { return false }

func (n *ninePNode) Lookup(name string) (guestos.FSNode, error) {
	n.fs.charge()
	if !n.isDir {
		return nil, fserr.ErrNotDir
	}
	c, ok := n.children[name]
	if !ok {
		return nil, fserr.ErrNotFound
	}
	return c, nil
}

func (n *ninePNode) Create(name string, perm, uid, gid uint32) (guestos.FSNode, error) {
	n.fs.charge()
	if !n.isDir {
		return nil, fserr.ErrNotDir
	}
	if _, ok := n.children[name]; ok {
		return nil, fserr.ErrExists
	}
	n.fs.root.nextIno++
	c := &ninePNode{fs: n.fs, ino: n.fs.root.nextIno + 1}
	n.children[name] = c
	return c, nil
}

func (n *ninePNode) Mkdir(name string, perm, uid, gid uint32) (guestos.FSNode, error) {
	n.fs.charge()
	if _, ok := n.children[name]; ok {
		return nil, fserr.ErrExists
	}
	n.fs.root.nextIno++
	c := &ninePNode{fs: n.fs, ino: n.fs.root.nextIno + 1, isDir: true, children: map[string]*ninePNode{}}
	n.children[name] = c
	return c, nil
}

func (n *ninePNode) Symlink(name, target string, uid, gid uint32) (guestos.FSNode, error) {
	return nil, fserr.ErrNotSupported
}
func (n *ninePNode) Readlink() (string, error)                { return "", fserr.ErrInvalid }
func (n *ninePNode) Link(t guestos.FSNode, name string) error { return fserr.ErrNotSupported }

func (n *ninePNode) Unlink(name string) error {
	n.fs.charge()
	c, ok := n.children[name]
	if !ok {
		return fserr.ErrNotFound
	}
	if c.isDir {
		return fserr.ErrIsDir
	}
	delete(n.children, name)
	return nil
}

func (n *ninePNode) Rmdir(name string) error {
	n.fs.charge()
	c, ok := n.children[name]
	if !ok {
		return fserr.ErrNotFound
	}
	if !c.isDir {
		return fserr.ErrNotDir
	}
	if len(c.children) > 0 {
		return fserr.ErrNotEmpty
	}
	delete(n.children, name)
	return nil
}

func (n *ninePNode) Rename(oldName string, dst guestos.FSNode, newName string) error {
	n.fs.charge()
	d, ok := dst.(*ninePNode)
	if !ok {
		return fserr.ErrXDev
	}
	src, ok := n.children[oldName]
	if !ok {
		return fserr.ErrNotFound
	}
	delete(n.children, oldName)
	d.children[newName] = src
	return nil
}

func (n *ninePNode) ReadDir() ([]simplefs.DirEntry, error) {
	n.fs.charge()
	if !n.isDir {
		return nil, fserr.ErrNotDir
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]simplefs.DirEntry, 0, len(names))
	for _, name := range names {
		c := n.children[name]
		typ := uint32(simplefs.ModeFile)
		if c.isDir {
			typ = simplefs.ModeDir
		}
		out = append(out, simplefs.DirEntry{Ino: uint32(c.ino), Type: typ, Name: name})
	}
	return out, nil
}

func (n *ninePNode) ReadAt(buf []byte, off int64) (int, error) {
	if n.isDir {
		return 0, fserr.ErrIsDir
	}
	if off >= int64(len(n.data)) {
		return 0, nil
	}
	nn := copy(buf, n.data[off:])
	n.fs.chargeData(nn)
	return nn, nil
}

func (n *ninePNode) WriteAt(buf []byte, off int64) (int, error) {
	if n.isDir {
		return 0, fserr.ErrIsDir
	}
	end := off + int64(len(buf))
	if end > int64(len(n.data)) {
		grown := make([]byte, end)
		copy(grown, n.data)
		n.data = grown
	}
	copy(n.data[off:], buf)
	n.fs.chargeData(len(buf))
	n.fs.dirtyBytes += len(buf)
	// The host kernel throttles writers once too much is dirty.
	if n.fs.dirtyBytes >= 64<<20 {
		n.fs.host.Disk.ChargeWrite(n.fs.dirtyBytes)
		n.fs.dirtyBytes = 0
	}
	return len(buf), nil
}

func (n *ninePNode) Truncate(size int64) error {
	n.fs.charge()
	if size <= int64(len(n.data)) {
		n.data = n.data[:size]
		return nil
	}
	grown := make([]byte, size)
	copy(grown, n.data)
	n.data = grown
	return nil
}

func (n *ninePNode) Chmod(perm uint32) error     { n.fs.charge(); return nil }
func (n *ninePNode) Chown(uid, gid uint32) error { n.fs.charge(); return nil }
func (n *ninePNode) SetTimes(a, m uint64) error  { n.fs.charge(); return nil }
func (n *ninePNode) ID() uint64                  { return n.ino }

// time0 multiplies a duration by a count.
func time0(d time.Duration, n int) time.Duration { return d * time.Duration(n) }
