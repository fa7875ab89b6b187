package hypervisor

import (
	"time"

	"vmsh/internal/fserr"
	"vmsh/internal/hostsim"
	"vmsh/internal/storage"
	"vmsh/internal/vclock"
)

// NinePFS models QEMU's virtio-9p host directory share: a flat host
// directory whose files live in the *host* page cache, reached through
// a per-operation protocol round trip. Stacking the guest page cache
// (the VFS layer adds it) on top of the host's is what makes qemu-9p's
// IOPS collapse in Figure 6b.
//
// The share's tree is a storage.MemFS, sized like the guest's
// in-memory root; NinePFS adds only what the protocol costs.
type NinePFS struct {
	*storage.MemFS
	host *hostsim.Host
	// dirtyBytes tracks data sitting in the host page cache awaiting
	// writeback to the actual disk.
	dirtyBytes int
}

// NewNinePFS creates an empty share.
func NewNinePFS(h *hostsim.Host) *NinePFS {
	return &NinePFS{MemFS: storage.NewMemFS(storage.MemOptions{Blocks: 1 << 20, Inodes: 1 << 20}), host: h}
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
	fs.host.Clock.Advance(c.NinePOp * time.Duration(msgs))
	fs.host.Clock.Advance(vclock.Copy(n, c.MemcpyBW)) // server-side copy
	pages := (n + 4095) / 4096
	fs.host.Clock.Advance(c.PageCacheHit * time.Duration(pages)) // host page cache
}

// Root implements storage.FS.
func (fs *NinePFS) Root() (storage.Node, error) {
	root, err := fs.MemFS.Root()
	if err != nil {
		return nil, err
	}
	return &ninePNode{Node: root, fs: fs}, nil
}

// Sync implements storage.FS; host-side fsync writes the dirty host
// page cache back to the device.
func (fs *NinePFS) Sync() error {
	fs.charge()
	if fs.dirtyBytes > 0 {
		fs.host.Disk.ChargeWrite(fs.dirtyBytes)
		fs.dirtyBytes = 0
	}
	return nil
}

// Type implements storage.FS.
func (fs *NinePFS) Type() string { return "9p" }

// QuotaReport implements storage.FS: the share reports no quota.
func (fs *NinePFS) QuotaReport() ([]storage.QuotaUsage, error) {
	return nil, fserr.ErrNotSupported
}

// ReadAheadPages caps the guest readahead window at one page: the v9fs
// client of this kernel era issues a protocol round trip per page,
// which is the "two stacked file systems" cost of §6.3-C.
func (fs *NinePFS) ReadAheadPages() int64 { return 1 }

// ninePNode charges the protocol on a MemFS node: one round trip per
// namespace operation, truncate and attribute change, the payload for
// every read and write. Attributes are cached client-side
// (cache=loose), so Stat costs nothing. Namespace operations re-wrap
// the nodes they return.
type ninePNode struct {
	storage.Node
	fs *NinePFS
}

func (n *ninePNode) wrap(inner storage.Node, err error) (storage.Node, error) {
	if err != nil {
		return nil, err
	}
	return &ninePNode{Node: inner, fs: n.fs}, nil
}

func (n *ninePNode) Lookup(name string) (storage.Node, error) {
	n.fs.charge()
	return n.wrap(n.Node.Lookup(name))
}

func (n *ninePNode) Create(name string, perm, uid, gid uint32) (storage.Node, error) {
	n.fs.charge()
	return n.wrap(n.Node.Create(name, perm, uid, gid))
}

func (n *ninePNode) Mkdir(name string, perm, uid, gid uint32) (storage.Node, error) {
	n.fs.charge()
	return n.wrap(n.Node.Mkdir(name, perm, uid, gid))
}

// Symlink is refused: the share is exported without symlink support.
func (n *ninePNode) Symlink(name, target string, uid, gid uint32) (storage.Node, error) {
	return nil, fserr.ErrNotSupported
}

// Link is refused: the share is exported without hard links.
func (n *ninePNode) Link(target storage.Node, name string) error { return fserr.ErrNotSupported }

func (n *ninePNode) Unlink(name string) error {
	n.fs.charge()
	return n.Node.Unlink(name)
}

func (n *ninePNode) Rmdir(name string) error {
	n.fs.charge()
	return n.Node.Rmdir(name)
}

func (n *ninePNode) Rename(oldName string, dst storage.Node, newName string) error {
	n.fs.charge()
	if d, ok := dst.(*ninePNode); ok {
		dst = d.Node
	}
	return n.Node.Rename(oldName, dst, newName)
}

func (n *ninePNode) ReadDir() ([]storage.DirEntry, error) {
	n.fs.charge()
	return n.Node.ReadDir()
}

// ReadAt charges the bytes read; a read at or past EOF moves nothing
// and costs nothing.
func (n *ninePNode) ReadAt(buf []byte, off int64) (int, error) {
	nr, err := n.Node.ReadAt(buf, off)
	if err == nil && nr > 0 {
		n.fs.chargeData(nr)
	}
	return nr, err
}

// WriteAt charges the bytes written, which stay dirty in the host page
// cache until Sync or the writeback throttle.
func (n *ninePNode) WriteAt(buf []byte, off int64) (int, error) {
	nw, err := n.Node.WriteAt(buf, off)
	if err != nil {
		return nw, err
	}
	n.fs.chargeData(nw)
	n.fs.dirtyBytes += nw
	// The host kernel throttles writers once too much is dirty.
	if n.fs.dirtyBytes >= 64<<20 {
		n.fs.host.Disk.ChargeWrite(n.fs.dirtyBytes)
		n.fs.dirtyBytes = 0
	}
	return nw, nil
}

func (n *ninePNode) Truncate(size int64) error {
	n.fs.charge()
	return n.Node.Truncate(size)
}

func (n *ninePNode) Chmod(perm uint32) error {
	n.fs.charge()
	return n.Node.Chmod(perm)
}

func (n *ninePNode) Chown(uid, gid uint32) error {
	n.fs.charge()
	return n.Node.Chown(uid, gid)
}

func (n *ninePNode) SetTimes(atime, mtime uint64) error {
	n.fs.charge()
	return n.Node.SetTimes(atime, mtime)
}
