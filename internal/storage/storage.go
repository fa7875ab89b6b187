// Package storage defines the pluggable storage backend layer: the
// FS/Node interface pair every mountable filesystem implements and the
// BlockBackend contract every block store implements. guestos' VFS
// walks these interfaces, simplefs implements them itself, and fsimage
// builds images on any BlockBackend. The package adds the in-memory
// filesystem (mem.go) and one block store per medium (block.go): RAM,
// copy-on-write over a read-only base, content-addressed/dedup
// (cas.go) and a simulated remote object store whose latency and
// bandwidth are charged through the virtual clock like netsim links
// (remote.go). OpenBlock selects a store by name at attach time
// (core.Options.Storage / vmsh.WithStorageBackend); a filesystem over
// a medium is simplefs mounted on its store.
//
// Every backend is driven through one conformance suite
// (storage/conformance) and the E1 xfstests families; see DESIGN §14.
package storage

// PageSize is the accounting granularity shared by every backend: the
// 4 KiB unit of sparse-file block accounting and of the block stores'
// copy-on-write, dedup and remote objects.
const PageSize = 4096

// File type bits stored in the mode's high nibble.
const (
	ModeTypeMask = 0xf000
	ModeDir      = 0x4000
	ModeFile     = 0x8000
	ModeSymlink  = 0xa000
	ModePermMask = 0x0fff
)

// FileInfo is the stat record every backend serves.
type FileInfo struct {
	Ino   uint32
	Mode  uint32
	UID   uint32
	GID   uint32
	Nlink uint32
	Size  int64
	Atime uint64
	Mtime uint64
	Ctime uint64
}

// DirEntry is one directory listing entry.
type DirEntry struct {
	Ino  uint32
	Type uint32 // ModeDir / ModeFile / ModeSymlink
	Name string
}

// StatfsInfo is filesystem-level usage accounting.
type StatfsInfo struct {
	BlockSize  int
	Blocks     uint64
	BlocksFree uint64
	Inodes     uint64
	InodesFree uint64
}

// QuotaUsage is the per-uid accounting record.
type QuotaUsage struct {
	UID    uint32
	Blocks uint64
	Inodes uint64
}

// Node is the inode contract the VFS walks. Errors are the internal/fserr sentinels, uniformly: a
// backend that wraps them must do so with %w so errors.Is works
// through the interface.
type Node interface {
	Stat() FileInfo
	IsDir() bool
	IsSymlink() bool
	Lookup(name string) (Node, error)
	Create(name string, perm, uid, gid uint32) (Node, error)
	Mkdir(name string, perm, uid, gid uint32) (Node, error)
	Symlink(name, target string, uid, gid uint32) (Node, error)
	Readlink() (string, error)
	Link(target Node, name string) error
	Unlink(name string) error
	Rmdir(name string) error
	Rename(oldName string, dst Node, newName string) error
	ReadDir() ([]DirEntry, error)
	ReadAt(buf []byte, off int64) (int, error)
	WriteAt(buf []byte, off int64) (int, error)
	Truncate(size int64) error
	Chmod(perm uint32) error
	Chown(uid, gid uint32) error
	SetTimes(atime, mtime uint64) error
	ID() uint64
}

// FS is a mountable filesystem.
type FS interface {
	Root() (Node, error)
	Sync() error
	Statfs() StatfsInfo
	QuotaReport() ([]QuotaUsage, error)
	// Type is the filesystem type the guest sees in mount tables
	// ("tmpfs", "simplefs", "9p", "proc").
	Type() string
}

// BlockBackend is the block device contract (guestos.BlockDev is an
// alias): fixed-size random-access byte store with an explicit flush
// barrier. Implementations charge the virtual clock themselves where
// the medium has a cost (host NVMe, remote links); RAM-class stores are
// free and leave charging to the caller. SupportsFUA reports
// forced-unit-access: the virtio paths do not negotiate it, which is
// why simplefs's quota persistence (and its three xfstests) fail there
// on both qemu-blk and vmsh-blk (§6.1).
type BlockBackend interface {
	ReadAt(off int64, buf []byte) error
	WriteAt(off int64, buf []byte) error
	Flush() error
	Size() int64
	SupportsFUA() bool
}
