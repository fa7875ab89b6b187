package storage

import (
	"sort"

	"vmsh/internal/fserr"
)

// MemOptions tunes a MemFS instance.
type MemOptions struct {
	// Blocks caps data blocks (0 = 64Ki blocks, 256 MiB).
	Blocks int64
	// Inodes caps inode count (0 = Blocks/4).
	Inodes int64
}

// maxNameLen bounds entry names at Linux's NAME_MAX.
const maxNameLen = 255

// MemFS is the pure in-memory backend: a sparse-paged, fully
// accounted filesystem with hard links, symlinks, per-uid quota and
// exact block/inode statfs accounting. It serves the guest's diskless
// root and the 9p share's tree.
type MemFS struct {
	opt        MemOptions
	root       *memNode
	nextIno    uint64
	usedBlocks int64
	usedInodes int64
	quota      map[uint32]*QuotaUsage
}

// NewMemFS builds an empty in-memory filesystem.
func NewMemFS(opt MemOptions) *MemFS {
	if opt.Blocks == 0 {
		opt.Blocks = 64 << 10
	}
	if opt.Inodes == 0 {
		opt.Inodes = opt.Blocks / 4
	}
	fs := &MemFS{opt: opt, nextIno: 1,
		quota: make(map[uint32]*QuotaUsage)}
	fs.root = &memNode{fs: fs, ino: 1, mode: ModeDir | 0o755, nlink: 2,
		children: make(map[string]*memNode)}
	fs.usedInodes = 1
	return fs
}

// Root implements FS.
func (m *MemFS) Root() (Node, error) { return m.root, nil }

// Sync implements FS (memory is always in sync).
func (m *MemFS) Sync() error { return nil }

// Type implements FS.
func (m *MemFS) Type() string { return "tmpfs" }

// Statfs implements FS with exact block/inode accounting.
func (m *MemFS) Statfs() StatfsInfo {
	return StatfsInfo{
		BlockSize:  PageSize,
		Blocks:     uint64(m.opt.Blocks),
		BlocksFree: uint64(m.opt.Blocks - m.usedBlocks),
		Inodes:     uint64(m.opt.Inodes),
		InodesFree: uint64(m.opt.Inodes - m.usedInodes),
	}
}

// QuotaReport implements FS: per-uid blocks and inodes, sorted by uid.
func (m *MemFS) QuotaReport() ([]QuotaUsage, error) {
	out := make([]QuotaUsage, 0, len(m.quota))
	for _, q := range m.quota {
		out = append(out, *q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].UID < out[j].UID })
	return out, nil
}

func (m *MemFS) quotaCharge(uid uint32, blocks, inodes int64) {
	q, ok := m.quota[uid]
	if !ok {
		q = &QuotaUsage{UID: uid}
		m.quota[uid] = q
	}
	q.Blocks = uint64(int64(q.Blocks) + blocks)
	q.Inodes = uint64(int64(q.Inodes) + inodes)
}

type memNode struct {
	fs       *MemFS
	ino      uint64
	mode     uint32
	uid, gid uint32
	nlink    uint32
	atime    uint64
	mtime    uint64
	ctime    uint64
	size     int64
	pages    map[int64][]byte // page index -> PageSize bytes; absent is a hole
	target   string
	children map[string]*memNode
}

// Stat implements Node.
func (n *memNode) Stat() FileInfo {
	return FileInfo{
		Ino: uint32(n.ino), Mode: n.mode, UID: n.uid, GID: n.gid,
		Nlink: n.nlink, Size: n.size,
		Atime: n.atime, Mtime: n.mtime, Ctime: n.ctime,
	}
}

func (n *memNode) IsDir() bool     { return n.mode&ModeTypeMask == ModeDir }
func (n *memNode) IsSymlink() bool { return n.mode&ModeTypeMask == ModeSymlink }
func (n *memNode) ID() uint64      { return n.ino }

// Lookup implements Node.
func (n *memNode) Lookup(name string) (Node, error) {
	if !n.IsDir() {
		return nil, fserr.ErrNotDir
	}
	c, ok := n.children[name]
	if !ok {
		return nil, fserr.ErrNotFound
	}
	return c, nil
}

func (n *memNode) checkName(name string) error {
	if len(name) == 0 {
		return fserr.ErrInvalid
	}
	if len(name) > maxNameLen {
		return fserr.ErrNameTooLong
	}
	return nil
}

func (n *memNode) newChild(name string, mode, uid, gid uint32) (*memNode, error) {
	if !n.IsDir() {
		return nil, fserr.ErrNotDir
	}
	if err := n.checkName(name); err != nil {
		return nil, err
	}
	if _, exists := n.children[name]; exists {
		return nil, fserr.ErrExists
	}
	if n.fs.usedInodes >= n.fs.opt.Inodes {
		return nil, fserr.ErrNoSpace
	}
	n.fs.nextIno++
	c := &memNode{fs: n.fs, ino: n.fs.nextIno, mode: mode, uid: uid, gid: gid, nlink: 1}
	if c.IsDir() {
		c.children = make(map[string]*memNode)
		c.nlink = 2
		n.nlink++
	}
	n.children[name] = c
	n.fs.usedInodes++
	n.fs.quotaCharge(uid, 0, 1)
	return c, nil
}

// Create implements Node.
func (n *memNode) Create(name string, perm, uid, gid uint32) (Node, error) {
	c, err := n.newChild(name, ModeFile|perm&ModePermMask, uid, gid)
	if err != nil {
		return nil, err
	}
	c.pages = make(map[int64][]byte)
	return c, nil
}

// Mkdir implements Node.
func (n *memNode) Mkdir(name string, perm, uid, gid uint32) (Node, error) {
	c, err := n.newChild(name, ModeDir|perm&ModePermMask, uid, gid)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Symlink implements Node.
func (n *memNode) Symlink(name, target string, uid, gid uint32) (Node, error) {
	c, err := n.newChild(name, ModeSymlink|0o777, uid, gid)
	if err != nil {
		return nil, err
	}
	c.target = target
	c.size = int64(len(target))
	return c, nil
}

// Readlink implements Node.
func (n *memNode) Readlink() (string, error) {
	if !n.IsSymlink() {
		return "", fserr.ErrInvalid
	}
	return n.target, nil
}

// Link implements Node: hard links, files only.
func (n *memNode) Link(target Node, name string) error {
	t, ok := target.(*memNode)
	if !ok || t.fs != n.fs {
		return fserr.ErrXDev
	}
	if t.IsDir() {
		return fserr.ErrPerm
	}
	if !n.IsDir() {
		return fserr.ErrNotDir
	}
	if err := n.checkName(name); err != nil {
		return err
	}
	if _, exists := n.children[name]; exists {
		return fserr.ErrExists
	}
	n.children[name] = t
	t.nlink++
	return nil
}

// drop releases one name reference to c, freeing the inode's pages
// and accounting when the last link goes.
func (n *memNode) drop(c *memNode) {
	c.nlink--
	if c.nlink > 0 {
		return
	}
	n.fs.usedBlocks -= int64(len(c.pages))
	n.fs.quotaCharge(c.uid, -int64(len(c.pages)), -1)
	n.fs.usedInodes--
	c.pages = nil
}

// Unlink implements Node.
func (n *memNode) Unlink(name string) error {
	c, ok := n.children[name]
	if !ok {
		return fserr.ErrNotFound
	}
	if c.IsDir() {
		return fserr.ErrIsDir
	}
	delete(n.children, name)
	n.drop(c)
	return nil
}

// Rmdir implements Node.
func (n *memNode) Rmdir(name string) error {
	c, ok := n.children[name]
	if !ok {
		return fserr.ErrNotFound
	}
	if !c.IsDir() {
		return fserr.ErrNotDir
	}
	if len(c.children) > 0 {
		return fserr.ErrNotEmpty
	}
	delete(n.children, name)
	n.nlink--
	n.fs.usedInodes--
	n.fs.quotaCharge(c.uid, 0, -1)
	return nil
}

// Rename implements Node.
func (n *memNode) Rename(oldName string, dst Node, newName string) error {
	d, ok := dst.(*memNode)
	if !ok || d.fs != n.fs {
		return fserr.ErrXDev
	}
	if err := d.checkName(newName); err != nil {
		return err
	}
	src, ok := n.children[oldName]
	if !ok {
		return fserr.ErrNotFound
	}
	if existing, exists := d.children[newName]; exists {
		if existing == src {
			// A rename onto another name of the same inode is a no-op
			// (POSIX).
			return nil
		}
		if existing.IsDir() {
			if !src.IsDir() {
				return fserr.ErrIsDir
			}
			if len(existing.children) > 0 {
				return fserr.ErrNotEmpty
			}
			delete(d.children, newName)
			d.nlink--
			n.fs.usedInodes--
			n.fs.quotaCharge(existing.uid, 0, -1)
		} else {
			if src.IsDir() {
				return fserr.ErrNotDir
			}
			delete(d.children, newName)
			d.drop(existing)
		}
	}
	delete(n.children, oldName)
	d.children[newName] = src
	if src.IsDir() && n != d {
		n.nlink--
		d.nlink++
	}
	return nil
}

// ReadDir implements Node, sorted by name.
func (n *memNode) ReadDir() ([]DirEntry, error) {
	if !n.IsDir() {
		return nil, fserr.ErrNotDir
	}
	out := make([]DirEntry, 0, len(n.children))
	for name, c := range n.children {
		out = append(out, DirEntry{
			Ino: uint32(c.ino), Type: c.mode & ModeTypeMask, Name: name})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// ReadAt implements Node: short read at EOF, holes read as zeros.
func (n *memNode) ReadAt(buf []byte, off int64) (int, error) {
	if n.IsDir() {
		return 0, fserr.ErrIsDir
	}
	if off < 0 {
		return 0, fserr.ErrInvalid
	}
	if off >= n.size {
		return 0, nil
	}
	if off+int64(len(buf)) > n.size {
		buf = buf[:n.size-off]
	}
	total := 0
	for len(buf) > 0 {
		page := off / PageSize
		po := int(off % PageSize)
		chunk := PageSize - po
		if chunk > len(buf) {
			chunk = len(buf)
		}
		if data := n.pages[page]; data != nil {
			copy(buf[:chunk], data[po:po+chunk])
		} else {
			clear(buf[:chunk])
		}
		buf = buf[chunk:]
		off += int64(chunk)
		total += chunk
	}
	return total, nil
}

// WriteAt implements Node: sparse allocation page by page, with block
// and quota accounting on first touch of each page.
func (n *memNode) WriteAt(buf []byte, off int64) (int, error) {
	if n.IsDir() {
		return 0, fserr.ErrIsDir
	}
	if off < 0 {
		return 0, fserr.ErrInvalid
	}
	// Capacity precheck: count pages this write newly allocates.
	var newPages int64
	for page := off / PageSize; page <= (off+int64(len(buf))-1)/PageSize; page++ {
		if len(buf) == 0 {
			break
		}
		if _, ok := n.pages[page]; !ok {
			newPages++
		}
	}
	if n.fs.usedBlocks+newPages > n.fs.opt.Blocks {
		return 0, fserr.ErrNoSpace
	}
	total := 0
	for len(buf) > 0 {
		page := off / PageSize
		po := int(off % PageSize)
		chunk := PageSize - po
		if chunk > len(buf) {
			chunk = len(buf)
		}
		data, ok := n.pages[page]
		if !ok {
			data = make([]byte, PageSize)
			if n.pages == nil {
				n.pages = make(map[int64][]byte)
			}
			n.pages[page] = data
			n.fs.usedBlocks++
			n.fs.quotaCharge(n.uid, 1, 0)
		}
		copy(data[po:], buf[:chunk])
		buf = buf[chunk:]
		off += int64(chunk)
		total += chunk
	}
	if off > n.size {
		n.size = off
	}
	return total, nil
}

// Truncate implements Node: growth is sparse (metadata only); shrink
// frees whole pages past the end and zeroes the tail of a straddling
// page so a later extension reads zeros.
func (n *memNode) Truncate(size int64) error {
	if n.IsDir() {
		return fserr.ErrIsDir
	}
	if size < 0 {
		return fserr.ErrInvalid
	}
	if size < n.size {
		firstGone := (size + PageSize - 1) / PageSize
		for page := range n.pages {
			if page >= firstGone {
				delete(n.pages, page)
				n.fs.usedBlocks--
				n.fs.quotaCharge(n.uid, -1, 0)
			}
		}
		if po := size % PageSize; po != 0 {
			if data := n.pages[size/PageSize]; data != nil {
				clear(data[po:])
			}
		}
	}
	n.size = size
	return nil
}

// Chmod implements Node.
func (n *memNode) Chmod(perm uint32) error {
	n.mode = n.mode&ModeTypeMask | perm&ModePermMask
	return nil
}

// Chown implements Node, moving quota usage to the new owner.
func (n *memNode) Chown(uid, gid uint32) error {
	if uid != n.uid {
		blocks := int64(len(n.pages))
		n.fs.quotaCharge(n.uid, -blocks, -1)
		n.fs.quotaCharge(uid, blocks, 1)
	}
	n.uid, n.gid = uid, gid
	return nil
}

// SetTimes implements Node.
func (n *memNode) SetTimes(atime, mtime uint64) error {
	n.atime, n.mtime = atime, mtime
	return nil
}
