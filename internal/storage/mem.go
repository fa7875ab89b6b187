package storage

import (
	"sort"
	"strings"

	"vmsh/internal/fserr"
)

// pageStore is the data plane behind MemFS: file content is a sparse
// map of page references into a store. The plain store (here) keeps
// one private page per reference; the content-addressed store
// (cas.go) dedups identical pages with refcounts. Reference 0 is the
// hole page and always reads as zeros.
type pageStore interface {
	// write stores data (always PageSize bytes), releasing old
	// (0 = none), and returns the new reference.
	write(old uint64, data []byte) uint64
	// read returns the page for ref; callers must not mutate it.
	// ref 0 returns nil (a hole).
	read(ref uint64) []byte
	// free releases a reference.
	free(ref uint64)
}

// plainStore is the non-deduplicating page store.
type plainStore struct {
	pages map[uint64][]byte
	next  uint64
}

func newPlainStore() *plainStore {
	return &plainStore{pages: make(map[uint64][]byte)}
}

func (s *plainStore) write(old uint64, data []byte) uint64 {
	if old != 0 {
		// Reuse the existing private page in place.
		copy(s.pages[old], data)
		return old
	}
	s.next++
	p := make([]byte, PageSize)
	copy(p, data)
	s.pages[s.next] = p
	return s.next
}

func (s *plainStore) read(ref uint64) []byte { return s.pages[ref] }

func (s *plainStore) free(ref uint64) { delete(s.pages, ref) }

// MemOptions tunes a MemFS instance.
type MemOptions struct {
	// Blocks caps data blocks (0 = 64Ki blocks, 256 MiB).
	Blocks int64
	// Inodes caps inode count (0 = Blocks/4).
	Inodes int64
	// MaxName bounds entry names (0 = 255, simplefs parity).
	MaxName int
	// CaseFold makes lookups case-insensitive (case-preserving), the
	// conformance suite's CaseSensitive=false configuration.
	CaseFold bool
}

// MemFS is the pure in-memory backend: a sparse-paged, fully
// accounted filesystem with hard links, symlinks, per-uid quota and
// exact block/inode statfs accounting. It is also the substrate for
// the content-addressed backend (page store swap) and the writable
// top layer of the copy-on-write stack.
type MemFS struct {
	opt        MemOptions
	store      pageStore
	root       *memNode
	nextIno    uint64
	usedBlocks int64
	usedInodes int64
	quota      map[uint32]*QuotaUsage
	sealed     bool
}

// NewMemFS builds an empty in-memory filesystem.
func NewMemFS(opt MemOptions) *MemFS {
	return newMemFS(opt, newPlainStore())
}

func newMemFS(opt MemOptions, store pageStore) *MemFS {
	if opt.Blocks == 0 {
		opt.Blocks = 64 << 10
	}
	if opt.Inodes == 0 {
		opt.Inodes = opt.Blocks / 4
	}
	if opt.MaxName == 0 {
		opt.MaxName = 255
	}
	fs := &MemFS{opt: opt, store: store, nextIno: 1,
		quota: make(map[uint32]*QuotaUsage)}
	fs.root = &memNode{fs: fs, ino: 1, mode: ModeDir | 0o755, nlink: 2,
		children: make(map[string]childEnt)}
	fs.usedInodes = 1
	return fs
}

// Seal makes the filesystem read-only: every mutation returns
// fserr.ErrReadOnly. Sealed instances serve as lower layers of the
// copy-on-write stack.
func (m *MemFS) Seal() { m.sealed = true }

// Root implements FS.
func (m *MemFS) Root() (Node, error) { return m.root, nil }

// Sync implements FS (memory is always in sync).
func (m *MemFS) Sync() error { return nil }

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

// foldKey maps an entry name to its directory key.
func (m *MemFS) foldKey(name string) string {
	if m.CaseFold() {
		return strings.ToLower(name)
	}
	return name
}

// CaseFold reports whether lookups fold case.
func (m *MemFS) CaseFold() bool { return m.opt.CaseFold }

// childEnt preserves the display name under a (possibly folded) key.
type childEnt struct {
	name string
	n    *memNode
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
	pages    map[int64]uint64
	target   string
	children map[string]childEnt
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
	c, ok := n.children[n.fs.foldKey(name)]
	if !ok {
		return nil, fserr.ErrNotFound
	}
	return c.n, nil
}

func (n *memNode) checkName(name string) error {
	if len(name) == 0 {
		return fserr.ErrInvalid
	}
	if len(name) > n.fs.opt.MaxName {
		return fserr.ErrNameTooLong
	}
	return nil
}

func (n *memNode) newChild(name string, mode, uid, gid uint32) (*memNode, error) {
	if n.fs.sealed {
		return nil, fserr.ErrReadOnly
	}
	if !n.IsDir() {
		return nil, fserr.ErrNotDir
	}
	if err := n.checkName(name); err != nil {
		return nil, err
	}
	if _, exists := n.children[n.fs.foldKey(name)]; exists {
		return nil, fserr.ErrExists
	}
	if n.fs.usedInodes >= n.fs.opt.Inodes {
		return nil, fserr.ErrNoSpace
	}
	n.fs.nextIno++
	c := &memNode{fs: n.fs, ino: n.fs.nextIno, mode: mode, uid: uid, gid: gid, nlink: 1}
	if c.IsDir() {
		c.children = make(map[string]childEnt)
		c.nlink = 2
		n.nlink++
	}
	n.children[n.fs.foldKey(name)] = childEnt{name: name, n: c}
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
	c.pages = make(map[int64]uint64)
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
	if n.fs.sealed {
		return fserr.ErrReadOnly
	}
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
	if _, exists := n.children[n.fs.foldKey(name)]; exists {
		return fserr.ErrExists
	}
	n.children[n.fs.foldKey(name)] = childEnt{name: name, n: t}
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
	for _, ref := range c.pages {
		if ref != 0 {
			n.fs.store.free(ref)
		}
	}
	n.fs.usedBlocks -= int64(len(c.pages))
	n.fs.quotaCharge(c.uid, -int64(len(c.pages)), -1)
	n.fs.usedInodes--
	c.pages = nil
}

// Unlink implements Node.
func (n *memNode) Unlink(name string) error {
	if n.fs.sealed {
		return fserr.ErrReadOnly
	}
	key := n.fs.foldKey(name)
	c, ok := n.children[key]
	if !ok {
		return fserr.ErrNotFound
	}
	if c.n.IsDir() {
		return fserr.ErrIsDir
	}
	delete(n.children, key)
	n.drop(c.n)
	return nil
}

// Rmdir implements Node.
func (n *memNode) Rmdir(name string) error {
	if n.fs.sealed {
		return fserr.ErrReadOnly
	}
	key := n.fs.foldKey(name)
	c, ok := n.children[key]
	if !ok {
		return fserr.ErrNotFound
	}
	if !c.n.IsDir() {
		return fserr.ErrNotDir
	}
	if len(c.n.children) > 0 {
		return fserr.ErrNotEmpty
	}
	delete(n.children, key)
	n.nlink--
	n.fs.usedInodes--
	n.fs.quotaCharge(c.n.uid, 0, -1)
	return nil
}

// Rename implements Node.
func (n *memNode) Rename(oldName string, dst Node, newName string) error {
	if n.fs.sealed {
		return fserr.ErrReadOnly
	}
	d, ok := dst.(*memNode)
	if !ok || d.fs != n.fs {
		return fserr.ErrXDev
	}
	if err := d.checkName(newName); err != nil {
		return err
	}
	oldKey, newKey := n.fs.foldKey(oldName), n.fs.foldKey(newName)
	src, ok := n.children[oldKey]
	if !ok {
		return fserr.ErrNotFound
	}
	if existing, exists := d.children[newKey]; exists {
		if existing.n == src.n {
			// A rename onto another name of the same inode is a no-op
			// (POSIX), but same-key case-fold renames just relabel.
			if n == d && oldKey == newKey {
				d.children[newKey] = childEnt{name: newName, n: src.n}
			}
			return nil
		}
		if existing.n.IsDir() {
			if !src.n.IsDir() {
				return fserr.ErrIsDir
			}
			if len(existing.n.children) > 0 {
				return fserr.ErrNotEmpty
			}
			delete(d.children, newKey)
			d.nlink--
			n.fs.usedInodes--
			n.fs.quotaCharge(existing.n.uid, 0, -1)
		} else {
			if src.n.IsDir() {
				return fserr.ErrNotDir
			}
			delete(d.children, newKey)
			d.drop(existing.n)
		}
	}
	delete(n.children, oldKey)
	d.children[newKey] = childEnt{name: newName, n: src.n}
	if src.n.IsDir() && n != d {
		n.nlink--
		d.nlink++
	}
	return nil
}

// ReadDir implements Node, sorted by display name.
func (n *memNode) ReadDir() ([]DirEntry, error) {
	if !n.IsDir() {
		return nil, fserr.ErrNotDir
	}
	out := make([]DirEntry, 0, len(n.children))
	for _, c := range n.children {
		out = append(out, DirEntry{
			Ino: uint32(c.n.ino), Type: c.n.mode & ModeTypeMask, Name: c.name})
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
		if data := n.fs.store.read(n.pages[page]); data != nil {
			copy(buf[:chunk], data[po:po+chunk])
		} else {
			for i := 0; i < chunk; i++ {
				buf[i] = 0
			}
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
	if n.fs.sealed {
		return 0, fserr.ErrReadOnly
	}
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
		if n.pages[page] == 0 {
			newPages++
		}
	}
	if n.fs.usedBlocks+newPages > n.fs.opt.Blocks {
		return 0, fserr.ErrNoSpace
	}
	total := 0
	var scratch [PageSize]byte
	for len(buf) > 0 {
		page := off / PageSize
		po := int(off % PageSize)
		chunk := PageSize - po
		if chunk > len(buf) {
			chunk = len(buf)
		}
		old := n.pages[page]
		data := scratch[:]
		if prev := n.fs.store.read(old); prev != nil {
			copy(data, prev)
		} else {
			for i := range data {
				data[i] = 0
			}
		}
		copy(data[po:], buf[:chunk])
		ref := n.fs.store.write(old, data)
		if n.pages == nil {
			n.pages = make(map[int64]uint64)
		}
		n.pages[page] = ref
		if old == 0 {
			n.fs.usedBlocks++
			n.fs.quotaCharge(n.uid, 1, 0)
		}
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
	if n.fs.sealed {
		return fserr.ErrReadOnly
	}
	if n.IsDir() {
		return fserr.ErrIsDir
	}
	if size < 0 {
		return fserr.ErrInvalid
	}
	if size < n.size {
		firstGone := (size + PageSize - 1) / PageSize
		for page, ref := range n.pages {
			if page >= firstGone && ref != 0 {
				n.fs.store.free(ref)
				delete(n.pages, page)
				n.fs.usedBlocks--
				n.fs.quotaCharge(n.uid, -1, 0)
			}
		}
		if po := size % PageSize; po != 0 {
			if ref := n.pages[size/PageSize]; ref != 0 {
				var data [PageSize]byte
				copy(data[:], n.fs.store.read(ref))
				for i := po; i < PageSize; i++ {
					data[i] = 0
				}
				n.pages[size/PageSize] = n.fs.store.write(ref, data[:])
			}
		}
	}
	n.size = size
	return nil
}

// Chmod implements Node.
func (n *memNode) Chmod(perm uint32) error {
	if n.fs.sealed {
		return fserr.ErrReadOnly
	}
	n.mode = n.mode&ModeTypeMask | perm&ModePermMask
	return nil
}

// Chown implements Node, moving quota usage to the new owner.
func (n *memNode) Chown(uid, gid uint32) error {
	if n.fs.sealed {
		return fserr.ErrReadOnly
	}
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
	if n.fs.sealed {
		return fserr.ErrReadOnly
	}
	n.atime, n.mtime = atime, mtime
	return nil
}
