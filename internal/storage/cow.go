package storage

import (
	"sort"

	"vmsh/internal/fserr"
)

// CowFS is the copy-on-write stacking backend: a writable in-memory
// upper layer over an arbitrary read-only lower FS. Because a CowFS is
// itself an FS, layers chain to arbitrary depth (Stack). Semantics
// follow overlayfs: copy-up on first mutation, per-directory whiteouts
// for deletions, opaque directories for post-mount mkdirs, merged
// readdir with upper-wins shadowing. Directory renames materialize the
// source subtree into the upper layer first (no EXDEV).
//
// Whiteout and opacity state lives in memory on the node tree, so a
// stack's deletions have session lifetime — persist the upper layer's
// content, not the stack, if durability is needed. Hard links that
// pre-exist inside a lower layer keep a single node identity for
// reads, but break into independent files on copy-up (the classic
// overlayfs limitation); links created through the mount are fully
// correct because they live in one MemFS upper.
type CowFS struct {
	lower  FS
	upper  FS
	root   *cowNode
	nextID uint64
	loMap  map[uint64]*cowNode // lower node ID -> wrapper
	upMap  map[uint64]*cowNode // upper node ID -> wrapper
}

// NewCowFS stacks a fresh writable in-memory layer over lower. A nil
// lower yields an empty writable overlay. It fails when lower cannot
// read its root.
func NewCowFS(lower FS) (*CowFS, error) {
	if lower == nil {
		empty := NewMemFS(MemOptions{})
		empty.Seal()
		lower = empty
	}
	return union(lower, NewMemFS(MemOptions{}))
}

// union builds the copy-on-write view of upper over lower.
func union(lower, upper FS) (*CowFS, error) {
	lo, err := lower.Root()
	if err != nil {
		return nil, err
	}
	up, err := upper.Root()
	if err != nil {
		return nil, err
	}
	c := &CowFS{
		lower:  lower,
		upper:  upper,
		loMap:  make(map[uint64]*cowNode),
		upMap:  make(map[uint64]*cowNode),
		nextID: 1,
	}
	c.root = &cowNode{fs: c, id: 1, lo: lo, up: up, children: make(map[string]*cowNode)}
	return c, nil
}

// Stack folds layers (bottom first) into one overlay with a fresh
// writable top. Intermediate layers are treated as read-only unions;
// at least one layer is required. It fails when a layer cannot read
// its root.
func Stack(layers ...FS) (*CowFS, error) {
	if len(layers) == 0 {
		return NewCowFS(nil)
	}
	fs := layers[0]
	for _, l := range layers[1:] {
		ro, err := union(fs, l)
		if err != nil {
			return nil, err
		}
		fs = ro
	}
	return NewCowFS(fs)
}

// Root implements FS.
func (c *CowFS) Root() (Node, error) { return c.root, nil }

// Sync implements FS.
func (c *CowFS) Sync() error { return c.upper.Sync() }

// Statfs implements FS: capacity and usage of the writable layer.
func (c *CowFS) Statfs() StatfsInfo { return c.upper.Statfs() }

// QuotaReport implements FS: usage charged in the writable layer.
func (c *CowFS) QuotaReport() ([]QuotaUsage, error) { return c.upper.QuotaReport() }

func (c *CowFS) newID() uint64 {
	c.nextID++
	return c.nextID
}

// cowNode merges one upper and at most one lower node. Node identity
// (ID) is assigned once at wrapper creation and never changes, so the
// VFS page cache stays coherent across copy-up.
type cowNode struct {
	fs       *CowFS
	id       uint64
	up       Node // nil until copy-up / creation
	lo       Node // nil for upper-only nodes
	parent   *cowNode
	name     string
	opaque   bool                // directory: ignore lower entries
	children map[string]*cowNode // resolved entries (cache + canonical map)
	wh       map[string]bool     // whiteouts: deleted lower names
}

func (n *cowNode) active() Node {
	if n.up != nil {
		return n.up
	}
	return n.lo
}

// Stat implements Node (pass-through, upper wins).
func (n *cowNode) Stat() FileInfo { return n.active().Stat() }

func (n *cowNode) IsDir() bool     { return n.active().IsDir() }
func (n *cowNode) IsSymlink() bool { return n.active().IsSymlink() }
func (n *cowNode) ID() uint64      { return n.id }

// wrap builds (or reuses) the wrapper for a resolved child.
func (n *cowNode) wrap(name string, up, lo Node) *cowNode {
	if up != nil {
		if w, ok := n.fs.upMap[up.ID()]; ok {
			n.children[name] = w
			return w
		}
	} else if lo != nil {
		if w, ok := n.fs.loMap[lo.ID()]; ok {
			n.children[name] = w
			return w
		}
	}
	w := &cowNode{fs: n.fs, id: n.fs.newID(), up: up, lo: lo, parent: n, name: name}
	if w.active().IsDir() {
		w.children = make(map[string]*cowNode)
	}
	if up != nil {
		n.fs.upMap[up.ID()] = w
	} else {
		n.fs.loMap[lo.ID()] = w
	}
	n.children[name] = w
	return w
}

// Lookup implements Node: upper first, then whiteouts, then lower.
func (n *cowNode) Lookup(name string) (Node, error) {
	if !n.IsDir() {
		return nil, fserr.ErrNotDir
	}
	if w, ok := n.children[name]; ok {
		return w, nil
	}
	if n.up != nil {
		if u, err := n.up.Lookup(name); err == nil {
			// The upper entry may shadow a lower one; carry the lower
			// node so a merged directory stays merged.
			var lo Node
			if !n.opaque && n.lo != nil && !n.whited(name) {
				lo, _ = n.lo.Lookup(name)
				if lo != nil && !(lo.IsDir() && u.IsDir()) {
					lo = nil // only dirs merge; files shadow outright
				}
			}
			w := n.wrap(name, u, nil)
			if w.lo == nil && lo != nil {
				w.lo = lo
			}
			return w, nil
		}
	}
	if n.whited(name) {
		return nil, fserr.ErrNotFound
	}
	if !n.opaque && n.lo != nil {
		if l, err := n.lo.Lookup(name); err == nil {
			return n.wrap(name, nil, l), nil
		}
	}
	return nil, fserr.ErrNotFound
}

func (n *cowNode) whited(name string) bool { return n.wh != nil && n.wh[name] }

func (n *cowNode) setWhiteout(name string) {
	if n.wh == nil {
		n.wh = make(map[string]bool)
	}
	n.wh[name] = true
}

// materializeDir ensures this directory exists in the upper layer.
func (n *cowNode) materializeDir() error {
	if n.up != nil {
		return nil
	}
	if err := n.parent.materializeDir(); err != nil {
		return err
	}
	st := n.lo.Stat()
	u, err := n.parent.up.Mkdir(n.name, st.Mode&ModePermMask, st.UID, st.GID)
	if err != nil {
		return err
	}
	u.SetTimes(st.Atime, st.Mtime)
	n.up = u
	n.fs.upMap[u.ID()] = n
	return nil
}

// copyUp materializes a file/symlink into the upper layer, preserving
// content, sparseness, mode, owner and times.
func (n *cowNode) copyUp() error {
	if n.up != nil {
		return nil
	}
	if n.IsDir() {
		return n.materializeDir()
	}
	if err := n.parent.materializeDir(); err != nil {
		return err
	}
	st := n.lo.Stat()
	var u Node
	var err error
	if n.IsSymlink() {
		target, rerr := n.lo.Readlink()
		if rerr != nil {
			return rerr
		}
		u, err = n.parent.up.Symlink(n.name, target, st.UID, st.GID)
	} else {
		u, err = n.parent.up.Create(n.name, st.Mode&ModePermMask, st.UID, st.GID)
		if err == nil {
			err = copyContent(n.lo, u, st.Size)
		}
	}
	if err != nil {
		return err
	}
	u.SetTimes(st.Atime, st.Mtime)
	n.up = u
	n.fs.upMap[u.ID()] = n
	return nil
}

// copyContent copies size bytes page by page, skipping zero pages so
// holes stay holes.
func copyContent(src, dst Node, size int64) error {
	var buf [PageSize]byte
	for off := int64(0); off < size; off += PageSize {
		nr, err := src.ReadAt(buf[:], off)
		if err != nil {
			return err
		}
		if allZero(buf[:nr]) {
			continue
		}
		if _, err := dst.WriteAt(buf[:nr], off); err != nil {
			return err
		}
	}
	return dst.Truncate(size)
}

func allZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// exists is a union existence probe that never allocates wrappers for
// hot-path miss cases — but reusing Lookup keeps the maps canonical.
func (n *cowNode) exists(name string) bool {
	_, err := n.Lookup(name)
	return err == nil
}

// Create implements Node.
func (n *cowNode) Create(name string, perm, uid, gid uint32) (Node, error) {
	if !n.IsDir() {
		return nil, fserr.ErrNotDir
	}
	if n.exists(name) {
		return nil, fserr.ErrExists
	}
	if err := n.materializeDir(); err != nil {
		return nil, err
	}
	u, err := n.up.Create(name, perm, uid, gid)
	if err != nil {
		return nil, err
	}
	return n.wrap(name, u, nil), nil
}

// Mkdir implements Node: new directories are opaque so whited-out
// lower trees can never resurface under a recreated name.
func (n *cowNode) Mkdir(name string, perm, uid, gid uint32) (Node, error) {
	if !n.IsDir() {
		return nil, fserr.ErrNotDir
	}
	if n.exists(name) {
		return nil, fserr.ErrExists
	}
	if err := n.materializeDir(); err != nil {
		return nil, err
	}
	u, err := n.up.Mkdir(name, perm, uid, gid)
	if err != nil {
		return nil, err
	}
	w := n.wrap(name, u, nil)
	w.opaque = true
	return w, nil
}

// Symlink implements Node.
func (n *cowNode) Symlink(name, target string, uid, gid uint32) (Node, error) {
	if !n.IsDir() {
		return nil, fserr.ErrNotDir
	}
	if n.exists(name) {
		return nil, fserr.ErrExists
	}
	if err := n.materializeDir(); err != nil {
		return nil, err
	}
	u, err := n.up.Symlink(name, target, uid, gid)
	if err != nil {
		return nil, err
	}
	return n.wrap(name, u, nil), nil
}

// Readlink implements Node.
func (n *cowNode) Readlink() (string, error) { return n.active().Readlink() }

// Link implements Node: the target is copied up first so the link can
// live entirely in the upper layer.
func (n *cowNode) Link(target Node, name string) error {
	t, ok := target.(*cowNode)
	if !ok || t.fs != n.fs {
		return fserr.ErrXDev
	}
	if t.IsDir() {
		return fserr.ErrPerm
	}
	if !n.IsDir() {
		return fserr.ErrNotDir
	}
	if n.exists(name) {
		return fserr.ErrExists
	}
	if err := t.copyUp(); err != nil {
		return err
	}
	if err := n.materializeDir(); err != nil {
		return err
	}
	if err := n.up.Link(t.up, name); err != nil {
		return err
	}
	n.children[name] = t
	return nil
}

// Unlink implements Node.
func (n *cowNode) Unlink(name string) error {
	child, err := n.Lookup(name)
	if err != nil {
		return err
	}
	w := child.(*cowNode)
	if w.IsDir() {
		return fserr.ErrIsDir
	}
	if w.up != nil {
		if err := n.up.Unlink(name); err != nil {
			return err
		}
	}
	n.setWhiteout(name)
	delete(n.children, name)
	return nil
}

// Rmdir implements Node: emptiness is judged against the merged view.
func (n *cowNode) Rmdir(name string) error {
	child, err := n.Lookup(name)
	if err != nil {
		return err
	}
	w := child.(*cowNode)
	if !w.IsDir() {
		return fserr.ErrNotDir
	}
	entries, err := w.ReadDir()
	if err != nil {
		return err
	}
	if len(entries) > 0 {
		return fserr.ErrNotEmpty
	}
	if w.up != nil {
		if err := n.up.Rmdir(name); err != nil {
			return err
		}
	}
	n.setWhiteout(name)
	delete(n.children, name)
	return nil
}

// materializeSubtree copies a whole merged tree into the upper layer
// (used before directory renames), after which the node no longer
// depends on its lower layer.
func (n *cowNode) materializeSubtree() error {
	if !n.IsDir() {
		if err := n.copyUp(); err != nil {
			return err
		}
		n.lo = nil
		return nil
	}
	if err := n.materializeDir(); err != nil {
		return err
	}
	entries, err := n.ReadDir()
	if err != nil {
		return err
	}
	for _, e := range entries {
		child, err := n.Lookup(e.Name)
		if err != nil {
			return err
		}
		if err := child.(*cowNode).materializeSubtree(); err != nil {
			return err
		}
	}
	n.opaque = true
	n.lo = nil
	return nil
}

// Rename implements Node: POSIX overwrite rules against the merged
// view, with the source materialized so the move is an upper-layer op.
func (n *cowNode) Rename(oldName string, dst Node, newName string) error {
	d, ok := dst.(*cowNode)
	if !ok || d.fs != n.fs {
		return fserr.ErrXDev
	}
	src, err := n.Lookup(oldName)
	if err != nil {
		return err
	}
	sw := src.(*cowNode)
	if existing, lerr := d.Lookup(newName); lerr == nil {
		ew := existing.(*cowNode)
		if ew == sw {
			return nil // rename onto another link of the same inode: no-op
		}
		if ew.IsDir() {
			if !sw.IsDir() {
				return fserr.ErrIsDir
			}
			entries, rerr := ew.ReadDir()
			if rerr != nil {
				return rerr
			}
			if len(entries) > 0 {
				return fserr.ErrNotEmpty
			}
			if ew.up != nil {
				if rerr := d.up.Rmdir(newName); rerr != nil {
					return rerr
				}
			}
		} else {
			if sw.IsDir() {
				return fserr.ErrNotDir
			}
			if ew.up != nil {
				if rerr := d.up.Unlink(newName); rerr != nil {
					return rerr
				}
			}
		}
		delete(d.children, newName)
		d.setWhiteout(newName)
	}
	if err := sw.materializeSubtree(); err != nil {
		return err
	}
	if err := d.materializeDir(); err != nil {
		return err
	}
	if err := n.up.Rename(oldName, d.up, newName); err != nil {
		return err
	}
	n.setWhiteout(oldName)
	delete(n.children, oldName)
	d.children[newName] = sw
	sw.parent, sw.name = d, newName
	return nil
}

// ReadDir implements Node: upper entries win; lower entries appear
// unless shadowed, whited out, or the directory is opaque.
func (n *cowNode) ReadDir() ([]DirEntry, error) {
	if !n.IsDir() {
		return nil, fserr.ErrNotDir
	}
	var out []DirEntry
	shadow := map[string]bool{}
	if n.up != nil {
		ue, err := n.up.ReadDir()
		if err != nil {
			return nil, err
		}
		for _, e := range ue {
			shadow[e.Name] = true
			out = append(out, e)
		}
	}
	if n.lo != nil && !n.opaque {
		le, err := n.lo.ReadDir()
		if err != nil {
			return nil, err
		}
		for _, e := range le {
			if shadow[e.Name] || n.whited(e.Name) {
				continue
			}
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// ReadAt implements Node.
func (n *cowNode) ReadAt(buf []byte, off int64) (int, error) {
	return n.active().ReadAt(buf, off)
}

// WriteAt implements Node (copy-up on first write).
func (n *cowNode) WriteAt(buf []byte, off int64) (int, error) {
	if err := n.copyUp(); err != nil {
		return 0, err
	}
	return n.up.WriteAt(buf, off)
}

// Truncate implements Node.
func (n *cowNode) Truncate(size int64) error {
	if err := n.copyUp(); err != nil {
		return err
	}
	return n.up.Truncate(size)
}

// Chmod implements Node.
func (n *cowNode) Chmod(perm uint32) error {
	if err := n.copyUp(); err != nil {
		return err
	}
	return n.up.Chmod(perm)
}

// Chown implements Node.
func (n *cowNode) Chown(uid, gid uint32) error {
	if err := n.copyUp(); err != nil {
		return err
	}
	return n.up.Chown(uid, gid)
}

// SetTimes implements Node.
func (n *cowNode) SetTimes(atime, mtime uint64) error {
	if err := n.copyUp(); err != nil {
		return err
	}
	return n.up.SetTimes(atime, mtime)
}
