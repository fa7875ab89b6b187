package guestos

import (
	"sort"
	"strings"

	"vmsh/internal/fserr"
	"vmsh/internal/storage"
	"vmsh/internal/vclock"
)

// NewRootFS builds the in-memory filesystem the kernel mounts at / (and
// so /dev, /tmp) when no disk root is mounted: the storage memory
// backend, which the conformance suite checks in exactly this shape.
// It is sized at 1Mi blocks and inodes (4 GiB), so /tmp on a diskless
// guest is not capped at the memory backend's 256 MiB default.
func NewRootFS() *storage.MemFS {
	return storage.NewMemFS(storage.MemOptions{Blocks: 1 << 20, Inodes: 1 << 20})
}

// --- mounts and namespaces ---------------------------------------------

// Mount binds a filesystem at an absolute path.
type Mount struct {
	Path string
	FS   storage.FS
}

// MountNamespace is a per-container view of the mount table; VMSH's
// overlay clones one so its root swap never leaks into existing guest
// processes (§4.4).
type MountNamespace struct {
	ID     int
	mounts []*Mount
}

func (k *Kernel) newNamespace() *MountNamespace {
	k.nsCount++
	return &MountNamespace{ID: k.nsCount}
}

// CloneNamespace copies the mount table into a fresh namespace.
func (k *Kernel) CloneNamespace(ns *MountNamespace) *MountNamespace {
	n := k.newNamespace()
	n.mounts = append([]*Mount(nil), ns.mounts...)
	return n
}

// NewEmptyNamespace returns a namespace with no mounts; the VMSH
// overlay builds its private view into one.
func (k *Kernel) NewEmptyNamespace() *MountNamespace { return k.newNamespace() }

// Mounts lists the namespace's mount table sorted by path.
func (ns *MountNamespace) Mounts() []*Mount {
	out := append([]*Mount(nil), ns.mounts...)
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// AddMount binds fs at path within ns.
func (ns *MountNamespace) AddMount(path string, fs storage.FS) {
	ns.mounts = append(ns.mounts, &Mount{Path: cleanPath(path), FS: fs})
}

// RemoveMount unbinds the mount at exactly path.
func (ns *MountNamespace) RemoveMount(path string) error {
	path = cleanPath(path)
	for i, m := range ns.mounts {
		if m.Path == path {
			ns.mounts = append(ns.mounts[:i], ns.mounts[i+1:]...)
			return nil
		}
	}
	return fserr.ErrInvalid
}

// findMount picks the longest-prefix mount covering path.
func (ns *MountNamespace) findMount(path string) (*Mount, string) {
	var best *Mount
	for _, m := range ns.mounts {
		if path == m.Path || strings.HasPrefix(path, m.Path+"/") || m.Path == "/" {
			if best == nil || len(m.Path) > len(best.Path) {
				best = m
			}
		}
	}
	if best == nil {
		return nil, ""
	}
	rel := strings.TrimPrefix(path, best.Path)
	rel = strings.TrimPrefix(rel, "/")
	return best, rel
}

// cleanPath normalises a path lexically (absolute, no ".", "..").
func cleanPath(p string) string {
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	parts := strings.Split(p, "/")
	var stack []string
	for _, part := range parts {
		switch part {
		case "", ".":
		case "..":
			if len(stack) > 0 {
				stack = stack[:len(stack)-1]
			}
		default:
			stack = append(stack, part)
		}
	}
	return "/" + strings.Join(stack, "/")
}

// joinPath resolves p relative to cwd.
func joinPath(cwd, p string) string {
	if strings.HasPrefix(p, "/") {
		return cleanPath(p)
	}
	return cleanPath(cwd + "/" + p)
}

const maxSymlinkDepth = 40

// resolve walks path in ns, following symlinks when follow is true.
func (k *Kernel) resolve(ns *MountNamespace, path string, follow bool) (storage.Node, error) {
	return k.resolveDepth(ns, path, follow, 0)
}

func (k *Kernel) resolveDepth(ns *MountNamespace, path string, follow bool, depth int) (storage.Node, error) {
	if depth > maxSymlinkDepth {
		return nil, fserr.ErrTooManyLinks
	}
	path = cleanPath(path)
	m, rel := ns.findMount(path)
	if m == nil {
		return nil, fserr.ErrNotFound
	}
	node, err := m.FS.Root()
	if err != nil {
		return nil, err
	}
	if rel == "" {
		return node, nil
	}
	parts := strings.Split(rel, "/")
	for i, part := range parts {
		k.Clock().Advance(k.Costs().InodeOp)
		child, err := node.Lookup(part)
		if err != nil {
			return nil, err
		}
		last := i == len(parts)-1
		if child.IsSymlink() && (!last || follow) {
			target, err := child.Readlink()
			if err != nil {
				return nil, err
			}
			prefix := m.Path + "/" + strings.Join(parts[:i], "/")
			var next string
			if strings.HasPrefix(target, "/") {
				next = target
			} else {
				next = prefix + "/" + target
			}
			rest := strings.Join(parts[i+1:], "/")
			if rest != "" {
				next = next + "/" + rest
			}
			return k.resolveDepth(ns, next, follow, depth+1)
		}
		node = child
	}
	return node, nil
}

// resolveParent returns the directory containing path plus the final
// component.
func (k *Kernel) resolveParent(ns *MountNamespace, path string) (storage.Node, string, error) {
	path = cleanPath(path)
	if path == "/" {
		return nil, "", fserr.ErrInvalid
	}
	idx := strings.LastIndex(path, "/")
	dirPath, name := path[:idx], path[idx+1:]
	if dirPath == "" {
		dirPath = "/"
	}
	dir, err := k.resolve(ns, dirPath, true)
	if err != nil {
		return nil, "", err
	}
	if !dir.IsDir() {
		return nil, "", fserr.ErrNotDir
	}
	return dir, name, nil
}

// mkdirAll creates every missing path component (boot-time helper).
func (k *Kernel) mkdirAll(ns *MountNamespace, path string) error {
	path = cleanPath(path)
	if path == "/" {
		return nil
	}
	parts := strings.Split(strings.TrimPrefix(path, "/"), "/")
	cur := "/"
	for _, part := range parts {
		next := joinPath(cur, part)
		if _, err := k.resolve(ns, next, true); err == fserr.ErrNotFound {
			dir, name, err := k.resolveParent(ns, next)
			if err != nil {
				return err
			}
			if _, err := dir.Mkdir(name, 0o755, 0, 0); err != nil && err != fserr.ErrExists {
				return err
			}
		} else if err != nil {
			return err
		}
		cur = next
	}
	return nil
}

// --- page cache ---------------------------------------------------------

type cacheKey struct {
	fs storage.FS
	id uint64
}

const cachePage = 4096

// fileCache is the per-inode page cache shared by all open files.
type fileCache struct {
	node  storage.Node
	pages map[int64][]byte
	dirty map[int64]bool
}

func (k *Kernel) cacheFor(fs storage.FS, node storage.Node) *fileCache {
	key := cacheKey{fs: fs, id: node.ID()}
	c, ok := k.caches[key]
	if !ok {
		c = &fileCache{node: node, pages: make(map[int64][]byte), dirty: make(map[int64]bool)}
		k.caches[key] = c
	}
	return c
}

// syncNamespace writes back every dirty page cache whose filesystem is
// mounted in ns, then syncs the filesystems.
func (k *Kernel) syncNamespace(ns *MountNamespace) error {
	inNS := make(map[storage.FS]bool)
	for _, m := range ns.Mounts() {
		inNS[m.FS] = true
	}
	for key, c := range k.caches {
		if inNS[key.fs] {
			if err := k.writeback(c.node, c); err != nil {
				return err
			}
		}
	}
	for _, m := range ns.Mounts() {
		if err := m.FS.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// dropCache invalidates an inode's pages (unlink, truncate).
func (k *Kernel) dropCache(fs storage.FS, node storage.Node) {
	delete(k.caches, cacheKey{fs: fs, id: node.ID()})
}

// writeback flushes dirty pages, coalescing contiguous runs.
func (k *Kernel) writeback(node storage.Node, c *fileCache) error {
	if len(c.dirty) == 0 {
		return nil
	}
	idxs := make([]int64, 0, len(c.dirty))
	for p := range c.dirty {
		idxs = append(idxs, p)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	size := node.Stat().Size
	i := 0
	for i < len(idxs) {
		j := i
		for j+1 < len(idxs) && idxs[j+1] == idxs[j]+1 && (j-i+1) < 64 {
			j++
		}
		start := idxs[i] * cachePage
		var buf []byte
		for p := idxs[i]; p <= idxs[j]; p++ {
			buf = append(buf, c.pages[p]...)
		}
		// Never extend the file beyond its logical size via writeback.
		if start+int64(len(buf)) > size {
			if start >= size {
				i = j + 1
				continue
			}
			buf = buf[:size-start]
		}
		if _, err := node.WriteAt(buf, start); err != nil {
			return err
		}
		i = j + 1
	}
	c.dirty = make(map[int64]bool)
	return nil
}

// DropCaches writes every dirty page back and empties the page cache
// (the benchmarking equivalent of `echo 3 > /proc/sys/vm/drop_caches`).
func (k *Kernel) DropCaches() error {
	for key, c := range k.caches {
		if err := k.writeback(c.node, c); err != nil {
			return err
		}
		delete(k.caches, key)
	}
	return nil
}

// --- open files ---------------------------------------------------------

// Open flags.
const (
	ORdonly = 0x0
	OWronly = 0x1
	ORdwr   = 0x2
	OCreate = 0x40
	OExcl   = 0x80
	OTrunc  = 0x200
	OAppend = 0x400
	ODirect = 0x4000
)

// File is an open file description.
type File struct {
	k      *Kernel
	fs     storage.FS
	node   storage.Node
	path   string
	flags  int
	pos    int64
	cache  *fileCache
	direct bool
}

// Node exposes the underlying inode.
func (f *File) Node() storage.Node { return f.node }

// Path returns the path the file was opened with.
func (f *File) Path() string { return f.path }

// openNode builds a File over a resolved node. Filesystems with
// dynamic content (procfs) opt out of the page cache entirely.
func (k *Kernel) openNode(fs storage.FS, node storage.Node, path string, flags int) *File {
	direct := flags&ODirect != 0
	if d, ok := fs.(interface{ DirectOnly() bool }); ok && d.DirectOnly() {
		direct = true
	}
	f := &File{k: k, fs: fs, node: node, path: path, flags: flags, direct: direct}
	if !f.direct {
		f.cache = k.cacheFor(fs, node)
	}
	return f
}

// Read reads from the current position.
func (f *File) Read(buf []byte) (int, error) {
	n, err := f.ReadAt(buf, f.pos)
	f.pos += int64(n)
	return n, err
}

// Write writes at the current position (or EOF with O_APPEND).
func (f *File) Write(buf []byte) (int, error) {
	if f.flags&OAppend != 0 {
		f.pos = f.node.Stat().Size
	}
	n, err := f.WriteAt(buf, f.pos)
	f.pos += int64(n)
	return n, err
}

// Seek sets the position (whence: 0 set, 1 cur, 2 end).
func (f *File) Seek(off int64, whence int) (int64, error) {
	switch whence {
	case 0:
		f.pos = off
	case 1:
		f.pos += off
	case 2:
		f.pos = f.node.Stat().Size + off
	default:
		return 0, fserr.ErrInvalid
	}
	if f.pos < 0 {
		f.pos = 0
		return 0, fserr.ErrInvalid
	}
	return f.pos, nil
}

// ReadAt reads through the page cache (or directly with O_DIRECT).
func (f *File) ReadAt(buf []byte, off int64) (int, error) {
	k := f.k
	k.Clock().Advance(k.Costs().GuestSyscall)
	if f.direct {
		k.Clock().Advance(k.Costs().BlockLayerOp)
		return f.node.ReadAt(buf, off)
	}
	size := f.node.Stat().Size
	if off >= size {
		return 0, nil
	}
	if off+int64(len(buf)) > size {
		buf = buf[:size-off]
	}
	total := 0
	for len(buf) > 0 {
		page := off / cachePage
		po := int(off % cachePage)
		chunk := cachePage - po
		if chunk > len(buf) {
			chunk = len(buf)
		}
		data, ok := f.cache.pages[page]
		if !ok {
			// Page-cache miss: read a readahead cluster (up to 128
			// KiB) from the FS in one go, like the kernel's
			// readahead window. Filesystems may cap the window —
			// the 9p client of this era reads page by page.
			raPages := int64(32)
			if ra, ok := f.fs.(interface{ ReadAheadPages() int64 }); ok {
				raPages = ra.ReadAheadPages()
			}
			raEnd := page + raPages
			if maxPage := (size + cachePage - 1) / cachePage; raEnd > maxPage {
				raEnd = maxPage
			}
			for raEnd > page+1 {
				if _, cached := f.cache.pages[raEnd-1]; cached {
					raEnd--
					continue
				}
				break
			}
			cluster := make([]byte, (raEnd-page)*cachePage)
			if _, err := f.node.ReadAt(cluster, page*cachePage); err != nil {
				return total, err
			}
			for p := page; p < raEnd; p++ {
				f.cache.pages[p] = cluster[(p-page)*cachePage : (p-page+1)*cachePage]
			}
			data = f.cache.pages[page]
		} else {
			k.Clock().Advance(k.Costs().PageCacheHit)
		}
		copy(buf[:chunk], data[po:])
		k.Clock().Advance(vclock.Copy(chunk, k.Costs().MemcpyBW))
		buf = buf[chunk:]
		off += int64(chunk)
		total += chunk
	}
	return total, nil
}

// WriteAt writes through the page cache (or directly with O_DIRECT).
func (f *File) WriteAt(buf []byte, off int64) (int, error) {
	k := f.k
	k.Clock().Advance(k.Costs().GuestSyscall)
	if f.direct {
		k.Clock().Advance(k.Costs().BlockLayerOp)
		return f.node.WriteAt(buf, off)
	}
	total := 0
	for len(buf) > 0 {
		page := off / cachePage
		po := int(off % cachePage)
		chunk := cachePage - po
		if chunk > len(buf) {
			chunk = len(buf)
		}
		data, ok := f.cache.pages[page]
		if !ok {
			data = make([]byte, cachePage)
			// Partial page of existing data: read-modify-write.
			if chunk != cachePage && page*cachePage < f.node.Stat().Size {
				if _, err := f.node.ReadAt(data, page*cachePage); err != nil {
					return total, err
				}
			}
			f.cache.pages[page] = data
		} else {
			k.Clock().Advance(k.Costs().PageCacheHit)
		}
		copy(data[po:], buf[:chunk])
		f.cache.dirty[page] = true
		k.Clock().Advance(vclock.Copy(chunk, k.Costs().MemcpyBW))
		buf = buf[chunk:]
		off += int64(chunk)
		total += chunk
	}
	// Extend the logical size immediately (metadata), keeping data in
	// cache until writeback.
	if off > f.node.Stat().Size {
		if err := f.extendSize(off); err != nil {
			return total, err
		}
	}
	// Dirty limit: writeback when too much accumulates.
	if len(f.cache.dirty) >= 16384 { // 64 MiB
		if err := f.k.writeback(f.node, f.cache); err != nil {
			return total, err
		}
	}
	return total, nil
}

// extendSize grows the file's logical size without writing data.
func (f *File) extendSize(size int64) error {
	// A zero-byte write at size-1 via the node would allocate; use
	// Truncate which only updates metadata for growth.
	return f.node.Truncate(size)
}

// Fsync writes back dirty pages and syncs the filesystem.
func (f *File) Fsync() error {
	f.k.Clock().Advance(f.k.Costs().GuestSyscall)
	if f.cache != nil {
		if err := f.k.writeback(f.node, f.cache); err != nil {
			return err
		}
	}
	return f.fs.Sync()
}

// Truncate resizes the file. Once the filesystem has accepted the new
// size, it drops cached pages beyond the end and zeroes the cached
// tail of a straddling page (otherwise a later size extension would
// expose stale bytes the filesystem already zeroed on disk). A refused
// truncate leaves the cache, dirty pages included, as it was.
func (f *File) Truncate(size int64) error {
	if err := f.node.Truncate(size); err != nil {
		return err
	}
	if f.cache != nil {
		for p := range f.cache.pages {
			if p*cachePage >= size {
				delete(f.cache.pages, p)
				delete(f.cache.dirty, p)
			}
		}
		if size%cachePage != 0 {
			if page, ok := f.cache.pages[size/cachePage]; ok {
				for i := size % cachePage; i < cachePage; i++ {
					page[i] = 0
				}
			}
		}
	}
	return nil
}

// Close flushes buffered state lazily (Linux keeps dirty pages; the
// simulation keeps them in the shared cache too).
func (f *File) Close() error { return nil }
