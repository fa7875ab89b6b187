package storage

import (
	"fmt"

	"vmsh/internal/faults"
	"vmsh/internal/fserr"
	"vmsh/internal/mem"
)

// Block-store backends. These model the storage *medium* below a
// filesystem: RAM-class stores charge nothing themselves (the caller
// owns charging, matching the mmap page-cache model in core), while
// the remote store charges its link.

// OpenBlock builds the named block store over base, the image it
// serves: "" and "file" serve base as given, "memory" and "cas" copy
// it, "cow" stacks private pages over it and "remote" uploads it
// behind link. Any other name fails with fserr.ErrNotSupported.
func OpenBlock(name string, base BlockBackend, link RemoteLink) (BlockBackend, error) {
	switch name {
	case "", "file":
		return base, nil
	case "memory":
		return NewMemBlockFrom(base)
	case "cow":
		return NewCowBlock(base), nil
	case "cas":
		return NewCasBlockFrom(base)
	case "remote":
		return NewRemoteBlock(base, link)
	}
	return nil, fmt.Errorf("storage: unknown block backend %q: %w", name, fserr.ErrNotSupported)
}

// CheckRange rejects an access to [off, off+n) that does not lie
// inside a store of size bytes with an error wrapping
// fserr.ErrInvalid. It never computes the access's end, so an offset
// near math.MaxInt64 cannot wrap back into range.
func CheckRange(size, off int64, n int) error {
	if off < 0 || int64(n) > size || off > size-int64(n) {
		return fmt.Errorf("storage: access of %d bytes at %d beyond device size %d: %w",
			n, off, size, fserr.ErrInvalid)
	}
	return nil
}

// MemBlock is a RAM-backed block store over a sparse page store, so
// it takes memory only for the pages written with data. Writes are
// durable by construction, so it reports FUA support (quota-style
// persistence works on top of it).
type MemBlock struct {
	data *mem.Pages
}

// NewMemBlock returns a zeroed RAM store of size bytes.
func NewMemBlock(size int64) *MemBlock { return NewMemBlockOver(mem.NewPages(uint64(size))) }

// NewMemBlockOver serves an existing page store as a RAM block store;
// the store and the caller share the bytes (core serves a host image
// file's mmap view this way).
func NewMemBlockOver(p *mem.Pages) *MemBlock { return &MemBlock{data: p} }

// NewMemBlockFrom seeds a RAM store with the full content of base,
// page by page, so base's zero pages stay absent.
func NewMemBlockFrom(base BlockBackend) (*MemBlock, error) {
	m := NewMemBlock(base.Size())
	var page [PageSize]byte
	for off := int64(0); off < m.Size(); off += PageSize {
		buf := page[:min(PageSize, m.Size()-off)]
		if err := base.ReadAt(off, buf); err != nil {
			return nil, err
		}
		m.data.WriteAt(buf, uint64(off))
	}
	return m, nil
}

// ReadAt implements BlockBackend.
func (m *MemBlock) ReadAt(off int64, buf []byte) error {
	if err := CheckRange(m.Size(), off, len(buf)); err != nil {
		return err
	}
	m.data.ReadAt(buf, uint64(off))
	return nil
}

// WriteAt implements BlockBackend.
func (m *MemBlock) WriteAt(off int64, buf []byte) error {
	if err := CheckRange(m.Size(), off, len(buf)); err != nil {
		return err
	}
	m.data.WriteAt(buf, uint64(off))
	return nil
}

// Flush implements BlockBackend.
func (m *MemBlock) Flush() error { return nil }

// Size implements BlockBackend.
func (m *MemBlock) Size() int64 { return int64(m.data.Size()) }

// SupportsFUA implements BlockBackend.
func (m *MemBlock) SupportsFUA() bool { return true }

// CowBlock is a copy-on-write block store: reads fall through to an
// immutable base, writes land in private pages. The base is never
// written, so one image can seed many stores.
type CowBlock struct {
	base  BlockBackend
	dirty map[int64][]byte // page index -> PageSize private copy
}

// NewCowBlock stacks a writable page layer over base.
func NewCowBlock(base BlockBackend) *CowBlock {
	return &CowBlock{base: base, dirty: make(map[int64][]byte)}
}

// DirtyPages reports how many pages have diverged from the base.
func (c *CowBlock) DirtyPages() int { return len(c.dirty) }

func (c *CowBlock) pageFor(page int64, create bool) ([]byte, error) {
	if p, ok := c.dirty[page]; ok {
		return p, nil
	}
	if !create {
		return nil, nil
	}
	p := make([]byte, PageSize)
	off := page * PageSize
	n := int64(PageSize)
	if off+n > c.base.Size() {
		n = c.base.Size() - off
	}
	if n > 0 {
		if err := c.base.ReadAt(off, p[:n]); err != nil {
			return nil, err
		}
	}
	c.dirty[page] = p
	return p, nil
}

// ReadAt implements BlockBackend.
func (c *CowBlock) ReadAt(off int64, buf []byte) error {
	if err := CheckRange(c.Size(), off, len(buf)); err != nil {
		return err
	}
	for len(buf) > 0 {
		page := off / PageSize
		po := int(off % PageSize)
		chunk := PageSize - po
		if chunk > len(buf) {
			chunk = len(buf)
		}
		p, err := c.pageFor(page, false)
		if err != nil {
			return err
		}
		if p != nil {
			copy(buf[:chunk], p[po:po+chunk])
		} else if err := c.base.ReadAt(off, buf[:chunk]); err != nil {
			return err
		}
		buf = buf[chunk:]
		off += int64(chunk)
	}
	return nil
}

// WriteAt implements BlockBackend.
func (c *CowBlock) WriteAt(off int64, buf []byte) error {
	if err := CheckRange(c.Size(), off, len(buf)); err != nil {
		return err
	}
	for len(buf) > 0 {
		page := off / PageSize
		po := int(off % PageSize)
		chunk := PageSize - po
		if chunk > len(buf) {
			chunk = len(buf)
		}
		p, err := c.pageFor(page, true)
		if err != nil {
			return err
		}
		copy(p[po:], buf[:chunk])
		buf = buf[chunk:]
		off += int64(chunk)
	}
	return nil
}

// Flush implements BlockBackend (private pages are already durable;
// the base is read-only).
func (c *CowBlock) Flush() error { return nil }

// Size implements BlockBackend.
func (c *CowBlock) Size() int64 { return c.base.Size() }

// SupportsFUA implements BlockBackend.
func (c *CowBlock) SupportsFUA() bool { return true }

// CasBlock is a content-addressed block store: every page is stored
// once in an FNV-64a chunk store with refcounts; identical pages
// (zero pages above all) share physical storage.
type CasBlock struct {
	size  int64
	pages map[int64]uint64 // page index -> ref (0 = zero page)
	cas   *casStore
}

// NewCasBlock allocates a deduplicating store of size bytes.
func NewCasBlock(size int64) *CasBlock {
	return &CasBlock{size: size, pages: make(map[int64]uint64), cas: newCasStore()}
}

// NewCasBlockFrom seeds a deduplicating store from base, deduping the
// seed content as it loads.
func NewCasBlockFrom(base BlockBackend) (*CasBlock, error) {
	c := NewCasBlock(base.Size())
	buf := make([]byte, PageSize)
	for off := int64(0); off < c.size; off += PageSize {
		n := c.size - off
		if n > PageSize {
			n = PageSize
		}
		if err := base.ReadAt(off, buf[:n]); err != nil {
			return nil, err
		}
		if err := c.WriteAt(off, buf[:n]); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// DedupStats reports logical vs physical page counts.
func (c *CasBlock) DedupStats() DedupStats {
	return DedupStats{
		LogicalPages:  uint64(len(c.pages)),
		PhysicalPages: uint64(len(c.cas.byHash)),
		SharedWrites:  c.cas.shared,
	}
}

// ReadAt implements BlockBackend.
func (c *CasBlock) ReadAt(off int64, buf []byte) error {
	if err := CheckRange(c.size, off, len(buf)); err != nil {
		return err
	}
	for len(buf) > 0 {
		page := off / PageSize
		po := int(off % PageSize)
		chunk := PageSize - po
		if chunk > len(buf) {
			chunk = len(buf)
		}
		if data := c.cas.read(c.pages[page]); data != nil {
			copy(buf[:chunk], data[po:po+chunk])
		} else {
			for i := 0; i < chunk; i++ {
				buf[i] = 0
			}
		}
		buf = buf[chunk:]
		off += int64(chunk)
	}
	return nil
}

// WriteAt implements BlockBackend.
func (c *CasBlock) WriteAt(off int64, buf []byte) error {
	if err := CheckRange(c.size, off, len(buf)); err != nil {
		return err
	}
	var scratch [PageSize]byte
	for len(buf) > 0 {
		page := off / PageSize
		po := int(off % PageSize)
		chunk := PageSize - po
		if chunk > len(buf) {
			chunk = len(buf)
		}
		old := c.pages[page]
		data := scratch[:]
		if prev := c.cas.read(old); prev != nil {
			copy(data, prev)
		} else {
			for i := range data {
				data[i] = 0
			}
		}
		copy(data[po:], buf[:chunk])
		if mem.AllZero(data) {
			// Zero pages are holes, not stored chunks.
			if old != 0 {
				c.cas.free(old)
			}
			delete(c.pages, page)
		} else {
			c.pages[page] = c.cas.write(old, data)
		}
		buf = buf[chunk:]
		off += int64(chunk)
	}
	return nil
}

// Flush implements BlockBackend.
func (c *CasBlock) Flush() error { return nil }

// Size implements BlockBackend.
func (c *CasBlock) Size() int64 { return c.size }

// SupportsFUA implements BlockBackend.
func (c *CasBlock) SupportsFUA() bool { return true }

// RemoteBlock is the simulated remote disk: a local RAM mirror whose
// every access crosses a RemoteLink — latency and bandwidth charged to
// the virtual clock, faults injectable under remote:*, crossings
// observable for record/replay. It models the "VM whose disk lives
// elsewhere" rescue scenario.
type RemoteBlock struct {
	mirror *MemBlock
	link   RemoteLink
}

// NewRemoteBlock seeds the remote store from base (the upload is
// considered pre-session and not charged).
func NewRemoteBlock(base BlockBackend, link RemoteLink) (*RemoteBlock, error) {
	m, err := NewMemBlockFrom(base)
	if err != nil {
		return nil, err
	}
	return &RemoteBlock{mirror: m, link: link}, nil
}

func blockKey(off int64) string { return fmt.Sprintf("b%d", off/PageSize) }

// ReadAt implements BlockBackend.
func (r *RemoteBlock) ReadAt(off int64, buf []byte) error {
	if err := r.mirror.ReadAt(off, buf); err != nil {
		return err
	}
	return r.link.xfer(faults.OpRemoteGet, blockKey(off), buf)
}

// WriteAt implements BlockBackend.
func (r *RemoteBlock) WriteAt(off int64, buf []byte) error {
	if err := r.link.xfer(faults.OpRemotePut, blockKey(off), buf); err != nil {
		return err
	}
	return r.mirror.WriteAt(off, buf)
}

// Flush implements BlockBackend.
func (r *RemoteBlock) Flush() error {
	return r.link.xfer(faults.OpRemoteFlush, "all", nil)
}

// Size implements BlockBackend.
func (r *RemoteBlock) Size() int64 { return r.mirror.Size() }

// SupportsFUA implements BlockBackend: the object store acknowledges
// writes only once durable.
func (r *RemoteBlock) SupportsFUA() bool { return true }
