package mem

import (
	"bytes"

	"vmsh/internal/faults"
)

// Pages is a sparse byte store of a fixed size, kept in PageSize
// pages. It backs guest RAM slabs, host files and RAM block stores.
// An absent page reads as zero, and a store of all-zero bytes leaves an
// absent page absent, so only the pages that were given data take
// memory and get hashed. Owners check ranges before calling in; Pages
// itself trusts [off, off+n) to lie inside the store.
type Pages struct {
	size  uint64
	pages []*[PageSize]byte // nil: absent, reads as zero
	// gen counts the calls that may have changed the bytes: WriteAt,
	// SetPage and Clear each bump it. A hash remembered at one gen
	// (Phys.HashRange) is still the store's hash while gen is unmoved.
	gen uint64
}

// zeroPage is what an absent page reads as.
var zeroPage [PageSize]byte

// AllZero reports whether b (at most a page long) is all zero, compared
// word-wide against zeroPage rather than byte by byte.
func AllZero(b []byte) bool { return bytes.Equal(b, zeroPage[:len(b)]) }

// NewPages returns an all-zero store of size bytes with no page
// materialized.
func NewPages(size uint64) *Pages {
	return &Pages{size: size, pages: make([]*[PageSize]byte, (size+PageSize-1)/PageSize)}
}

// Size returns the store length in bytes.
func (s *Pages) Size() uint64 { return s.size }

// NumPages returns how many pages cover the store; the last one is
// partial when the size is not a multiple of PageSize.
func (s *Pages) NumPages() uint64 { return uint64(len(s.pages)) }

// ReadAt copies the bytes at [off, off+len(buf)) into buf.
func (s *Pages) ReadAt(buf []byte, off uint64) {
	for len(buf) > 0 {
		src := zeroPage[:]
		if p := s.pages[off/PageSize]; p != nil {
			src = p[:]
		}
		n := copy(buf, src[off%PageSize:])
		buf, off = buf[n:], off+uint64(n)
	}
}

// WriteAt copies buf into the store at off, materializing a page only
// when the bytes stored into it are not all zero.
func (s *Pages) WriteAt(buf []byte, off uint64) {
	s.gen++
	for len(buf) > 0 {
		po := off % PageSize
		chunk := buf[:min(uint64(len(buf)), PageSize-po)]
		p := s.pages[off/PageSize]
		if p == nil && !AllZero(chunk) {
			p = new([PageSize]byte)
			s.pages[off/PageSize] = p
		}
		if p != nil {
			copy(p[po:], chunk)
		}
		buf, off = buf[len(chunk):], off+uint64(len(chunk))
	}
}

// Page returns page idx clipped to the store's size, or nil when it
// reads as all zero. The slice aliases the store: read it, never
// modify it.
func (s *Pages) Page(idx uint64) []byte {
	p := s.pages[idx]
	if p == nil {
		return nil
	}
	b := p[:min(PageSize, s.size-idx*PageSize)]
	if AllZero(b) {
		return nil
	}
	return b
}

// SetPage replaces page idx with a copy of b, which holds the page's
// bytes as Page returns them. A nil or all-zero b leaves the page
// absent.
func (s *Pages) SetPage(idx uint64, b []byte) {
	s.gen++
	if AllZero(b) {
		s.pages[idx] = nil
		return
	}
	p := s.pages[idx]
	if p == nil {
		p = new([PageSize]byte)
		s.pages[idx] = p
	}
	clear(p[copy(p[:], b):])
}

// Clear drops every page: the store reads as zero again.
func (s *Pages) Clear() {
	s.gen++
	clear(s.pages)
}

// Fold folds the bytes at [off, end) into d (FNV-64a). A run of absent
// pages folds as zeros in one step, so only materialized pages are
// read, and the result equals FNV-64a over the dense bytes.
func (s *Pages) Fold(d faults.Digest, off, end uint64) faults.Digest {
	zeros := uint64(0)
	for off < end {
		n := min(end-off, PageSize-off%PageSize)
		if p := s.pages[off/PageSize]; p != nil {
			d = d.Zeros(zeros).Bytes(p[off%PageSize:][:n])
			zeros = 0
		} else {
			zeros += n
		}
		off += n
	}
	return d.Zeros(zeros)
}
