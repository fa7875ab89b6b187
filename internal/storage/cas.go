package storage

import "vmsh/internal/faults"

// Content-addressed page store: identical 4 KiB pages are stored once
// and shared via FNV-64a hash keys with refcounts. CasFS is a MemFS
// whose data plane dedups; its Statfs and quota accounting stay
// *logical* (per-file page counts, like MemFS) so the conformance and
// xfstests accounting families see identical numbers — the physical
// savings are exposed separately through DedupStats.

// casStore dedups pages by FNV-64a content hash with refcounting.
// References handed to memNode are dense ids mapping to hash buckets,
// so the hole convention (ref 0) is preserved.
type casStore struct {
	byHash map[uint64]*casPage
	byRef  map[uint64]uint64 // ref id -> content hash
	next   uint64
	writes uint64 // pages written (logical)
	shared uint64 // writes satisfied by an existing page
}

type casPage struct {
	data []byte
	refs int
}

func newCasStore() *casStore {
	return &casStore{byHash: make(map[uint64]*casPage), byRef: make(map[uint64]uint64)}
}

func (s *casStore) write(old uint64, data []byte) uint64 {
	h := uint64(faults.NewDigest().Bytes(data))
	s.writes++
	if old != 0 {
		if s.byRef[old] == h {
			// Same content rewritten: keep the reference.
			return old
		}
		s.free(old)
	}
	p, ok := s.byHash[h]
	if ok {
		s.shared++
	} else {
		p = &casPage{data: append([]byte(nil), data...)}
		s.byHash[h] = p
	}
	p.refs++
	s.next++
	s.byRef[s.next] = h
	return s.next
}

func (s *casStore) read(ref uint64) []byte {
	if ref == 0 {
		return nil
	}
	return s.byHash[s.byRef[ref]].data
}

func (s *casStore) free(ref uint64) {
	h, ok := s.byRef[ref]
	if !ok {
		return
	}
	delete(s.byRef, ref)
	p := s.byHash[h]
	p.refs--
	if p.refs == 0 {
		delete(s.byHash, h)
	}
}

// DedupStats summarizes the physical effect of content addressing.
type DedupStats struct {
	// LogicalPages is the number of page references live right now.
	LogicalPages uint64
	// PhysicalPages is the number of distinct pages actually stored.
	PhysicalPages uint64
	// SharedWrites counts writes that were satisfied by an already
	// stored identical page over the store's lifetime.
	SharedWrites uint64
}

// CasFS is the content-addressed/dedup backend: MemFS semantics with
// an FNV-64a chunk store underneath.
type CasFS struct {
	*MemFS
	cas *casStore
}

// NewCasFS builds a content-addressed in-memory filesystem.
func NewCasFS(opt MemOptions) *CasFS {
	cas := newCasStore()
	return &CasFS{MemFS: newMemFS(opt, cas), cas: cas}
}

// DedupStats reports logical vs physical page counts.
func (c *CasFS) DedupStats() DedupStats {
	return DedupStats{
		LogicalPages:  uint64(len(c.cas.byRef)),
		PhysicalPages: uint64(len(c.cas.byHash)),
		SharedWrites:  c.cas.shared,
	}
}
