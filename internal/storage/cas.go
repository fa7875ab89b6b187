package storage

import "vmsh/internal/faults"

// casStore is CasBlock's content-addressed page store: identical
// 4 KiB pages are stored once, shared via FNV-64a content hashes with
// refcounts. References are dense ids mapping to hash buckets, so
// reference 0 stays free to mean a hole.
type casStore struct {
	byHash map[uint64]*casPage
	byRef  map[uint64]uint64 // ref id -> content hash
	next   uint64
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
