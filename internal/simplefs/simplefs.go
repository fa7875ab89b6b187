// Package simplefs is a small but real on-disk filesystem: superblock,
// block and inode bitmaps, fixed inode table, directories as entry
// streams in data blocks, 12 direct + single + double indirect block
// pointers, and a per-uid quota table persisted with forced-unit-access
// (FUA) writes.
//
// It plays the role XFS plays in the paper's evaluation: the
// filesystem whose behaviour must be identical whether it runs over
// the native device, qemu-blk or vmsh-blk. Because the virtio paths do
// not negotiate FUA, quota persistence is disabled there and the three
// quota-reporting tests of the xfstests corpus fail on both virtual
// devices — reproducing §6.1's failure structure.
package simplefs

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"vmsh/internal/fserr"
	"vmsh/internal/storage"
)

// BlockSize is the filesystem block size.
const BlockSize = 4096

const (
	magic        = 0x53465331 // "SFS1"
	inodeSize    = 128
	inodesPerBlk = BlockSize / inodeSize
	ptrsPerBlk   = BlockSize / 4
	// maxFileBlocks is how many blocks the direct, indirect and
	// double-indirect pointers map.
	maxFileBlocks = 12 + ptrsPerBlk + ptrsPerBlk*ptrsPerBlk
)

// superblock is the on-disk block 0 layout.
type superblock struct {
	Magic        uint32
	BlockCount   uint32
	InodeCount   uint32
	BlockBmStart uint32
	BlockBmBlks  uint32
	InodeBmStart uint32
	InodeBmBlks  uint32
	ITableStart  uint32
	ITableBlks   uint32
	QuotaStart   uint32
	QuotaBlks    uint32
	DataStart    uint32
	RootIno      uint32
	FreeBlocks   uint32
	FreeInodes   uint32
}

const sbEncodedLen = 15 * 4

func (s *superblock) encode() []byte {
	b := make([]byte, BlockSize)
	vals := []uint32{s.Magic, s.BlockCount, s.InodeCount, s.BlockBmStart, s.BlockBmBlks,
		s.InodeBmStart, s.InodeBmBlks, s.ITableStart, s.ITableBlks, s.QuotaStart,
		s.QuotaBlks, s.DataStart, s.RootIno, s.FreeBlocks, s.FreeInodes}
	for i, v := range vals {
		binary.LittleEndian.PutUint32(b[i*4:], v)
	}
	return b
}

func decodeSuper(b []byte) superblock {
	g := func(i int) uint32 { return binary.LittleEndian.Uint32(b[i*4:]) }
	return superblock{
		Magic: g(0), BlockCount: g(1), InodeCount: g(2), BlockBmStart: g(3), BlockBmBlks: g(4),
		InodeBmStart: g(5), InodeBmBlks: g(6), ITableStart: g(7), ITableBlks: g(8),
		QuotaStart: g(9), QuotaBlks: g(10), DataStart: g(11), RootIno: g(12),
		FreeBlocks: g(13), FreeInodes: g(14),
	}
}

// check refuses a superblock Mkfs could not have written for a device
// of devSize bytes: a bad magic, regions out of Mkfs's order or off the
// device, bitmaps or an inode table too small for their counts, or
// free counts above the totals. Image bytes may come from outside the
// program, and every later offset is computed from these fields.
func (s *superblock) check(devSize int64) error {
	if s.Magic != magic {
		return fmt.Errorf("simplefs: bad magic %#x: %w", s.Magic, fserr.ErrInvalid)
	}
	end, inOrder := uint64(1), true // each region starts where the last ends
	for _, r := range [][2]uint32{{s.BlockBmStart, s.BlockBmBlks}, {s.InodeBmStart, s.InodeBmBlks},
		{s.ITableStart, s.ITableBlks}, {s.QuotaStart, s.QuotaBlks}, {s.DataStart, 0}} {
		inOrder = inOrder && uint64(r[0]) == end
		end += uint64(r[1])
	}
	bits := uint64(BlockSize * 8)
	if !inOrder || s.DataStart > s.BlockCount || int64(s.BlockCount) > devSize/BlockSize ||
		uint64(s.BlockBmBlks)*bits < uint64(s.BlockCount) ||
		uint64(s.InodeBmBlks)*bits < uint64(s.InodeCount) ||
		uint64(s.ITableBlks)*inodesPerBlk < uint64(s.InodeCount) ||
		s.RootIno == 0 || s.RootIno >= s.InodeCount ||
		s.FreeBlocks > s.BlockCount-s.DataStart || s.FreeInodes >= s.InodeCount {
		return fmt.Errorf("simplefs: superblock %+v does not fit a %d-byte device: %w", *s, devSize, fserr.ErrInvalid)
	}
	return nil
}

// FS is a mounted filesystem instance: a storage.FS whose nodes are
// *Inode.
type FS struct {
	dev storage.BlockBackend
	sb  superblock

	// NowFn supplies timestamps (the guest kernel's virtual clock,
	// in seconds); nil means timestamps stay zero.
	NowFn func() uint64

	cache map[uint32]*cblock // metadata block cache
	// quota state
	quotaOn bool
	quota   map[uint32]*storage.QuotaUsage
	inodes  map[uint32]*Inode // live inode objects by number

	// quotaUIDs and quotaBuf are persistQuota's scratch, reused
	// across charges.
	quotaUIDs []uint32
	quotaBuf  []byte

	// allocation cursors: next-fit hints so allocation does not
	// rescan the bitmap from the start every time.
	blockHint uint32
	inodeHint uint32
}

type cblock struct {
	data  []byte
	dirty bool
}

// MkfsOptions tunes filesystem geometry.
type MkfsOptions struct {
	Blocks int // total blocks; 0 derives from device size
	Inodes int // inode count; 0 picks blocks/4
}

// Mkfs formats the device.
func Mkfs(dev storage.BlockBackend, opts MkfsOptions) error {
	blocks := opts.Blocks
	if blocks == 0 {
		blocks = int(dev.Size() / BlockSize)
	}
	if blocks < 64 {
		return fmt.Errorf("simplefs: device too small (%d blocks): %w", blocks, fserr.ErrInvalid)
	}
	inodes := opts.Inodes
	if inodes == 0 {
		inodes = blocks / 4
	}
	if inodes < 16 {
		inodes = 16
	}

	bmBlks := (blocks + BlockSize*8 - 1) / (BlockSize * 8)
	ibmBlks := (inodes + BlockSize*8 - 1) / (BlockSize * 8)
	itBlks := (inodes + inodesPerBlk - 1) / inodesPerBlk
	quotaBlks := 4

	sb := superblock{
		Magic:      magic,
		BlockCount: uint32(blocks),
		InodeCount: uint32(inodes),
	}
	next := uint32(1)
	sb.BlockBmStart, next = next, next+uint32(bmBlks)
	sb.BlockBmBlks = uint32(bmBlks)
	sb.InodeBmStart, next = next, next+uint32(ibmBlks)
	sb.InodeBmBlks = uint32(ibmBlks)
	sb.ITableStart, next = next, next+uint32(itBlks)
	sb.ITableBlks = uint32(itBlks)
	sb.QuotaStart, next = next, next+uint32(quotaBlks)
	sb.QuotaBlks = uint32(quotaBlks)
	sb.DataStart = next
	if sb.DataStart >= sb.BlockCount {
		return fmt.Errorf("simplefs: metadata (%d blocks) exceeds device: %w", sb.DataStart, fserr.ErrNoSpace)
	}
	sb.FreeBlocks = sb.BlockCount - sb.DataStart
	sb.FreeInodes = uint32(inodes) - 1 // ino 0 reserved

	zero := make([]byte, BlockSize)
	for b := uint32(1); b < sb.DataStart; b++ {
		if err := dev.WriteAt(int64(b)*BlockSize, zero); err != nil {
			return err
		}
	}

	f := &FS{dev: dev, sb: sb, cache: make(map[uint32]*cblock),
		quota: make(map[uint32]*storage.QuotaUsage), inodes: make(map[uint32]*Inode), quotaOn: true}

	// Root directory: ino 1.
	rootIno := uint32(1)
	if err := f.bitmapSet(sb.InodeBmStart, rootIno, true); err != nil {
		return err
	}
	root := &dinode{Mode: storage.ModeDir | 0o755, Nlink: 2}
	if err := f.writeInode(rootIno, root); err != nil {
		return err
	}
	f.sb.RootIno = rootIno
	if err := dev.WriteAt(0, f.sb.encode()); err != nil {
		return err
	}
	if err := f.flushCache(); err != nil {
		return err
	}
	return dev.Flush()
}

// Mount opens a formatted device. Quota persistence requires FUA; on
// devices without it the quota subsystem is disabled and QuotaReport
// returns fserr.ErrNotSupported.
func Mount(dev storage.BlockBackend) (*FS, error) {
	b := make([]byte, BlockSize)
	if err := dev.ReadAt(0, b); err != nil {
		return nil, err
	}
	sb := decodeSuper(b)
	if err := sb.check(dev.Size()); err != nil {
		return nil, err
	}
	f := &FS{dev: dev, sb: sb, cache: make(map[uint32]*cblock),
		quota: make(map[uint32]*storage.QuotaUsage), inodes: make(map[uint32]*Inode)}
	f.quotaOn = dev.SupportsFUA()
	if f.quotaOn {
		if err := f.loadQuota(); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// --- block cache -----------------------------------------------------

func (f *FS) block(n uint32) (*cblock, error) {
	if cb, ok := f.cache[n]; ok {
		return cb, nil
	}
	data := make([]byte, BlockSize)
	if err := f.dev.ReadAt(int64(n)*BlockSize, data); err != nil {
		return nil, err
	}
	cb := &cblock{data: data}
	f.cache[n] = cb
	return cb, nil
}

func (f *FS) dirtyBlock(n uint32) (*cblock, error) {
	cb, err := f.block(n)
	if err != nil {
		return nil, err
	}
	cb.dirty = true
	return cb, nil
}

func (f *FS) flushCache() error {
	ns := make([]uint32, 0, len(f.cache))
	for n, cb := range f.cache {
		if cb.dirty {
			ns = append(ns, n)
		}
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	for _, n := range ns {
		cb := f.cache[n]
		if err := f.dev.WriteAt(int64(n)*BlockSize, cb.data); err != nil {
			return err
		}
		cb.dirty = false
	}
	return nil
}

// Sync writes back all dirty metadata and the superblock, then
// flushes the device.
func (f *FS) Sync() error {
	if err := f.dev.WriteAt(0, f.sb.encode()); err != nil {
		return err
	}
	if err := f.flushCache(); err != nil {
		return err
	}
	return f.dev.Flush()
}

// --- bitmaps ---------------------------------------------------------

func (f *FS) bitmapGet(start, idx uint32) (bool, error) {
	blk := start + idx/(BlockSize*8)
	cb, err := f.block(blk)
	if err != nil {
		return false, err
	}
	bit := idx % (BlockSize * 8)
	return cb.data[bit/8]&(1<<(bit%8)) != 0, nil
}

func (f *FS) bitmapSet(start, idx uint32, v bool) error {
	blk := start + idx/(BlockSize*8)
	cb, err := f.dirtyBlock(blk)
	if err != nil {
		return err
	}
	bit := idx % (BlockSize * 8)
	if v {
		cb.data[bit/8] |= 1 << (bit % 8)
	} else {
		cb.data[bit/8] &^= 1 << (bit % 8)
	}
	return nil
}

// release clears bit idx of the bitmap at start and counts it in
// *free. A bit already clear, or a count already at total, is refused
// as corrupt: two cross-linked pointers or directory entries, or a
// superblock claiming more free than its bitmap, would raise the count
// past the truth.
func (f *FS) release(start, idx uint32, free *uint32, total uint32) error {
	used, err := f.bitmapGet(start, idx)
	if err != nil {
		return err
	}
	if !used || *free >= total {
		return fmt.Errorf("simplefs: bit %d of the bitmap at block %d freed with %d of %d free: %w",
			idx, start, *free, total, fserr.ErrInvalid)
	}
	if err := f.bitmapSet(start, idx, false); err != nil {
		return err
	}
	*free++
	return nil
}

// allocBlock finds a free data block, next-fit from the last hit.
func (f *FS) allocBlock(uid uint32) (uint32, error) {
	if f.sb.FreeBlocks == 0 {
		return 0, fserr.ErrNoSpace
	}
	start := f.blockHint
	if start < f.sb.DataStart || start >= f.sb.BlockCount {
		start = f.sb.DataStart
	}
	span := f.sb.BlockCount - f.sb.DataStart
	for i := uint32(0); i < span; i++ {
		n := f.sb.DataStart + (start-f.sb.DataStart+i)%span
		used, err := f.bitmapGet(f.sb.BlockBmStart, n)
		if err != nil {
			return 0, err
		}
		if !used {
			if err := f.bitmapSet(f.sb.BlockBmStart, n, true); err != nil {
				return 0, err
			}
			f.sb.FreeBlocks--
			f.blockHint = n + 1
			f.quotaCharge(uid, 1, 0)
			// Note: the block is not zeroed here. Metadata callers
			// zero it in the cache (zeroMetaBlock); data callers zero
			// it on the device (zeroDataBlock). Mixing the two would
			// let a stale cached zero page overwrite direct data IO
			// at the next cache flush.
			delete(f.cache, n)
			return n, nil
		}
	}
	return 0, fserr.ErrNoSpace
}

// checkBlock refuses a block pointer outside the data region
// [DataStart, BlockCount) as corrupt. Image bytes may come from
// outside the program, and a pointer into the metadata or past the
// block bitmap would read, write or free what is not file data.
func (f *FS) checkBlock(n uint32) error {
	if n < f.sb.DataStart || n >= f.sb.BlockCount {
		return fmt.Errorf("simplefs: block pointer %d outside the data region [%d, %d): %w",
			n, f.sb.DataStart, f.sb.BlockCount, fserr.ErrInvalid)
	}
	return nil
}

func (f *FS) freeBlock(n, uid uint32) error {
	if err := f.checkBlock(n); err != nil {
		return err
	}
	if err := f.release(f.sb.BlockBmStart, n, &f.sb.FreeBlocks, f.sb.BlockCount-f.sb.DataStart); err != nil {
		return err
	}
	f.quotaCharge(uid, -1, 0)
	delete(f.cache, n)
	return nil
}

func (f *FS) allocInode(uid uint32) (uint32, error) {
	if f.sb.FreeInodes == 0 {
		return 0, fserr.ErrNoSpace
	}
	start := f.inodeHint
	if start == 0 || start >= f.sb.InodeCount {
		start = 1
	}
	span := f.sb.InodeCount - 1
	for i := uint32(0); i < span; i++ {
		n := 1 + (start-1+i)%span
		used, err := f.bitmapGet(f.sb.InodeBmStart, n)
		if err != nil {
			return 0, err
		}
		if !used {
			if err := f.bitmapSet(f.sb.InodeBmStart, n, true); err != nil {
				return 0, err
			}
			f.sb.FreeInodes--
			f.inodeHint = n + 1
			f.quotaCharge(uid, 0, 1)
			return n, nil
		}
	}
	return 0, fserr.ErrNoSpace
}

func (f *FS) freeInode(n, uid uint32) error {
	// Ino 0 is reserved, so at most InodeCount-1 are free.
	if err := f.release(f.sb.InodeBmStart, n, &f.sb.FreeInodes, f.sb.InodeCount-1); err != nil {
		return err
	}
	f.quotaCharge(uid, 0, -1)
	delete(f.inodes, n)
	return nil
}

// --- quota -----------------------------------------------------------

// quotaCharge updates in-memory usage and persists the record with a
// FUA write when the device supports it.
func (f *FS) quotaCharge(uid uint32, blocks, inodes int64) {
	if !f.quotaOn {
		return
	}
	q := f.quota[uid]
	if q == nil {
		q = &storage.QuotaUsage{UID: uid}
		f.quota[uid] = q
	}
	q.Blocks = uint64(int64(q.Blocks) + blocks)
	q.Inodes = uint64(int64(q.Inodes) + inodes)
	_ = f.persistQuota()
}

const quotaEntSize = 20 // uid u32 + blocks u64 + inodes u64

func (f *FS) persistQuota() error {
	uids := f.quotaUIDs[:0]
	for uid := range f.quota {
		uids = append(uids, uid)
	}
	slices.Sort(uids)
	f.quotaUIDs = uids
	maxEnts := int(f.sb.QuotaBlks) * BlockSize / quotaEntSize
	if len(uids) > maxEnts {
		uids = uids[:maxEnts]
	}
	if n := int(f.sb.QuotaBlks) * BlockSize; len(f.quotaBuf) != n {
		f.quotaBuf = make([]byte, n)
	} else {
		clear(f.quotaBuf)
	}
	buf := f.quotaBuf
	for i, uid := range uids {
		q := f.quota[uid]
		off := i * quotaEntSize
		binary.LittleEndian.PutUint32(buf[off:], uid+1) // +1: 0 marks end
		binary.LittleEndian.PutUint64(buf[off+4:], q.Blocks)
		binary.LittleEndian.PutUint64(buf[off+12:], q.Inodes)
	}
	// FUA semantics: write through, no volatile cache. The device
	// advertised FUA at mount, so a plain write+flush models it.
	if err := f.dev.WriteAt(int64(f.sb.QuotaStart)*BlockSize, buf); err != nil {
		return err
	}
	return nil
}

func (f *FS) loadQuota() error {
	buf := make([]byte, int(f.sb.QuotaBlks)*BlockSize)
	if err := f.dev.ReadAt(int64(f.sb.QuotaStart)*BlockSize, buf); err != nil {
		return err
	}
	for off := 0; off+quotaEntSize <= len(buf); off += quotaEntSize {
		uid := binary.LittleEndian.Uint32(buf[off:])
		if uid == 0 {
			break
		}
		f.quota[uid-1] = &storage.QuotaUsage{
			UID:    uid - 1,
			Blocks: binary.LittleEndian.Uint64(buf[off+4:]),
			Inodes: binary.LittleEndian.Uint64(buf[off+12:]),
		}
	}
	return nil
}

// QuotaReport returns per-uid usage, sorted by uid. On devices without
// FUA the quota subsystem is offline and this fails — the mechanism
// behind the three xfstests failures on qemu-blk and vmsh-blk.
func (f *FS) QuotaReport() ([]storage.QuotaUsage, error) {
	if !f.quotaOn {
		return nil, fmt.Errorf("quota disabled (device lacks FUA): %w", fserr.ErrNotSupported)
	}
	out := make([]storage.QuotaUsage, 0, len(f.quota))
	for _, q := range f.quota {
		out = append(out, *q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].UID < out[j].UID })
	return out, nil
}

// Type implements storage.FS.
func (f *FS) Type() string { return "simplefs" }

// Statfs returns filesystem usage.
func (f *FS) Statfs() storage.StatfsInfo {
	return storage.StatfsInfo{
		BlockSize:  BlockSize,
		Blocks:     uint64(f.sb.BlockCount - f.sb.DataStart),
		BlocksFree: uint64(f.sb.FreeBlocks),
		Inodes:     uint64(f.sb.InodeCount),
		InodesFree: uint64(f.sb.FreeInodes),
	}
}
