package simplefs

import (
	"encoding/binary"
	"errors"
	"fmt"

	"vmsh/internal/fserr"
	"vmsh/internal/storage"
)

// dinode is the on-disk inode layout (128 bytes).
type dinode struct {
	Mode      uint32
	UID       uint32
	GID       uint32
	Nlink     uint32
	Size      uint64
	Atime     uint64
	Mtime     uint64
	Ctime     uint64
	Direct    [12]uint32
	Indirect  uint32
	DIndirect uint32
}

func (d *dinode) encode(b []byte) {
	binary.LittleEndian.PutUint32(b[0:], d.Mode)
	binary.LittleEndian.PutUint32(b[4:], d.UID)
	binary.LittleEndian.PutUint32(b[8:], d.GID)
	binary.LittleEndian.PutUint32(b[12:], d.Nlink)
	binary.LittleEndian.PutUint64(b[16:], d.Size)
	binary.LittleEndian.PutUint64(b[24:], d.Atime)
	binary.LittleEndian.PutUint64(b[32:], d.Mtime)
	binary.LittleEndian.PutUint64(b[40:], d.Ctime)
	for i, p := range d.Direct {
		binary.LittleEndian.PutUint32(b[48+i*4:], p)
	}
	binary.LittleEndian.PutUint32(b[96:], d.Indirect)
	binary.LittleEndian.PutUint32(b[100:], d.DIndirect)
}

func decodeInode(b []byte) dinode {
	var d dinode
	d.Mode = binary.LittleEndian.Uint32(b[0:])
	d.UID = binary.LittleEndian.Uint32(b[4:])
	d.GID = binary.LittleEndian.Uint32(b[8:])
	d.Nlink = binary.LittleEndian.Uint32(b[12:])
	d.Size = binary.LittleEndian.Uint64(b[16:])
	d.Atime = binary.LittleEndian.Uint64(b[24:])
	d.Mtime = binary.LittleEndian.Uint64(b[32:])
	d.Ctime = binary.LittleEndian.Uint64(b[40:])
	for i := range d.Direct {
		d.Direct[i] = binary.LittleEndian.Uint32(b[48+i*4:])
	}
	d.Indirect = binary.LittleEndian.Uint32(b[96:])
	d.DIndirect = binary.LittleEndian.Uint32(b[100:])
	return d
}

func (f *FS) inodeLoc(ino uint32) (blk uint32, off int) {
	return f.sb.ITableStart + ino/inodesPerBlk, int(ino%inodesPerBlk) * inodeSize
}

func (f *FS) readInode(ino uint32) (dinode, error) {
	blk, off := f.inodeLoc(ino)
	cb, err := f.block(blk)
	if err != nil {
		return dinode{}, err
	}
	return decodeInode(cb.data[off:]), nil
}

func (f *FS) writeInode(ino uint32, d *dinode) error {
	blk, off := f.inodeLoc(ino)
	cb, err := f.dirtyBlock(blk)
	if err != nil {
		return err
	}
	d.encode(cb.data[off : off+inodeSize])
	return nil
}

// Inode is a live inode handle. All handles for the same inode number
// share one object via the FS inode table.
type Inode struct {
	fs  *FS
	Ino uint32
	d   dinode
}

// Root returns the root directory inode. Reading it goes to the disk,
// so a failing device fails it.
func (f *FS) Root() (storage.Node, error) { return node(f.inode(f.sb.RootIno)) }

// node returns n as a storage.Node, and a nil one (never a nil *Inode)
// with err.
func node(n *Inode, err error) (storage.Node, error) {
	if err != nil {
		return nil, err
	}
	return n, nil
}

func (f *FS) inode(ino uint32) (*Inode, error) {
	if n, ok := f.inodes[ino]; ok {
		return n, nil
	}
	if ino == 0 || ino >= f.sb.InodeCount {
		return nil, fmt.Errorf("simplefs: inode %d outside the inode table: %w", ino, fserr.ErrInvalid)
	}
	d, err := f.readInode(ino)
	if err != nil {
		return nil, err
	}
	n := &Inode{fs: f, Ino: ino, d: d}
	f.inodes[ino] = n
	return n, nil
}

func (n *Inode) save() error { return n.fs.writeInode(n.Ino, &n.d) }

func (n *Inode) now() uint64 {
	if n.fs.NowFn != nil {
		return n.fs.NowFn()
	}
	return 0
}

// ID implements storage.Node: the inode number.
func (n *Inode) ID() uint64 { return uint64(n.Ino) }

// Stat returns the inode attributes.
func (n *Inode) Stat() storage.FileInfo {
	return storage.FileInfo{
		Ino: n.Ino, Mode: n.d.Mode, UID: n.d.UID, GID: n.d.GID,
		Nlink: n.d.Nlink, Size: int64(n.d.Size),
		Atime: n.d.Atime, Mtime: n.d.Mtime, Ctime: n.d.Ctime,
	}
}

// IsDir reports whether the inode is a directory.
func (n *Inode) IsDir() bool { return n.d.Mode&storage.ModeTypeMask == storage.ModeDir }

// IsSymlink reports whether the inode is a symbolic link.
func (n *Inode) IsSymlink() bool { return n.d.Mode&storage.ModeTypeMask == storage.ModeSymlink }

// Chmod updates permission bits.
func (n *Inode) Chmod(perm uint32) error {
	n.d.Mode = n.d.Mode&storage.ModeTypeMask | perm&storage.ModePermMask
	n.d.Ctime = n.now()
	return n.save()
}

// Chown updates ownership. Quota usage moves with the owner.
func (n *Inode) Chown(uid, gid uint32) error {
	if n.fs.quotaOn && uid != n.d.UID {
		blocks := int64((n.d.Size + BlockSize - 1) / BlockSize)
		n.fs.quotaCharge(n.d.UID, -blocks, -1)
		n.fs.quotaCharge(uid, blocks, 1)
	}
	n.d.UID, n.d.GID = uid, gid
	n.d.Ctime = n.now()
	return n.save()
}

// SetTimes updates atime/mtime explicitly (utimensat).
func (n *Inode) SetTimes(atime, mtime uint64) error {
	n.d.Atime, n.d.Mtime = atime, mtime
	return n.save()
}

// --- block mapping ----------------------------------------------------

// ptrAt reads the idx-th u32 out of a pointer block via the cache.
func (f *FS) ptrAt(blk uint32, idx int) (uint32, error) {
	if err := f.checkBlock(blk); err != nil {
		return 0, err
	}
	cb, err := f.block(blk)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(cb.data[idx*4:]), nil
}

func (f *FS) setPtrAt(blk uint32, idx int, v uint32) error {
	if err := f.checkBlock(blk); err != nil {
		return err
	}
	cb, err := f.dirtyBlock(blk)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(cb.data[idx*4:], v)
	return nil
}

// blockFor maps a file block index to a device block, optionally
// allocating. A return of 0 with nil error means a hole.
func (n *Inode) blockFor(fileBlk int64, alloc, meta bool) (uint32, error) {
	return n.blockForEx(fileBlk, alloc, meta, false)
}

// blockForEx additionally lets the full-block write path skip the
// freshly-allocated-block zeroing (the block is about to be entirely
// overwritten, so no stale data can surface). A mapped block outside
// the data region is refused as corrupt.
func (n *Inode) blockForEx(fileBlk int64, alloc, meta, skipZero bool) (uint32, error) {
	b, err := n.mapBlock(fileBlk, alloc, meta, skipZero)
	if err != nil || b == 0 {
		return 0, err
	}
	return b, n.fs.checkBlock(b)
}

// mapBlock walks the direct, indirect and double-indirect pointers
// for blockForEx.
func (n *Inode) mapBlock(fileBlk int64, alloc, meta, skipZero bool) (uint32, error) {
	f := n.fs
	allocOne := func() (uint32, error) {
		b, err := f.allocBlock(n.d.UID)
		if err != nil {
			return 0, err
		}
		if meta {
			f.zeroMetaBlock(b)
		} else if !skipZero {
			// Zero data blocks on the device: nothing stale becomes
			// visible through later size extensions.
			if err := f.zeroDataBlock(b); err != nil {
				if ferr := f.freeBlock(b, n.d.UID); ferr != nil {
					err = errors.Join(err, ferr)
				}
				return 0, err
			}
		}
		return b, nil
	}
	allocPtrBlock := func() (uint32, error) {
		b, err := f.allocBlock(n.d.UID)
		if err != nil {
			return 0, err
		}
		f.zeroMetaBlock(b)
		return b, nil
	}

	switch {
	case fileBlk < 12:
		if n.d.Direct[fileBlk] == 0 && alloc {
			b, err := allocOne()
			if err != nil {
				return 0, err
			}
			n.d.Direct[fileBlk] = b
			if err := n.save(); err != nil {
				return 0, err
			}
		}
		return n.d.Direct[fileBlk], nil

	case fileBlk < 12+ptrsPerBlk:
		idx := int(fileBlk - 12)
		if n.d.Indirect == 0 {
			if !alloc {
				return 0, nil
			}
			b, err := allocPtrBlock()
			if err != nil {
				return 0, err
			}
			n.d.Indirect = b
			if err := n.save(); err != nil {
				return 0, err
			}
		}
		p, err := f.ptrAt(n.d.Indirect, idx)
		if err != nil {
			return 0, err
		}
		if p == 0 && alloc {
			b, err := allocOne()
			if err != nil {
				return 0, err
			}
			if err := f.setPtrAt(n.d.Indirect, idx, b); err != nil {
				return 0, err
			}
			p = b
		}
		return p, nil

	case fileBlk < maxFileBlocks:
		rel := fileBlk - 12 - ptrsPerBlk
		l1, l2 := int(rel/ptrsPerBlk), int(rel%ptrsPerBlk)
		if n.d.DIndirect == 0 {
			if !alloc {
				return 0, nil
			}
			b, err := allocPtrBlock()
			if err != nil {
				return 0, err
			}
			n.d.DIndirect = b
			if err := n.save(); err != nil {
				return 0, err
			}
		}
		mid, err := f.ptrAt(n.d.DIndirect, l1)
		if err != nil {
			return 0, err
		}
		if mid == 0 {
			if !alloc {
				return 0, nil
			}
			b, err := allocPtrBlock()
			if err != nil {
				return 0, err
			}
			if err := f.setPtrAt(n.d.DIndirect, l1, b); err != nil {
				return 0, err
			}
			mid = b
		}
		p, err := f.ptrAt(mid, l2)
		if err != nil {
			return 0, err
		}
		if p == 0 && alloc {
			b, err := allocOne()
			if err != nil {
				return 0, err
			}
			if err := f.setPtrAt(mid, l2, b); err != nil {
				return 0, err
			}
			p = b
		}
		return p, nil
	}
	return 0, fmt.Errorf("simplefs: file block %d beyond maximum file size: %w", fileBlk, fserr.ErrNoSpace)
}

func (f *FS) zeroDataBlock(b uint32) error {
	zero := make([]byte, BlockSize)
	return f.dev.WriteAt(int64(b)*BlockSize, zero)
}

// zeroMetaBlock installs a fresh zeroed block in the metadata cache;
// it reaches the device at the next flush.
func (f *FS) zeroMetaBlock(b uint32) {
	f.cache[b] = &cblock{data: make([]byte, BlockSize), dirty: true}
}

// --- file data --------------------------------------------------------

// ReadAt fills buf from the file at off; reads past EOF are truncated
// and the valid byte count returned.
func (n *Inode) ReadAt(buf []byte, off int64) (int, error) {
	if n.IsDir() {
		return 0, fserr.ErrIsDir
	}
	if off < 0 {
		return 0, fserr.ErrInvalid
	}
	size := int64(n.d.Size)
	if off >= size {
		return 0, nil
	}
	if off+int64(len(buf)) > size {
		buf = buf[:size-off]
	}
	total := 0
	for len(buf) > 0 {
		fb := off / BlockSize
		bo := int(off % BlockSize)
		chunk := BlockSize - bo
		if chunk > len(buf) {
			chunk = len(buf)
		}
		blk, err := n.blockFor(fb, false, false)
		if err != nil {
			return total, err
		}
		switch {
		case blk == 0:
			for i := 0; i < chunk; i++ {
				buf[i] = 0
			}
		case bo == 0 && chunk == BlockSize:
			// Cluster physically-contiguous full blocks into one
			// device command (bio merging).
			run, err := n.contigRun(fb, blk, len(buf)/BlockSize)
			if err != nil {
				return total, err
			}
			nb := run * BlockSize
			if err := n.fs.dev.ReadAt(int64(blk)*BlockSize, buf[:nb]); err != nil {
				return total, err
			}
			chunk = nb
		default:
			tmp := make([]byte, BlockSize)
			if err := n.fs.dev.ReadAt(int64(blk)*BlockSize, tmp); err != nil {
				return total, err
			}
			copy(buf[:chunk], tmp[bo:])
		}
		buf = buf[chunk:]
		off += int64(chunk)
		total += chunk
	}
	n.d.Atime = n.now()
	return total, nil
}

// contigRun returns how many file blocks starting at (fb, blk) map to
// physically consecutive device blocks, up to max (and a 1 MiB cap).
func (n *Inode) contigRun(fb int64, blk uint32, max int) (int, error) {
	if max > 256 {
		max = 256
	}
	run := 1
	for run < max {
		next, err := n.blockFor(fb+int64(run), false, false)
		if err != nil {
			return 0, err
		}
		if next != blk+uint32(run) {
			break
		}
		run++
	}
	return run, nil
}

// contigRunAlloc is the allocating variant used by the full-block
// write path: allocated blocks skip zeroing because the caller
// overwrites the entire run.
func (n *Inode) contigRunAlloc(fb int64, blk uint32, max int) (int, error) {
	if max > 256 {
		max = 256
	}
	run := 1
	for run < max {
		next, err := n.blockForEx(fb+int64(run), true, false, true)
		if err != nil {
			return 0, err
		}
		if next != blk+uint32(run) {
			break
		}
		run++
	}
	return run, nil
}

// WriteAt stores buf at off, extending the file as needed. A write
// that fails part-way keeps the bytes it reports: the size grows to
// cover them, and every block the call mapped past that end is freed.
func (n *Inode) WriteAt(buf []byte, off int64) (total int, err error) {
	if n.IsDir() {
		return 0, fserr.ErrIsDir
	}
	if off < 0 {
		return 0, fserr.ErrInvalid
	}
	start, end := off, off+int64(len(buf))
	defer func() {
		if err == nil {
			return
		}
		if total > 0 {
			n.d.Size = max(n.d.Size, uint64(start)+uint64(total))
		}
		from := max(int64(n.d.Size+BlockSize-1)/BlockSize, start/BlockSize)
		if cerr := errors.Join(n.releaseBlocks(from, (end+BlockSize-1)/BlockSize), n.save()); cerr != nil {
			err = errors.Join(err, cerr)
		}
	}()
	for len(buf) > 0 {
		fb := off / BlockSize
		bo := int(off % BlockSize)
		chunk := BlockSize - bo
		if chunk > len(buf) {
			chunk = len(buf)
		}
		if bo == 0 && chunk == BlockSize {
			// Full-block path: allocate without zeroing (the write
			// covers everything) and cluster contiguous physical
			// blocks into one device command.
			blk, err := n.blockForEx(fb, true, false, true)
			if err != nil {
				return total, err
			}
			run, err := n.contigRunAlloc(fb, blk, len(buf)/BlockSize)
			if err != nil {
				return total, err
			}
			nb := run * BlockSize
			if err := n.fs.dev.WriteAt(int64(blk)*BlockSize, buf[:nb]); err != nil {
				return total, err
			}
			chunk = nb
		} else {
			blk, err := n.blockFor(fb, true, false)
			if err != nil {
				return total, err
			}
			tmp := make([]byte, BlockSize)
			if err := n.fs.dev.ReadAt(int64(blk)*BlockSize, tmp); err != nil {
				return total, err
			}
			copy(tmp[bo:], buf[:chunk])
			if err := n.fs.dev.WriteAt(int64(blk)*BlockSize, tmp); err != nil {
				return total, err
			}
		}
		buf = buf[chunk:]
		off += int64(chunk)
		total += chunk
	}
	if uint64(off) > n.d.Size {
		n.d.Size = uint64(off)
	}
	n.d.Mtime = n.now()
	return total, n.save()
}

// Truncate sets the file size, freeing blocks past the new end.
func (n *Inode) Truncate(size int64) error {
	if n.IsDir() {
		return fserr.ErrIsDir
	}
	if size < 0 {
		return fserr.ErrInvalid
	}
	old := int64(n.d.Size)
	if size < old {
		if err := n.releaseBlocks((size+BlockSize-1)/BlockSize, (old+BlockSize-1)/BlockSize); err != nil {
			return err
		}
		// Zero the tail of the now-partial last block.
		if size%BlockSize != 0 {
			blk, err := n.blockFor(size/BlockSize, false, false)
			if err != nil {
				return err
			}
			if blk != 0 {
				tmp := make([]byte, BlockSize)
				if err := n.fs.dev.ReadAt(int64(blk)*BlockSize, tmp); err != nil {
					return err
				}
				for i := size % BlockSize; i < BlockSize; i++ {
					tmp[i] = 0
				}
				if err := n.fs.dev.WriteAt(int64(blk)*BlockSize, tmp); err != nil {
					return err
				}
			}
		}
	}
	n.d.Size = uint64(size)
	n.d.Mtime = n.now()
	n.d.Ctime = n.d.Mtime
	return n.save()
}

// releaseBlocks frees the data blocks mapped at file blocks [from, to)
// and clears their pointers.
func (n *Inode) releaseBlocks(from, to int64) error {
	for fb := from; fb < min(to, maxFileBlocks); fb++ {
		blk, err := n.blockFor(fb, false, false)
		if err != nil {
			return err
		}
		if blk != 0 {
			if err := n.fs.freeBlock(blk, n.d.UID); err != nil {
				return err
			}
			if err := n.clearPointer(fb); err != nil {
				return err
			}
		}
	}
	return nil
}

// clearPointer zeroes the mapping slot for fileBlk (indirect blocks
// are left allocated; they are reclaimed when the inode is freed).
func (n *Inode) clearPointer(fileBlk int64) error {
	switch {
	case fileBlk < 12:
		n.d.Direct[fileBlk] = 0
		return n.save()
	case fileBlk < 12+ptrsPerBlk:
		if n.d.Indirect == 0 {
			return nil
		}
		return n.fs.setPtrAt(n.d.Indirect, int(fileBlk-12), 0)
	default:
		rel := fileBlk - 12 - ptrsPerBlk
		if n.d.DIndirect == 0 {
			return nil
		}
		mid, err := n.fs.ptrAt(n.d.DIndirect, int(rel/ptrsPerBlk))
		if err != nil || mid == 0 {
			return err
		}
		return n.fs.setPtrAt(mid, int(rel%ptrsPerBlk), 0)
	}
}

// freeAllBlocks releases every data and pointer block (unlink path).
func (n *Inode) freeAllBlocks() error {
	blocks := int64((n.d.Size + BlockSize - 1) / BlockSize)
	for fb := int64(0); fb < blocks; fb++ {
		blk, err := n.blockFor(fb, false, false)
		if err != nil {
			return err
		}
		if blk != 0 {
			if err := n.fs.freeBlock(blk, n.d.UID); err != nil {
				return err
			}
		}
	}
	if n.d.Indirect != 0 {
		if err := n.fs.freeBlock(n.d.Indirect, n.d.UID); err != nil {
			return err
		}
	}
	if n.d.DIndirect != 0 {
		for i := 0; i < ptrsPerBlk; i++ {
			mid, err := n.fs.ptrAt(n.d.DIndirect, i)
			if err != nil {
				return err
			}
			if mid != 0 {
				if err := n.fs.freeBlock(mid, n.d.UID); err != nil {
					return err
				}
			}
		}
		if err := n.fs.freeBlock(n.d.DIndirect, n.d.UID); err != nil {
			return err
		}
	}
	n.d.Size = 0
	n.d.Direct = [12]uint32{}
	n.d.Indirect, n.d.DIndirect = 0, 0
	return n.save()
}
