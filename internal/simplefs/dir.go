package simplefs

import (
	"encoding/binary"
	"fmt"

	"vmsh/internal/fserr"
	"vmsh/internal/storage"
)

// Directory entries are fixed 256-byte slots: ino u32, type u8,
// namelen u8, pad u16, name bytes. ino == 0 marks a free slot.
const (
	dirEntSize   = 256
	dirEntsPerBl = BlockSize / dirEntSize
	maxName      = dirEntSize - 8
)

// dirBlocks returns how many blocks the directory currently spans.
func (n *Inode) dirBlocks() int64 {
	return int64((n.d.Size + BlockSize - 1) / BlockSize)
}

// dirScan walks every slot; visit returns true to stop. Directory
// blocks always go through the metadata cache. A directory larger than
// the filesystem, or an entry whose name overruns its slot, is
// corrupt: image bytes may come from outside the program.
func (n *Inode) dirScan(visit func(blk uint32, slot int, ino uint32, typ uint8, name string) bool) error {
	if n.dirBlocks() > int64(n.fs.sb.BlockCount) {
		return fmt.Errorf("simplefs: directory %d claims %d bytes: %w", n.Ino, n.d.Size, fserr.ErrInvalid)
	}
	for fb := int64(0); fb < n.dirBlocks(); fb++ {
		blk, err := n.blockFor(fb, false, true)
		if err != nil {
			return err
		}
		if blk == 0 {
			continue
		}
		cb, err := n.fs.block(blk)
		if err != nil {
			return err
		}
		for s := 0; s < dirEntsPerBl; s++ {
			e := cb.data[s*dirEntSize:]
			ino := binary.LittleEndian.Uint32(e)
			var name string
			var typ uint8
			if ino != 0 {
				typ = e[4]
				nl := int(e[5])
				if nl > maxName {
					return fmt.Errorf("simplefs: directory %d entry name of %d bytes: %w", n.Ino, nl, fserr.ErrInvalid)
				}
				name = string(e[8 : 8+nl])
			}
			if visit(blk, s, ino, typ, name) {
				return nil
			}
		}
	}
	return nil
}

func typeCode(mode uint32) uint8 {
	switch mode & storage.ModeTypeMask {
	case storage.ModeDir:
		return 1
	case storage.ModeSymlink:
		return 2
	default:
		return 0
	}
}

func typeMode(code uint8) uint32 {
	switch code {
	case 1:
		return storage.ModeDir
	case 2:
		return storage.ModeSymlink
	default:
		return storage.ModeFile
	}
}

// Lookup resolves name to a child inode.
func (n *Inode) Lookup(name string) (storage.Node, error) { return node(n.lookup(name)) }

func (n *Inode) lookup(name string) (*Inode, error) {
	if !n.IsDir() {
		return nil, fserr.ErrNotDir
	}
	var found uint32
	err := n.dirScan(func(_ uint32, _ int, ino uint32, _ uint8, ename string) bool {
		if ino != 0 && ename == name {
			found = ino
			return true
		}
		return false
	})
	if err != nil {
		return nil, err
	}
	if found == 0 {
		return nil, fserr.ErrNotFound
	}
	return n.fs.inode(found)
}

// addEntry installs (name -> ino), extending the directory if needed.
func (n *Inode) addEntry(name string, ino uint32, typ uint8) error {
	if len(name) == 0 || len(name) > maxName {
		return fserr.ErrNameTooLong
	}
	var freeBlk uint32
	freeSlot := -1
	err := n.dirScan(func(blk uint32, slot int, eino uint32, _ uint8, ename string) bool {
		if eino == 0 && freeSlot < 0 {
			freeBlk, freeSlot = blk, slot
		}
		return false
	})
	if err != nil {
		return err
	}
	if freeSlot < 0 {
		// Extend the directory by one block.
		fb := n.dirBlocks()
		blk, err := n.blockFor(fb, true, true)
		if err != nil {
			return err
		}
		n.d.Size = uint64(fb+1) * BlockSize
		if err := n.save(); err != nil {
			return err
		}
		freeBlk, freeSlot = blk, 0
	}
	cb, err := n.fs.dirtyBlock(freeBlk)
	if err != nil {
		return err
	}
	e := cb.data[freeSlot*dirEntSize:]
	binary.LittleEndian.PutUint32(e, ino)
	e[4] = typ
	e[5] = byte(len(name))
	copy(e[8:], name)
	n.d.Mtime = n.now()
	return n.save()
}

// removeEntry deletes the slot for name, returning the child ino.
func (n *Inode) removeEntry(name string) (uint32, error) {
	var gone uint32
	var tblk uint32
	tslot := -1
	err := n.dirScan(func(blk uint32, slot int, ino uint32, _ uint8, ename string) bool {
		if ino != 0 && ename == name {
			gone, tblk, tslot = ino, blk, slot
			return true
		}
		return false
	})
	if err != nil {
		return 0, err
	}
	if tslot < 0 {
		return 0, fserr.ErrNotFound
	}
	cb, err := n.fs.dirtyBlock(tblk)
	if err != nil {
		return 0, err
	}
	for i := 0; i < dirEntSize; i++ {
		cb.data[tslot*dirEntSize+i] = 0
	}
	n.d.Mtime = n.now()
	return gone, n.save()
}

// ReadDir lists the directory.
func (n *Inode) ReadDir() ([]storage.DirEntry, error) {
	if !n.IsDir() {
		return nil, fserr.ErrNotDir
	}
	var out []storage.DirEntry
	err := n.dirScan(func(_ uint32, _ int, ino uint32, typ uint8, name string) bool {
		if ino != 0 {
			out = append(out, storage.DirEntry{Ino: ino, Type: typeMode(typ), Name: name})
		}
		return false
	})
	return out, err
}

// isEmptyDir reports whether the directory holds no entries.
func (n *Inode) isEmptyDir() (bool, error) {
	empty := true
	err := n.dirScan(func(_ uint32, _ int, ino uint32, _ uint8, _ string) bool {
		if ino != 0 {
			empty = false
			return true
		}
		return false
	})
	return empty, err
}

// Create makes a regular file in the directory.
func (n *Inode) Create(name string, perm, uid, gid uint32) (storage.Node, error) {
	return node(n.newChild(name, storage.ModeFile|perm&storage.ModePermMask, uid, gid))
}

// Mkdir makes a subdirectory.
func (n *Inode) Mkdir(name string, perm, uid, gid uint32) (storage.Node, error) {
	child, err := n.newChild(name, storage.ModeDir|perm&storage.ModePermMask, uid, gid)
	if err != nil {
		return nil, err
	}
	child.d.Nlink = 2
	n.d.Nlink++
	if err := child.save(); err != nil {
		return nil, err
	}
	return node(child, n.save())
}

// maxTarget bounds a symlink target at one block, Linux's PATH_MAX.
const maxTarget = BlockSize

// Symlink creates a symbolic link holding target.
func (n *Inode) Symlink(name, target string, uid, gid uint32) (storage.Node, error) {
	if len(target) > maxTarget {
		return nil, fserr.ErrNameTooLong
	}
	child, err := n.newChild(name, storage.ModeSymlink|0o777, uid, gid)
	if err != nil {
		return nil, err
	}
	if _, err := child.WriteAt([]byte(target), 0); err != nil {
		return nil, err
	}
	return child, nil
}

// Readlink returns the symlink target. A target longer than Symlink
// writes is corrupt.
func (n *Inode) Readlink() (string, error) {
	if !n.IsSymlink() {
		return "", fserr.ErrInvalid
	}
	if n.d.Size > maxTarget {
		return "", fmt.Errorf("simplefs: symlink %d claims a %d-byte target: %w", n.Ino, n.d.Size, fserr.ErrInvalid)
	}
	buf := make([]byte, n.d.Size)
	if _, err := n.ReadAt(buf, 0); err != nil {
		return "", err
	}
	return string(buf), nil
}

func (n *Inode) newChild(name string, mode, uid, gid uint32) (*Inode, error) {
	if !n.IsDir() {
		return nil, fserr.ErrNotDir
	}
	if _, err := n.lookup(name); err == nil {
		return nil, fserr.ErrExists
	} else if err != fserr.ErrNotFound {
		return nil, err
	}
	ino, err := n.fs.allocInode(uid)
	if err != nil {
		return nil, err
	}
	now := n.now()
	d := dinode{Mode: mode, UID: uid, GID: gid, Nlink: 1, Atime: now, Mtime: now, Ctime: now}
	if err := n.fs.writeInode(ino, &d); err != nil {
		return nil, err
	}
	if err := n.addEntry(name, ino, typeCode(mode)); err != nil {
		return nil, err
	}
	child := &Inode{fs: n.fs, Ino: ino, d: d}
	n.fs.inodes[ino] = child
	return child, nil
}

// Link adds a hard link to target under name. A target on another
// filesystem gets fserr.ErrXDev.
func (n *Inode) Link(target storage.Node, name string) error {
	t, ok := target.(*Inode)
	if !ok || t.fs != n.fs {
		return fserr.ErrXDev
	}
	if !n.IsDir() {
		return fserr.ErrNotDir
	}
	if t.IsDir() {
		return fserr.ErrPerm // hard links to directories are forbidden
	}
	if _, err := n.lookup(name); err == nil {
		return fserr.ErrExists
	}
	if err := n.addEntry(name, t.Ino, typeCode(t.d.Mode)); err != nil {
		return err
	}
	t.d.Nlink++
	t.d.Ctime = n.now()
	return t.save()
}

// Unlink removes name (a non-directory) from the directory, freeing
// the inode when the last link drops.
func (n *Inode) Unlink(name string) error {
	child, err := n.lookup(name)
	if err != nil {
		return err
	}
	if child.IsDir() {
		return fserr.ErrIsDir
	}
	if _, err := n.removeEntry(name); err != nil {
		return err
	}
	child.d.Nlink--
	child.d.Ctime = n.now()
	if child.d.Nlink == 0 {
		if err := child.freeAllBlocks(); err != nil {
			return err
		}
		return n.fs.freeInode(child.Ino, child.d.UID)
	}
	return child.save()
}

// Rmdir removes an empty subdirectory.
func (n *Inode) Rmdir(name string) error {
	child, err := n.lookup(name)
	if err != nil {
		return err
	}
	if !child.IsDir() {
		return fserr.ErrNotDir
	}
	empty, err := child.isEmptyDir()
	if err != nil {
		return err
	}
	if !empty {
		return fserr.ErrNotEmpty
	}
	if _, err := n.removeEntry(name); err != nil {
		return err
	}
	if err := child.freeAllBlocks(); err != nil {
		return err
	}
	n.d.Nlink--
	if err := n.save(); err != nil {
		return err
	}
	return n.fs.freeInode(child.Ino, child.d.UID)
}

// Rename moves oldName in n to newName in dst, with POSIX replace
// semantics. A dst on another filesystem gets fserr.ErrXDev.
func (n *Inode) Rename(oldName string, dst storage.Node, newName string) error {
	dstDir, ok := dst.(*Inode)
	if !ok || n.fs != dstDir.fs {
		return fserr.ErrXDev
	}
	src, err := n.lookup(oldName)
	if err != nil {
		return err
	}
	if existing, err := dstDir.lookup(newName); err == nil {
		if existing.Ino == src.Ino {
			return nil // rename onto the same inode is a no-op
		}
		if existing.IsDir() {
			if !src.IsDir() {
				return fserr.ErrIsDir
			}
			empty, err := existing.isEmptyDir()
			if err != nil {
				return err
			}
			if !empty {
				return fserr.ErrNotEmpty
			}
			if err := dstDir.Rmdir(newName); err != nil {
				return err
			}
		} else {
			if src.IsDir() {
				return fserr.ErrNotDir
			}
			if err := dstDir.Unlink(newName); err != nil {
				return err
			}
		}
	} else if err != fserr.ErrNotFound {
		return err
	}
	if _, err := n.removeEntry(oldName); err != nil {
		return err
	}
	if err := dstDir.addEntry(newName, src.Ino, typeCode(src.d.Mode)); err != nil {
		return err
	}
	if src.IsDir() && n.Ino != dstDir.Ino {
		n.d.Nlink--
		dstDir.d.Nlink++
		if err := n.save(); err != nil {
			return err
		}
		if err := dstDir.save(); err != nil {
			return err
		}
	}
	return nil
}
