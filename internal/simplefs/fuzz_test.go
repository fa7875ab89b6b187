package simplefs_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"vmsh/internal/fsimage"
	"vmsh/internal/simplefs"
	"vmsh/internal/storage"
)

// fuzzManifest is the image FuzzSimplefsImage patches; tools/gencorpus
// builds the same one to aim its seeds. It holds a directory with a
// one-block file and a 13-block file (its last block behind the
// indirect pointer), and a symlink to the first.
var fuzzManifest = fsimage.Manifest{
	"/dir/small": {Data: []byte("hello")},
	"/dir/big":   {Data: bytes.Repeat([]byte("0123456789abcdef"), 13*simplefs.BlockSize/16)},
	"/link":      {Symlink: "dir/small"},
}

// fuzzImageBlocks is the image size: the smallest filesystem Mkfs makes.
const fuzzImageBlocks = 64

// FuzzSimplefsImage: simplefs parses image bytes that come from outside
// the program (an attached image, a snapshot's session image or disk
// blocks), so no image may panic it. Each input is a list of patches,
// a little-endian u32 image offset and the byte stored there, applied
// to a small image built deterministically. The patched image is
// mounted and walked through storage.Node: every directory is listed,
// its entries looked up and stat'ed, symlinks read and each file's
// first block read. A write phase follows (scribble). Any error is
// acceptable; a panic is a bug, and so is a Statfs after the write
// phase that counts more free blocks or inodes than exist.
func FuzzSimplefsImage(f *testing.F) {
	dev := storage.NewMemBlock(fuzzImageBlocks * simplefs.BlockSize)
	if err := fsimage.Build(dev, fuzzManifest); err != nil {
		f.Fatal(err)
	}
	img := make([]byte, dev.Size())
	if err := dev.ReadAt(0, img); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, patches []byte) {
		b := bytes.Clone(img)
		for ; len(patches) >= 5; patches = patches[5:] {
			b[binary.LittleEndian.Uint32(patches)%uint32(len(b))] = patches[4]
		}
		dev := storage.NewMemBlock(int64(len(b)))
		if err := dev.WriteAt(0, b); err != nil {
			t.Fatal(err)
		}
		fs, err := simplefs.Mount(dev)
		if err != nil {
			return
		}
		root, err := fs.Root()
		if err != nil {
			return
		}
		left := 64
		walk(root, 0, &left)
		if n, err := root.Create("new", 0o644, 0, 0); err == nil {
			_, _ = n.WriteAt(spill, simplefs.BlockSize/2)
		}
		left = 64
		scribble(root, 0, &left)
		if st := fs.Statfs(); st.BlocksFree > st.Blocks || st.InodesFree > st.Inodes {
			t.Fatalf("statfs after the write phase: %+v counts more free than exists", st)
		}
	})
}

// spill is what the write phase writes at half a block: it covers the
// second half of a file's first block, all of its second and half of
// its third.
var spill = make([]byte, 2*simplefs.BlockSize)

// scribble is the write phase: it visits at most *left nodes below
// dir, at most 8 directories deep, writes spill into every file,
// truncates it to one byte and unlinks it, unlinks every symlink and
// removes every directory once its own entries are gone.
func scribble(dir storage.Node, depth int, left *int) {
	ents, err := dir.ReadDir()
	if err != nil {
		return
	}
	for _, e := range ents {
		if *left == 0 {
			return
		}
		*left--
		n, err := dir.Lookup(e.Name)
		if err != nil {
			continue
		}
		switch {
		case n.IsDir():
			if depth < 8 {
				scribble(n, depth+1, left)
			}
			_ = dir.Rmdir(e.Name)
		case n.IsSymlink():
			_ = dir.Unlink(e.Name)
		default:
			_, _ = n.WriteAt(spill, simplefs.BlockSize/2)
			_ = n.Truncate(1)
			_ = dir.Unlink(e.Name)
		}
	}
}

// walk visits at most *left nodes below dir, at most 8 directories
// deep: a hostile image may link a directory into itself.
func walk(dir storage.Node, depth int, left *int) {
	ents, err := dir.ReadDir()
	if err != nil {
		return
	}
	for _, e := range ents {
		if *left == 0 {
			return
		}
		*left--
		n, err := dir.Lookup(e.Name)
		if err != nil {
			continue
		}
		n.Stat()
		switch {
		case n.IsSymlink():
			_, _ = n.Readlink()
		case n.IsDir():
			if depth < 8 {
				walk(n, depth+1, left)
			}
		default:
			_, _ = n.ReadAt(make([]byte, simplefs.BlockSize), 0)
		}
	}
}
