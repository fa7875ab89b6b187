package simplefs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"vmsh/internal/fserr"
	"vmsh/internal/hostsim"
	"vmsh/internal/storage"
)

// simplefs is a storage backend itself.
var (
	_ storage.FS   = (*FS)(nil)
	_ storage.Node = (*Inode)(nil)
)

// memDevice is an in-memory block device for tests. With failAt > 0,
// its failAt-th write at or past failFrom fails with errDataWrite.
type memDevice struct {
	data     []byte
	fua      bool
	failFrom int64
	failAt   int
}

var errDataWrite = errors.New("injected data write error")

func (m *memDevice) ReadAt(off int64, buf []byte) error {
	if err := hostsim.CheckAligned(off, len(buf)); err != nil {
		return err
	}
	copy(buf, m.data[off:])
	return nil
}
func (m *memDevice) WriteAt(off int64, buf []byte) error {
	if err := hostsim.CheckAligned(off, len(buf)); err != nil {
		return err
	}
	if off >= m.failFrom && m.failAt > 0 {
		if m.failAt--; m.failAt == 0 {
			return errDataWrite
		}
	}
	copy(m.data[off:], buf)
	return nil
}
func (m *memDevice) Flush() error      { return nil }
func (m *memDevice) Size() int64       { return int64(len(m.data)) }
func (m *memDevice) SupportsFUA() bool { return m.fua }

func newFS(t *testing.T, mb int, fua bool) (*FS, *memDevice) {
	t.Helper()
	dev := &memDevice{data: make([]byte, mb<<20), fua: fua}
	if err := Mkfs(dev, MkfsOptions{}); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	return fs, dev
}

func TestMkfsMountRoundTrip(t *testing.T) {
	fs, _ := newFS(t, 8, true)
	root, err := fs.Root()
	if err != nil {
		t.Fatal(err)
	}
	if !root.IsDir() {
		t.Fatal("root is not a directory")
	}
	st := fs.Statfs()
	if st.BlocksFree == 0 || st.InodesFree == 0 {
		t.Fatalf("statfs = %+v", st)
	}
}

func TestMountBadMagic(t *testing.T) {
	dev := &memDevice{data: make([]byte, 1<<20)}
	if _, err := Mount(dev); err == nil {
		t.Fatal("mounted an unformatted device")
	}
}

func TestCreateLookupReadWrite(t *testing.T) {
	fs, _ := newFS(t, 8, true)
	root, _ := fs.Root()
	f, err := root.Create("hello.txt", 0o644, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("persist me")
	if _, err := f.WriteAt(msg, 0); err != nil {
		t.Fatal(err)
	}
	got, err := root.Lookup("hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	if n, err := got.ReadAt(buf, 0); err != nil || n != len(msg) {
		t.Fatalf("read %d, %v", n, err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatal("data mismatch")
	}
	if got.Stat().Mode&storage.ModePermMask != 0o644 {
		t.Fatalf("mode = %o", got.Stat().Mode)
	}
}

func TestPersistenceAcrossRemount(t *testing.T) {
	fs, dev := newFS(t, 8, true)
	root, _ := fs.Root()
	f, _ := root.Create("file", 0o600, 42, 42)
	data := bytes.Repeat([]byte("xyz"), 5000)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Mkdir("sub", 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	fs2, err := Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	root2, _ := fs2.Root()
	f2, err := root2.Lookup("file")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if _, err := f2.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("data lost across remount")
	}
	if f2.Stat().UID != 42 {
		t.Fatal("ownership lost")
	}
	if _, err := root2.Lookup("sub"); err != nil {
		t.Fatal("directory lost")
	}
}

func TestLargeFileIndirectBlocks(t *testing.T) {
	fs, _ := newFS(t, 64, true)
	root, _ := fs.Root()
	f, _ := root.Create("big", 0o644, 0, 0)
	// Past 12 direct (48 KiB) and past indirect (48 KiB + 4 MiB):
	// write at 5 MiB to exercise the double-indirect path.
	probePoints := []int64{0, 40 << 10, 100 << 10, 5 << 20}
	for i, off := range probePoints {
		chunk := bytes.Repeat([]byte{byte(i + 1)}, 8192)
		if _, err := f.WriteAt(chunk, off); err != nil {
			t.Fatalf("write at %d: %v", off, err)
		}
	}
	for i, off := range probePoints {
		buf := make([]byte, 8192)
		if _, err := f.ReadAt(buf, off); err != nil {
			t.Fatalf("read at %d: %v", off, err)
		}
		want := bytes.Repeat([]byte{byte(i + 1)}, 8192)
		if !bytes.Equal(buf, want) {
			t.Fatalf("data at %d corrupted", off)
		}
	}
	// Holes between the probe points read as zeros.
	buf := make([]byte, 4096)
	if _, err := f.ReadAt(buf, 1<<20); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("hole is not zero")
		}
	}
}

func TestSparseFileAccounting(t *testing.T) {
	fs, _ := newFS(t, 16, true)
	root, _ := fs.Root()
	f, _ := root.Create("sparse", 0o644, 7, 7)
	free0 := fs.Statfs().BlocksFree
	if _, err := f.WriteAt([]byte("end"), 2<<20); err != nil {
		t.Fatal(err)
	}
	used := free0 - fs.Statfs().BlocksFree
	if used > 4 { // 1 data block + pointer blocks, not 512
		t.Fatalf("sparse write consumed %d blocks", used)
	}
	if f.Stat().Size != 2<<20+3 {
		t.Fatalf("size = %d", f.Stat().Size)
	}
}

func TestTruncateShrinkFreesBlocks(t *testing.T) {
	fs, _ := newFS(t, 16, true)
	root, _ := fs.Root()
	f, _ := root.Create("t", 0o644, 0, 0)
	data := make([]byte, 1<<20)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	freeAfterWrite := fs.Statfs().BlocksFree
	if err := f.Truncate(4096); err != nil {
		t.Fatal(err)
	}
	if fs.Statfs().BlocksFree <= freeAfterWrite {
		t.Fatal("truncate freed nothing")
	}
	if f.Stat().Size != 4096 {
		t.Fatalf("size = %d", f.Stat().Size)
	}
}

func TestTruncateTailZeroed(t *testing.T) {
	fs, _ := newFS(t, 8, true)
	root, _ := fs.Root()
	f, _ := root.Create("t", 0o644, 0, 0)
	if _, err := f.WriteAt(bytes.Repeat([]byte{0xff}, 4096), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(100); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(4096); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 4096; i++ {
		if buf[i] != 0 {
			t.Fatalf("stale byte %#x at %d after truncate up", buf[i], i)
		}
	}
}

func TestUnlinkFreesSpace(t *testing.T) {
	fs, _ := newFS(t, 16, true)
	root, _ := fs.Root()
	// First cycle lets the root directory grow its entry block, which
	// legitimately stays allocated afterwards; steady state must then
	// be leak-free.
	cycle := func() {
		f, err := root.Create("gone", 0o644, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(make([]byte, 256<<10), 0); err != nil {
			t.Fatal(err)
		}
		if err := root.Unlink("gone"); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	free0 := fs.Statfs()
	cycle()
	after := fs.Statfs()
	if after.BlocksFree != free0.BlocksFree || after.InodesFree != free0.InodesFree {
		t.Fatalf("space leaked: %+v vs %+v", free0, after)
	}
	if _, err := root.Lookup("gone"); err != fserr.ErrNotFound {
		t.Fatalf("lookup after unlink = %v", err)
	}
}

func TestHardLinks(t *testing.T) {
	fs, _ := newFS(t, 8, true)
	root, _ := fs.Root()
	f, _ := root.Create("a", 0o644, 0, 0)
	if _, err := f.WriteAt([]byte("shared"), 0); err != nil {
		t.Fatal(err)
	}
	if err := root.Link(f, "b"); err != nil {
		t.Fatal(err)
	}
	if f.Stat().Nlink != 2 {
		t.Fatalf("nlink = %d", f.Stat().Nlink)
	}
	if err := root.Unlink("a"); err != nil {
		t.Fatal(err)
	}
	b, err := root.Lookup("b")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 6)
	if _, err := b.ReadAt(buf, 0); err != nil || string(buf) != "shared" {
		t.Fatalf("data via second link: %q %v", buf, err)
	}
	if b.Stat().Nlink != 1 {
		t.Fatalf("nlink after unlink = %d", b.Stat().Nlink)
	}
	// Hard links to directories are forbidden.
	d, _ := root.Mkdir("d", 0o755, 0, 0)
	if err := root.Link(d, "dlink"); err == nil {
		t.Fatal("hard link to directory accepted")
	}
}

func TestSymlinks(t *testing.T) {
	fs, _ := newFS(t, 8, true)
	root, _ := fs.Root()
	if _, err := root.Symlink("ln", "/target/path", 0, 0); err != nil {
		t.Fatal(err)
	}
	ln, _ := root.Lookup("ln")
	if !ln.IsSymlink() {
		t.Fatal("not a symlink")
	}
	target, err := ln.Readlink()
	if err != nil || target != "/target/path" {
		t.Fatalf("readlink = %q, %v", target, err)
	}
	f, _ := root.Create("plain", 0o644, 0, 0)
	_ = f
	plain, _ := root.Lookup("plain")
	if _, err := plain.Readlink(); err == nil {
		t.Fatal("readlink on regular file succeeded")
	}
}

func TestMkdirRmdirSemantics(t *testing.T) {
	fs, _ := newFS(t, 8, true)
	root, _ := fs.Root()
	d, err := root.Mkdir("dir", 0o755, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if root.Stat().Nlink != 3 { // 2 + subdir
		t.Fatalf("root nlink = %d", root.Stat().Nlink)
	}
	if _, err := d.Create("f", 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := root.Rmdir("dir"); err != fserr.ErrNotEmpty {
		t.Fatalf("rmdir non-empty = %v", err)
	}
	if err := d.Unlink("f"); err != nil {
		t.Fatal(err)
	}
	if err := root.Rmdir("dir"); err != nil {
		t.Fatal(err)
	}
	if root.Stat().Nlink != 2 {
		t.Fatalf("root nlink after rmdir = %d", root.Stat().Nlink)
	}
	if err := root.Rmdir("missing"); err != fserr.ErrNotFound {
		t.Fatalf("rmdir missing = %v", err)
	}
}

func TestRenameSemantics(t *testing.T) {
	fs, _ := newFS(t, 8, true)
	root, _ := fs.Root()
	a, _ := root.Create("a", 0o644, 0, 0)
	_, _ = a.WriteAt([]byte("A"), 0)
	sub, _ := root.Mkdir("sub", 0o755, 0, 0)

	// Plain rename.
	if err := root.Rename("a", root, "a2"); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Lookup("a"); err != fserr.ErrNotFound {
		t.Fatal("old name still present")
	}
	// Cross-directory rename moves nlink for dirs.
	d2, _ := root.Mkdir("d2", 0o755, 0, 0)
	if err := root.Rename("d2", sub, "moved"); err != nil {
		t.Fatal(err)
	}
	if root.Stat().Nlink != 3 || sub.Stat().Nlink != 3 {
		t.Fatalf("nlinks after dir move: root=%d sub=%d", root.Stat().Nlink, sub.Stat().Nlink)
	}
	_ = d2
	// Replace an existing file.
	b, _ := root.Create("b", 0o644, 0, 0)
	_, _ = b.WriteAt([]byte("B"), 0)
	if err := root.Rename("a2", root, "b"); err != nil {
		t.Fatal(err)
	}
	got, _ := root.Lookup("b")
	buf := make([]byte, 1)
	_, _ = got.ReadAt(buf, 0)
	if buf[0] != 'A' {
		t.Fatalf("replaced content = %q", buf)
	}
	// File over directory fails.
	f3, _ := root.Create("f3", 0o644, 0, 0)
	_ = f3
	if err := root.Rename("f3", root, "sub"); err != fserr.ErrIsDir {
		t.Fatalf("file-over-dir rename = %v", err)
	}
	// Directory over non-empty directory fails.
	root2, _ := root.Mkdir("victim", 0o755, 0, 0)
	_, _ = root2.Create("occupied", 0o644, 0, 0)
	d4, _ := root.Mkdir("d4", 0o755, 0, 0)
	_ = d4
	if err := root.Rename("d4", root, "victim"); err != fserr.ErrNotEmpty {
		t.Fatalf("dir-over-nonempty rename = %v", err)
	}
}

func TestReadDirListing(t *testing.T) {
	fs, _ := newFS(t, 8, true)
	root, _ := fs.Root()
	names := []string{"one", "two", "three"}
	for _, n := range names {
		if _, err := root.Create(n, 0o644, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := root.ReadDir()
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 3 {
		t.Fatalf("%d entries", len(ents))
	}
	seen := map[string]bool{}
	for _, e := range ents {
		seen[e.Name] = true
		if e.Type != storage.ModeFile {
			t.Fatalf("entry %s type %#x", e.Name, e.Type)
		}
	}
	for _, n := range names {
		if !seen[n] {
			t.Fatalf("missing %s", n)
		}
	}
}

func TestManyFilesDirGrowth(t *testing.T) {
	fs, _ := newFS(t, 32, true)
	root, _ := fs.Root()
	const count = 100 // > one dir block (16 slots)
	for i := 0; i < count; i++ {
		if _, err := root.Create(fmt.Sprintf("file-%03d", i), 0o644, 0, 0); err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	ents, _ := root.ReadDir()
	if len(ents) != count {
		t.Fatalf("listed %d of %d", len(ents), count)
	}
	for i := 0; i < count; i += 7 {
		if err := root.Unlink(fmt.Sprintf("file-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Freed slots are reused.
	if _, err := root.Create("reuse", 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateCreateRejected(t *testing.T) {
	fs, _ := newFS(t, 8, true)
	root, _ := fs.Root()
	if _, err := root.Create("x", 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Create("x", 0o644, 0, 0); err != fserr.ErrExists {
		t.Fatalf("duplicate create = %v", err)
	}
	if _, err := root.Mkdir("x", 0o755, 0, 0); err != fserr.ErrExists {
		t.Fatalf("mkdir over file = %v", err)
	}
}

func TestNameTooLong(t *testing.T) {
	fs, _ := newFS(t, 8, true)
	root, _ := fs.Root()
	long := string(bytes.Repeat([]byte("n"), maxName+1))
	if _, err := root.Create(long, 0o644, 0, 0); err != fserr.ErrNameTooLong {
		t.Fatalf("overlong name = %v", err)
	}
}

// partialWrite writes 2 MiB at off into a new file on a fresh mb MiB
// image whose k-th data write fails (k = 0: none), and wants the write
// to stop short with want. The file must then be as long as the bytes
// the write reported, read them back, and give every block back when
// unlinked.
func partialWrite(t *testing.T, mb, k int, off int64, want error) storage.Node {
	t.Helper()
	fs, dev := newFS(t, mb, true)
	dev.failFrom, dev.failAt = int64(fs.sb.DataStart)*BlockSize, k
	root, _ := fs.Root()
	f, _ := root.Create("partial", 0o644, 0, 0)
	free := fs.Statfs().BlocksFree
	data := bytes.Repeat([]byte("partial!"), 256<<10)
	n, err := f.WriteAt(data, off)
	size := int64(0) // the file was empty
	if n > 0 {
		size = off + int64(n)
	}
	got := make([]byte, len(data))
	m, rerr := f.ReadAt(got, off)
	if !errors.Is(err, want) || n == len(data) || f.Stat().Size != size || m != n || !bytes.Equal(got[:m], data[:n]) {
		t.Fatalf("write %d bytes (%v), want a short write failing with %v; size %d, want %d; read back %d bytes (%v)",
			n, err, want, f.Stat().Size, size, m, rerr)
	}
	if err := root.Unlink("partial"); err != nil {
		t.Fatal(err)
	}
	if after := fs.Statfs().BlocksFree; after != free {
		t.Fatalf("%d blocks free after unlink, %d before the write", after, free)
	}
	return root
}

func TestENOSPC(t *testing.T) {
	root := partialWrite(t, 1, 0, 0, fserr.ErrNoSpace) // 256 blocks
	// The filesystem stays usable.
	f2, _ := root.Create("small", 0o644, 0, 0)
	if _, err := f2.WriteAt([]byte("ok"), 0); err != nil {
		t.Fatal(err)
	}
}

// TestPartialWriteDeviceError: a device error part-way through a
// write, on the full-block path (which skips zeroing) and on the
// zeroing of a partial block's fresh allocation.
func TestPartialWriteDeviceError(t *testing.T) {
	partialWrite(t, 4, 2, 0, errDataWrite)
	partialWrite(t, 4, 1, 100, errDataWrite)
}

func TestQuotaAccounting(t *testing.T) {
	fs, _ := newFS(t, 16, true)
	root, _ := fs.Root()
	f, _ := root.Create("u7file", 0o644, 7, 7)
	if _, err := f.WriteAt(make([]byte, 64<<10), 0); err != nil {
		t.Fatal(err)
	}
	rep, err := fs.QuotaReport()
	if err != nil {
		t.Fatal(err)
	}
	var u7 *storage.QuotaUsage
	for i := range rep {
		if rep[i].UID == 7 {
			u7 = &rep[i]
		}
	}
	if u7 == nil || u7.Blocks < 16 || u7.Inodes != 1 {
		t.Fatalf("uid7 usage = %+v", u7)
	}
	// Usage drops on unlink.
	if err := root.Unlink("u7file"); err != nil {
		t.Fatal(err)
	}
	rep, _ = fs.QuotaReport()
	for _, q := range rep {
		if q.UID == 7 && (q.Blocks != 0 || q.Inodes != 0) {
			t.Fatalf("uid7 after unlink = %+v", q)
		}
	}
}

func TestQuotaChownMovesUsage(t *testing.T) {
	fs, _ := newFS(t, 16, true)
	root, _ := fs.Root()
	f, _ := root.Create("f", 0o644, 1, 1)
	if _, err := f.WriteAt(make([]byte, 32<<10), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Chown(2, 2); err != nil {
		t.Fatal(err)
	}
	rep, _ := fs.QuotaReport()
	var u1, u2 storage.QuotaUsage
	for _, q := range rep {
		if q.UID == 1 {
			u1 = q
		}
		if q.UID == 2 {
			u2 = q
		}
	}
	if u1.Blocks != 0 || u1.Inodes != 0 {
		t.Fatalf("old owner still charged: %+v", u1)
	}
	if u2.Blocks < 8 || u2.Inodes != 1 {
		t.Fatalf("new owner not charged: %+v", u2)
	}
}

func TestQuotaPersistsWithFUA(t *testing.T) {
	fs, dev := newFS(t, 16, true)
	root, _ := fs.Root()
	f, _ := root.Create("f", 0o644, 9, 9)
	_, _ = f.WriteAt(make([]byte, 16<<10), 0)
	_ = fs.Sync()
	fs2, err := Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fs2.QuotaReport()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, q := range rep {
		if q.UID == 9 && q.Inodes == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("quota not persisted: %+v", rep)
	}
}

func TestQuotaDisabledWithoutFUA(t *testing.T) {
	// This is the §6.1 mechanism: the virtio devices never negotiate
	// FUA, so quota reporting fails there while everything else works.
	fs, _ := newFS(t, 16, false)
	if _, err := fs.QuotaReport(); err == nil {
		t.Fatal("quota report without FUA succeeded")
	}
	root, _ := fs.Root()
	f, err := root.Create("works", 0o644, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("fine"), 0); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadProperty(t *testing.T) {
	fs, _ := newFS(t, 32, true)
	root, _ := fs.Root()
	f, _ := root.Create("prop", 0o644, 0, 0)
	// Model: a shadow byte slice mirrors every write.
	shadow := make([]byte, 1<<20)
	var maxEnd int64
	rnd := rand.New(rand.NewSource(11))
	prop := func(off16 uint16, size8 uint8) bool {
		off := int64(off16) % (1 << 19)
		size := int(size8)%2048 + 1
		data := make([]byte, size)
		rnd.Read(data)
		if _, err := f.WriteAt(data, off); err != nil {
			return false
		}
		copy(shadow[off:], data)
		if off+int64(size) > maxEnd {
			maxEnd = off + int64(size)
		}
		// Read back a random window inside the written extent.
		roff := int64(rnd.Intn(int(maxEnd)))
		rlen := rnd.Intn(int(maxEnd-roff)) + 1
		buf := make([]byte, rlen)
		if _, err := f.ReadAt(buf, roff); err != nil {
			return false
		}
		return bytes.Equal(buf, shadow[roff:roff+int64(rlen)])
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestForeignNodeIsXDev: Link and Rename refuse a node of another
// filesystem, a storage.MemFS node or another simplefs's, with
// fserr.ErrXDev, and change nothing.
func TestForeignNodeIsXDev(t *testing.T) {
	fs, _ := newFS(t, 8, true)
	root, _ := fs.Root()
	if _, err := root.Create("f", 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	memRoot, err := storage.NewMemFS(storage.MemOptions{}).Root()
	if err != nil {
		t.Fatal(err)
	}
	memFile, err := memRoot.Create("g", 0o644, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	other, _ := newFS(t, 8, true)
	otherRoot, _ := other.Root()
	otherFile, err := otherRoot.Create("h", 0o644, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []storage.Node{memFile, otherFile} {
		if err := root.Link(target, "l"); !errors.Is(err, fserr.ErrXDev) {
			t.Errorf("Link(%T) = %v, want EXDEV", target, err)
		}
	}
	for _, dst := range []storage.Node{memRoot, otherRoot} {
		if err := root.Rename("f", dst, "f"); !errors.Is(err, fserr.ErrXDev) {
			t.Errorf("Rename to %T = %v, want EXDEV", dst, err)
		}
	}
	if ents, err := root.ReadDir(); err != nil || len(ents) != 1 || ents[0].Name != "f" {
		t.Fatalf("root after refused calls: %v, %v", ents, err)
	}
}

// TestDirEntryNameOverrunsSlot: a directory entry whose on-disk name
// length runs past its slot is refused as corrupt. In a block's last
// slot it used to run past the block and panic.
func TestDirEntryNameOverrunsSlot(t *testing.T) {
	fs, dev := newFS(t, 8, true)
	root, _ := fs.Root()
	for i := 0; i < dirEntsPerBl; i++ {
		if _, err := root.Create(fmt.Sprintf("f%02d", i), 0o644, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	r, _ := fs.inode(fs.sb.RootIno)
	dev.data[int(r.d.Direct[0])*BlockSize+(dirEntsPerBl-1)*dirEntSize+5] = 255
	fs2, err := Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	root2, _ := fs2.Root()
	if _, err := root2.ReadDir(); !errors.Is(err, fserr.ErrInvalid) {
		t.Errorf("ReadDir = %v, want EINVAL", err)
	}
	if _, err := root2.Lookup("missing"); !errors.Is(err, fserr.ErrInvalid) {
		t.Errorf("Lookup = %v, want EINVAL", err)
	}
}

// TestReadlinkHostileSize: Symlink caps targets at one block, and
// Readlink refuses as corrupt a symlink whose on-disk size is larger,
// before allocating it: a size of 1<<62 used to panic in makeslice and
// smaller ones allocated whatever they claimed.
func TestReadlinkHostileSize(t *testing.T) {
	fs, dev := newFS(t, 8, true)
	root, _ := fs.Root()
	if _, err := root.Symlink("long", strings.Repeat("x", BlockSize+1), 0, 0); !errors.Is(err, fserr.ErrNameTooLong) {
		t.Errorf("Symlink of %d bytes = %v, want ENAMETOOLONG", BlockSize+1, err)
	}
	max, err := root.Symlink("max", strings.Repeat("x", BlockSize), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := max.Readlink(); err != nil || len(got) != BlockSize {
		t.Fatalf("Readlink of a one-block target: %d bytes, %v", len(got), err)
	}
	ln, err := root.Symlink("ln", "target", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	blk, off := fs.inodeLoc(ln.Stat().Ino)
	for _, size := range []uint64{1 << 62, 1 << 20, BlockSize + 1} {
		binary.LittleEndian.PutUint64(dev.data[int(blk)*BlockSize+off+16:], size)
		fs2, err := Mount(dev)
		if err != nil {
			t.Fatal(err)
		}
		root2, _ := fs2.Root()
		n, err := root2.Lookup("ln")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Readlink(); !errors.Is(err, fserr.ErrInvalid) {
			t.Errorf("Readlink of a %d-byte target = %v, want EINVAL", size, err)
		}
	}
}

// TestMountRefusesBadSuperblock: Mount refuses, as fserr.ErrInvalid, a
// superblock Mkfs could not have written, before computing an offset
// from it: a quota region of 2^32 blocks made Mount allocate 16 TiB.
func TestMountRefusesBadSuperblock(t *testing.T) {
	_, dev := newFS(t, 1, true)
	good := bytes.Clone(dev.data[:BlockSize])
	for word, v := range map[int]uint32{0: 0, 1: 1 << 20, 2: 1 << 20, 7: 2, 10: ^uint32(0),
		11: 1 << 20, 12: 0, 13: 1 << 20, 14: 1 << 20} {
		copy(dev.data, good)
		binary.LittleEndian.PutUint32(dev.data[word*4:], v)
		if _, err := Mount(dev); !errors.Is(err, fserr.ErrInvalid) {
			t.Errorf("superblock word %d = %#x: Mount = %v, want EINVAL", word, v, err)
		}
	}
	copy(dev.data, good)
	if _, err := Mount(dev); err != nil {
		t.Fatal(err)
	}
}

// TestHostileBlockPointers: a block pointer outside the data region is
// refused as corrupt before it is followed or freed, and a block or
// inode already free is not freed again. In a 1 MiB image a file's
// first block pointer of 32768 plus the inode number of another file,
// keep, used to clear keep's inode-bitmap bit on Unlink, so the next
// Create reused keep's inode; a pointer into the inode table, two files
// or directory entries sharing a block or inode, or a superblock
// claiming more free than its bitmap, raised the free counts past the
// truth.
func TestHostileBlockPointers(t *testing.T) {
	dev := storage.NewMemBlock(1 << 20)
	if err := Mkfs(dev, MkfsOptions{}); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	root, _ := fs.Root()
	keep, err := root.Create("keep", 0o644, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := keep.WriteAt([]byte("kept"), 0); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"bad", "twin"} {
		n, err := root.Create(name, 0o644, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.WriteAt(bytes.Repeat([]byte{7}, BlockSize), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := root.Mkdir("d", 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	good := make([]byte, dev.Size())
	if err := dev.ReadAt(0, good); err != nil {
		t.Fatal(err)
	}
	ino := func(name string) uint32 {
		n, err := root.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		return uint32(n.ID())
	}
	// setFirstPtr stores ptr as name's first block pointer on disk.
	setFirstPtr := func(name string, ptr uint32) {
		blk, off := fs.inodeLoc(ino(name))
		if err := dev.WriteAt(int64(blk)*BlockSize+int64(off)+48, binary.LittleEndian.AppendUint32(nil, ptr)); err != nil {
			t.Fatal(err)
		}
	}
	// remount restores the good image and mounts it after patch runs.
	remount := func(patch func()) (*FS, storage.Node) {
		t.Helper()
		if err := dev.WriteAt(0, good); err != nil {
			t.Fatal(err)
		}
		patch()
		fs2, err := Mount(dev)
		if err != nil {
			t.Fatal(err)
		}
		root2, err := fs2.Root()
		if err != nil {
			t.Fatal(err)
		}
		return fs2, root2
	}
	// withinTotals fails the test when a free count exceeds its total.
	withinTotals := func(fs2 *FS, what string) {
		t.Helper()
		if st := fs2.Statfs(); st.BlocksFree > st.Blocks || st.InodesFree > st.Inodes {
			t.Errorf("%s: statfs %+v counts more free than exists", what, st)
		}
	}

	for _, ptr := range []uint32{32768 + ino("keep"), fs.sb.ITableStart, fs.sb.BlockCount} {
		fs2, root2 := remount(func() { setFirstPtr("bad", ptr) })
		bad, err := root2.Lookup("bad")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bad.ReadAt(make([]byte, 8), 0); !errors.Is(err, fserr.ErrInvalid) {
			t.Errorf("pointer %d: ReadAt = %v, want EINVAL", ptr, err)
		}
		if _, err := bad.WriteAt([]byte("x"), 0); !errors.Is(err, fserr.ErrInvalid) {
			t.Errorf("pointer %d: WriteAt = %v, want EINVAL", ptr, err)
		}
		if err := root2.Unlink("bad"); !errors.Is(err, fserr.ErrInvalid) {
			t.Errorf("pointer %d: Unlink = %v, want EINVAL", ptr, err)
		}
		n, err := root2.Create("new", 0o644, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if n.ID() == uint64(ino("keep")) {
			t.Errorf("pointer %d: Create reused keep's inode %d", ptr, n.ID())
		}
		withinTotals(fs2, fmt.Sprintf("pointer %d", ptr))
	}

	// Two files cross-linked to one block: the second free is refused.
	bad, _ := fs.inode(ino("bad"))
	fs2, root2 := remount(func() { setFirstPtr("twin", bad.d.Direct[0]) })
	if err := root2.Unlink("bad"); err != nil {
		t.Fatal(err)
	}
	if err := root2.Unlink("twin"); !errors.Is(err, fserr.ErrInvalid) {
		t.Errorf("second free of a cross-linked block: Unlink = %v, want EINVAL", err)
	}
	withinTotals(fs2, "cross-linked block")

	// Two directory entries naming one directory: the second Rmdir
	// would free its inode again.
	fs2, root2 = remount(func() {})
	if err := root2.(*Inode).addEntry("d2", ino("d"), typeCode(storage.ModeDir)); err != nil {
		t.Fatal(err)
	}
	if err := root2.Rmdir("d"); err != nil {
		t.Fatal(err)
	}
	if err := root2.Rmdir("d2"); !errors.Is(err, fserr.ErrInvalid) {
		t.Errorf("second free of a cross-linked inode: Rmdir = %v, want EINVAL", err)
	}
	withinTotals(fs2, "cross-linked inode")

	// A superblock that claims every block and inode free: one more
	// free would count past the totals.
	fs2, root2 = remount(func() {
		sb := fs.sb
		sb.FreeBlocks, sb.FreeInodes = sb.BlockCount-sb.DataStart, sb.InodeCount-1
		if err := dev.WriteAt(0, sb.encode()); err != nil {
			t.Fatal(err)
		}
	})
	if err := root2.Unlink("bad"); !errors.Is(err, fserr.ErrInvalid) {
		t.Errorf("free past an over-claimed count: Unlink = %v, want EINVAL", err)
	}
	withinTotals(fs2, "over-claimed counts")
}
