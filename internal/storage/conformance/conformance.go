// Package conformance is the fstest-style suite every storage backend
// must pass. A backend registers an Open function plus a Features
// declaration; Run drives the same table of checks against each one —
// POSIX namespace rules, data-plane round trips, the fserr sentinel
// mapping, and a randomised model comparison against the in-memory
// reference filesystem.
//
// Checks the backend cannot express are gated by feature flags (hard
// links, sparse files, accounting, quota, name length); everything
// else, case-sensitive names included, is unconditional so divergence
// is a failure, not a skip.
//
// Each check operates inside a fresh scratch directory so backends
// whose Open preloads content (an fsimage manifest, an overlay's
// read-only image) conform with their payload in place.
package conformance

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"vmsh/internal/faults"
	"vmsh/internal/fserr"
	"vmsh/internal/storage"
)

// Features declares what a backend supports; false flags skip the
// corresponding checks rather than failing them.
type Features struct {
	// HardLinks: Link creates additional names sharing one inode.
	HardLinks bool
	// Symlinks: Symlink/Readlink work.
	Symlinks bool
	// SparseFiles: writes far past EOF allocate only the touched
	// blocks; holes read back as zeros.
	SparseFiles bool
	// Accounting: Statfs free counters move as blocks/inodes are
	// allocated and released.
	Accounting bool
	// Quota: QuotaReport returns per-uid usage. When false the backend
	// must return fserr.ErrNotSupported.
	Quota bool
	// Persist: data survives Sync + Remount.
	Persist bool
	// MaxNameLen is the longest accepted name; 0 disables the check.
	// Longer names must fail with fserr.ErrNameTooLong.
	MaxNameLen int
}

// Backend binds a named backend into the suite.
type Backend struct {
	Name     string
	Features Features
	// Open returns a fresh filesystem. Called once per subtest so
	// checks never see each other's state.
	Open func() (storage.FS, error)
	// Remount simulates unmount/mount: given the FS returned by Open
	// (already Synced), return the filesystem re-opened from its
	// backing store. Nil for purely in-memory backends — the suite
	// then reuses the same instance after Sync.
	Remount func(fs storage.FS) (storage.FS, error)
}

// DefaultOps is the random-op count of the model check; override with
// the CONFORMANCE_OPS environment variable (CI smoke uses a reduced
// count).
const DefaultOps = 400

func opCount() int {
	if s := os.Getenv("CONFORMANCE_OPS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return DefaultOps
}

// scratchDir is where every check builds its tree.
const scratchDir = "conformance"

// Run executes the full conformance table against one backend.
func Run(t *testing.T, b Backend) {
	t.Helper()
	checks := []struct {
		name string
		skip bool
		fn   func(t *testing.T, fs storage.FS, dir storage.Node, f Features)
	}{
		{name: "basic-tree", fn: checkBasicTree},
		{name: "readdir", fn: checkReadDir},
		{name: "rw-roundtrip", fn: checkReadWrite},
		{name: "truncate", fn: checkTruncate},
		{name: "sentinels", fn: checkSentinels},
		{name: "rename", fn: checkRename},
		{name: "symlinks", skip: !b.Features.Symlinks, fn: checkSymlinks},
		{name: "hardlinks", skip: !b.Features.HardLinks, fn: checkHardLinks},
		{name: "case", fn: checkCase},
		{name: "max-name", skip: b.Features.MaxNameLen == 0, fn: checkMaxName},
		{name: "sparse", skip: !b.Features.SparseFiles, fn: checkSparse},
		{name: "accounting", skip: !b.Features.Accounting, fn: checkAccounting},
		{name: "quota", fn: checkQuota},
		{name: "model", fn: checkModel},
	}
	for _, c := range checks {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if c.skip {
				t.Skipf("backend %s: feature not supported", b.Name)
			}
			fs, err := b.Open()
			if err != nil {
				t.Fatalf("open %s: %v", b.Name, err)
			}
			dir, err := MustRoot(t, fs).Mkdir(scratchDir, 0o755, 0, 0)
			if err != nil {
				t.Fatalf("mkdir scratch: %v", err)
			}
			c.fn(t, fs, dir, b.Features)
		})
	}
	t.Run("remount", func(t *testing.T) {
		if !b.Features.Persist {
			t.Skipf("backend %s: no persistence", b.Name)
		}
		checkRemount(t, b)
	})
}

// --- helpers ------------------------------------------------------------

// MustRoot returns fs's root, failing the test if it cannot be read.
func MustRoot(t testing.TB, fs storage.FS) storage.Node {
	t.Helper()
	root, err := fs.Root()
	if err != nil {
		t.Fatalf("root: %v", err)
	}
	return root
}

func mustCreate(t *testing.T, dir storage.Node, name string) storage.Node {
	t.Helper()
	n, err := dir.Create(name, 0o644, 0, 0)
	if err != nil {
		t.Fatalf("create %s: %v", name, err)
	}
	return n
}

func mustMkdir(t *testing.T, dir storage.Node, name string) storage.Node {
	t.Helper()
	n, err := dir.Mkdir(name, 0o755, 0, 0)
	if err != nil {
		t.Fatalf("mkdir %s: %v", name, err)
	}
	return n
}

func mustWrite(t *testing.T, n storage.Node, data []byte, off int64) {
	t.Helper()
	nw, err := n.WriteAt(data, off)
	if err != nil || nw != len(data) {
		t.Fatalf("write %d@%d: n=%d err=%v", len(data), off, nw, err)
	}
}

func readAll(t *testing.T, n storage.Node) []byte {
	t.Helper()
	size := n.Stat().Size
	buf := make([]byte, size)
	nr, err := n.ReadAt(buf, 0)
	if err != nil {
		t.Fatalf("read %d bytes: %v", size, err)
	}
	return buf[:nr]
}

func fill(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

// --- checks -------------------------------------------------------------

func checkBasicTree(t *testing.T, fs storage.FS, root storage.Node, f Features) {
	if !root.IsDir() {
		t.Fatal("scratch dir is not a directory")
	}
	rootLinks := root.Stat().Nlink

	dir := mustMkdir(t, root, "dir")
	if got := root.Stat().Nlink; got != rootLinks+1 {
		t.Errorf("parent nlink after mkdir: got %d, want %d", got, rootLinks+1)
	}
	if dl := dir.Stat().Nlink; dl != 2 {
		t.Errorf("fresh dir nlink: got %d, want 2", dl)
	}
	file := mustCreate(t, dir, "file")
	if file.IsDir() || file.IsSymlink() {
		t.Error("created file reports wrong type")
	}
	if fl := file.Stat().Nlink; fl != 1 {
		t.Errorf("fresh file nlink: got %d, want 1", fl)
	}
	if file.Stat().Size != 0 {
		t.Errorf("fresh file size: got %d, want 0", file.Stat().Size)
	}

	// Lookup returns a node naming the same inode.
	again, err := dir.Lookup("file")
	if err != nil {
		t.Fatalf("lookup file: %v", err)
	}
	if again.ID() != file.ID() {
		t.Errorf("lookup returned ID %d, create returned %d", again.ID(), file.ID())
	}
	// Inode numbers are unique across live nodes.
	other := mustCreate(t, dir, "other")
	ids := map[uint64]string{root.ID(): "scratch", dir.ID(): "dir", file.ID(): "file"}
	if name, dup := ids[other.ID()]; dup {
		t.Errorf("inode %d reused for both %s and other", other.ID(), name)
	}

	// Permission and ownership metadata round-trips.
	n, err := dir.Create("meta", 0o600, 7, 8)
	if err != nil {
		t.Fatalf("create meta: %v", err)
	}
	st := n.Stat()
	if st.Mode&storage.ModePermMask != 0o600 || st.UID != 7 || st.GID != 8 {
		t.Errorf("meta perms: mode %#o uid %d gid %d", st.Mode&storage.ModePermMask, st.UID, st.GID)
	}
	if err := n.Chmod(0o444); err != nil {
		t.Fatalf("chmod: %v", err)
	}
	if err := n.Chown(9, 10); err != nil {
		t.Fatalf("chown: %v", err)
	}
	if err := n.SetTimes(111, 222); err != nil {
		t.Fatalf("settimes: %v", err)
	}
	st = n.Stat()
	if st.Mode&storage.ModePermMask != 0o444 || st.UID != 9 || st.GID != 10 {
		t.Errorf("after chmod/chown: mode %#o uid %d gid %d", st.Mode&storage.ModePermMask, st.UID, st.GID)
	}
	if st.Mode&storage.ModeTypeMask != storage.ModeFile {
		t.Errorf("chmod changed type bits: %#o", st.Mode)
	}
	if st.Atime != 111 || st.Mtime != 222 {
		t.Errorf("after settimes: atime %d mtime %d", st.Atime, st.Mtime)
	}

	// Unlink releases the name; the directory link count returns on rmdir.
	if err := dir.Unlink("file"); err != nil {
		t.Fatalf("unlink: %v", err)
	}
	if _, err := dir.Lookup("file"); !errors.Is(err, fserr.ErrNotFound) {
		t.Errorf("lookup after unlink: %v, want ErrNotFound", err)
	}
	mustMkdir(t, root, "sub")
	if err := root.Rmdir("sub"); err != nil {
		t.Fatalf("rmdir: %v", err)
	}
	if got := root.Stat().Nlink; got != rootLinks+1 {
		t.Errorf("parent nlink after rmdir: got %d, want %d", got, rootLinks+1)
	}
}

func checkReadDir(t *testing.T, fs storage.FS, root storage.Node, f Features) {
	names := []string{"zeta", "alpha", "mid"}
	for _, n := range names {
		mustCreate(t, root, n)
	}
	mustMkdir(t, root, "dir")

	ents, err := root.ReadDir()
	if err != nil {
		t.Fatalf("readdir: %v", err)
	}
	// POSIX gives no ordering guarantee (simplefs yields on-disk
	// order); compare the name set.
	want := []string{"alpha", "dir", "mid", "zeta"}
	var got []string
	for _, e := range ents {
		got = append(got, e.Name)
	}
	sort.Strings(got)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("readdir names: got %v, want %v", got, want)
	}
	// Entry inos and types agree with Stat.
	for _, e := range ents {
		child, err := root.Lookup(e.Name)
		if err != nil {
			t.Fatalf("lookup %s: %v", e.Name, err)
		}
		st := child.Stat()
		if e.Ino != st.Ino {
			t.Errorf("%s: entry ino %d != stat ino %d", e.Name, e.Ino, st.Ino)
		}
		if e.Type != st.Mode&storage.ModeTypeMask {
			t.Errorf("%s: entry type %#o != stat type %#o", e.Name, e.Type, st.Mode&storage.ModeTypeMask)
		}
	}
}

func checkReadWrite(t *testing.T, fs storage.FS, root storage.Node, f Features) {
	file := mustCreate(t, root, "data")

	payload := fill(10000, 3) // spans pages, not page-aligned
	mustWrite(t, file, payload, 0)
	if got := file.Stat().Size; got != 10000 {
		t.Fatalf("size after write: got %d, want 10000", got)
	}
	if got := readAll(t, file); !bytes.Equal(got, payload) {
		t.Fatal("full read-back mismatch")
	}

	// Partial read crossing a page boundary.
	buf := make([]byte, 1000)
	nr, err := file.ReadAt(buf, 3600)
	if err != nil || nr != 1000 {
		t.Fatalf("partial read: n=%d err=%v", nr, err)
	}
	if !bytes.Equal(buf, payload[3600:4600]) {
		t.Fatal("partial read mismatch")
	}

	// Overwrite in the middle.
	patch := fill(500, 99)
	mustWrite(t, file, patch, 5000)
	copy(payload[5000:], patch)
	if got := readAll(t, file); !bytes.Equal(got, payload) {
		t.Fatal("read-back after overwrite mismatch")
	}

	// Read past EOF is a short read with no error; read at EOF is (0, nil).
	nr, err = file.ReadAt(buf, 9800)
	if err != nil || nr != 200 {
		t.Errorf("read past EOF: n=%d err=%v, want 200/nil", nr, err)
	}
	nr, err = file.ReadAt(buf, 10000)
	if err != nil || nr != 0 {
		t.Errorf("read at EOF: n=%d err=%v, want 0/nil", nr, err)
	}

	// Extending write at an offset beyond EOF zero-fills the gap.
	mustWrite(t, file, []byte{0xAB}, 12000)
	if got := file.Stat().Size; got != 12001 {
		t.Fatalf("size after gap write: got %d, want 12001", got)
	}
	gap := make([]byte, 2000)
	if nr, err := file.ReadAt(gap, 10000); err != nil || nr != 2000 {
		t.Fatalf("gap read: n=%d err=%v", nr, err)
	}
	if !bytes.Equal(gap, make([]byte, 2000)) {
		t.Error("gap between old EOF and new write is not zero")
	}
}

func checkTruncate(t *testing.T, fs storage.FS, root storage.Node, f Features) {
	file := mustCreate(t, root, "t")
	payload := fill(9000, 17)
	mustWrite(t, file, payload, 0)

	// Grow: the extension reads as zeros.
	if err := file.Truncate(20000); err != nil {
		t.Fatalf("truncate grow: %v", err)
	}
	if got := file.Stat().Size; got != 20000 {
		t.Fatalf("size after grow: %d", got)
	}
	tail := make([]byte, 11000)
	if nr, err := file.ReadAt(tail, 9000); err != nil || nr != 11000 {
		t.Fatalf("tail read: n=%d err=%v", nr, err)
	}
	if !bytes.Equal(tail, make([]byte, 11000)) {
		t.Error("grown region is not zero")
	}

	// Shrink then re-grow: no stale bytes resurface.
	if err := file.Truncate(4100); err != nil {
		t.Fatalf("truncate shrink: %v", err)
	}
	if err := file.Truncate(9000); err != nil {
		t.Fatalf("truncate regrow: %v", err)
	}
	got := readAll(t, file)
	want := make([]byte, 9000)
	copy(want, payload[:4100])
	if !bytes.Equal(got, want) {
		t.Error("stale data resurfaced after shrink+regrow")
	}

	if err := file.Truncate(-1); !errors.Is(err, fserr.ErrInvalid) {
		t.Errorf("truncate(-1): %v, want ErrInvalid", err)
	}
}

// checkSentinels is the satellite table: every backend maps the four
// classic POSIX failures (ENOENT, EEXIST, ENOTDIR, EISDIR) onto the
// same internal/fserr sentinels, plus the close neighbours the VFS
// dispatches on.
func checkSentinels(t *testing.T, fs storage.FS, root storage.Node, f Features) {
	dir := mustMkdir(t, root, "d")
	file := mustCreate(t, root, "f")
	mustCreate(t, dir, "inner")

	table := []struct {
		name string
		want error
		op   func() error
	}{
		{"ENOENT/lookup-missing", fserr.ErrNotFound, func() error { _, err := root.Lookup("missing"); return err }},
		{"ENOENT/unlink-missing", fserr.ErrNotFound, func() error { return root.Unlink("missing") }},
		{"ENOENT/rmdir-missing", fserr.ErrNotFound, func() error { return root.Rmdir("missing") }},
		{"ENOENT/rename-missing", fserr.ErrNotFound, func() error { return root.Rename("missing", root, "x") }},
		{"EEXIST/create-over-file", fserr.ErrExists, func() error { _, err := root.Create("f", 0o644, 0, 0); return err }},
		{"EEXIST/create-over-dir", fserr.ErrExists, func() error { _, err := root.Create("d", 0o644, 0, 0); return err }},
		{"EEXIST/mkdir-over-file", fserr.ErrExists, func() error { _, err := root.Mkdir("f", 0o755, 0, 0); return err }},
		{"EEXIST/mkdir-over-dir", fserr.ErrExists, func() error { _, err := root.Mkdir("d", 0o755, 0, 0); return err }},
		{"ENOTDIR/lookup-in-file", fserr.ErrNotDir, func() error { _, err := file.Lookup("x"); return err }},
		{"ENOTDIR/create-in-file", fserr.ErrNotDir, func() error { _, err := file.Create("x", 0o644, 0, 0); return err }},
		{"ENOTDIR/mkdir-in-file", fserr.ErrNotDir, func() error { _, err := file.Mkdir("x", 0o755, 0, 0); return err }},
		{"ENOTDIR/readdir-file", fserr.ErrNotDir, func() error { _, err := file.ReadDir(); return err }},
		{"ENOTDIR/rmdir-file", fserr.ErrNotDir, func() error { return root.Rmdir("f") }},
		{"EISDIR/unlink-dir", fserr.ErrIsDir, func() error { return root.Unlink("d") }},
		{"EISDIR/read-dir", fserr.ErrIsDir, func() error { _, err := dir.ReadAt(make([]byte, 8), 0); return err }},
		{"EISDIR/write-dir", fserr.ErrIsDir, func() error { _, err := dir.WriteAt(make([]byte, 8), 0); return err }},
		{"EISDIR/truncate-dir", fserr.ErrIsDir, func() error { return dir.Truncate(0) }},
		{"ENOTEMPTY/rmdir-nonempty", fserr.ErrNotEmpty, func() error { return root.Rmdir("d") }},
	}
	for _, tc := range table {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.op(); !errors.Is(err, tc.want) {
				t.Errorf("got %v, want %v", err, tc.want)
			}
		})
	}
}

func checkRename(t *testing.T, fs storage.FS, root storage.Node, f Features) {
	a := mustMkdir(t, root, "a")
	b := mustMkdir(t, root, "b")

	// Simple rename within one directory.
	src := mustCreate(t, a, "x")
	mustWrite(t, src, []byte("hello"), 0)
	if err := a.Rename("x", a, "y"); err != nil {
		t.Fatalf("rename x->y: %v", err)
	}
	if _, err := a.Lookup("x"); !errors.Is(err, fserr.ErrNotFound) {
		t.Errorf("old name survives rename: %v", err)
	}
	y, err := a.Lookup("y")
	if err != nil {
		t.Fatalf("lookup y: %v", err)
	}
	if got := readAll(t, y); string(got) != "hello" {
		t.Errorf("content after rename: %q", got)
	}

	// Cross-directory rename.
	if err := a.Rename("y", b, "z"); err != nil {
		t.Fatalf("rename a/y -> b/z: %v", err)
	}
	if _, err := b.Lookup("z"); err != nil {
		t.Errorf("lookup b/z: %v", err)
	}

	// File-over-file overwrite replaces the target.
	victim := mustCreate(t, b, "victim")
	mustWrite(t, victim, []byte("old"), 0)
	if err := b.Rename("z", b, "victim"); err != nil {
		t.Fatalf("overwrite rename: %v", err)
	}
	v, err := b.Lookup("victim")
	if err != nil {
		t.Fatalf("lookup victim: %v", err)
	}
	if got := readAll(t, v); string(got) != "hello" {
		t.Errorf("overwrite kept old content: %q", got)
	}

	// Directory over empty directory is allowed; over non-empty is not.
	d1 := mustMkdir(t, root, "d1")
	mustCreate(t, d1, "occupant")
	mustMkdir(t, root, "d2")
	mustMkdir(t, root, "empty")
	if err := root.Rename("d2", root, "empty"); err != nil {
		t.Errorf("dir over empty dir: %v", err)
	}
	mustMkdir(t, root, "d3")
	if err := root.Rename("d3", root, "d1"); !errors.Is(err, fserr.ErrNotEmpty) {
		t.Errorf("dir over non-empty dir: %v, want ErrNotEmpty", err)
	}

	// File over dir and dir over file are rejected with EISDIR/ENOTDIR.
	mustCreate(t, root, "plain")
	if err := root.Rename("plain", root, "d1"); !errors.Is(err, fserr.ErrIsDir) {
		t.Errorf("file over dir: %v, want ErrIsDir", err)
	}
	if err := root.Rename("d1", root, "plain"); !errors.Is(err, fserr.ErrNotDir) {
		t.Errorf("dir over file: %v, want ErrNotDir", err)
	}

	// Renaming a name onto its own inode is a no-op (POSIX).
	if f.HardLinks {
		n := mustCreate(t, root, "self1")
		if err := root.Link(n, "self2"); err != nil {
			t.Fatalf("link: %v", err)
		}
		if err := root.Rename("self1", root, "self2"); err != nil {
			t.Errorf("rename onto same inode: %v, want nil", err)
		}
		if _, err := root.Lookup("self1"); err != nil {
			t.Errorf("POSIX same-inode rename removed source: %v", err)
		}
	}

	// Renaming a populated directory moves its whole subtree.
	tree := mustMkdir(t, root, "tree")
	deep := mustMkdir(t, tree, "deep")
	leaf := mustCreate(t, deep, "leaf")
	mustWrite(t, leaf, []byte("payload"), 0)
	if err := root.Rename("tree", b, "moved"); err != nil {
		t.Fatalf("rename populated dir: %v", err)
	}
	moved, err := b.Lookup("moved")
	if err != nil {
		t.Fatalf("lookup moved: %v", err)
	}
	md, err := moved.Lookup("deep")
	if err != nil {
		t.Fatalf("lookup moved/deep: %v", err)
	}
	ml, err := md.Lookup("leaf")
	if err != nil {
		t.Fatalf("lookup moved/deep/leaf: %v", err)
	}
	if got := readAll(t, ml); string(got) != "payload" {
		t.Errorf("subtree content after dir rename: %q", got)
	}
}

func checkSymlinks(t *testing.T, fs storage.FS, root storage.Node, f Features) {
	file := mustCreate(t, root, "target")
	mustWrite(t, file, []byte("data"), 0)

	link, err := root.Symlink("ln", "target", 0, 0)
	if err != nil {
		t.Fatalf("symlink: %v", err)
	}
	if !link.IsSymlink() || link.IsDir() {
		t.Error("symlink reports wrong type")
	}
	got, err := link.Readlink()
	if err != nil || got != "target" {
		t.Errorf("readlink: %q, %v", got, err)
	}
	// Dangling symlinks are fine at this layer — the target is a string.
	d, err := root.Symlink("dangling", "/no/such/path", 0, 0)
	if err != nil {
		t.Fatalf("dangling symlink: %v", err)
	}
	if got, err := d.Readlink(); err != nil || got != "/no/such/path" {
		t.Errorf("dangling readlink: %q, %v", got, err)
	}
	// Readlink on a regular file fails.
	if _, err := file.Readlink(); !errors.Is(err, fserr.ErrInvalid) {
		t.Errorf("readlink on file: %v, want ErrInvalid", err)
	}
	// A symlink occupies its name.
	if _, err := root.Create("ln", 0o644, 0, 0); !errors.Is(err, fserr.ErrExists) {
		t.Errorf("create over symlink: %v, want ErrExists", err)
	}
}

func checkHardLinks(t *testing.T, fs storage.FS, root storage.Node, f Features) {
	dir := mustMkdir(t, root, "d")
	file := mustCreate(t, root, "a")
	mustWrite(t, file, []byte("shared"), 0)

	if err := dir.Link(file, "b"); err != nil {
		t.Fatalf("link: %v", err)
	}
	b, err := dir.Lookup("b")
	if err != nil {
		t.Fatalf("lookup link: %v", err)
	}
	if b.ID() != file.ID() {
		t.Errorf("link has ID %d, target has %d", b.ID(), file.ID())
	}
	if b.Stat().Ino != file.Stat().Ino {
		t.Errorf("link ino %d != target ino %d", b.Stat().Ino, file.Stat().Ino)
	}
	if nl := file.Stat().Nlink; nl != 2 {
		t.Errorf("nlink after link: %d, want 2", nl)
	}
	// Writes through either name are visible through the other.
	mustWrite(t, b, []byte("SHARED"), 0)
	if got := readAll(t, file); string(got) != "SHARED" {
		t.Errorf("write via link not visible via target: %q", got)
	}
	// Unlinking one name leaves the other intact.
	if err := root.Unlink("a"); err != nil {
		t.Fatalf("unlink a: %v", err)
	}
	if nl := b.Stat().Nlink; nl != 1 {
		t.Errorf("nlink after unlink: %d, want 1", nl)
	}
	if got := readAll(t, b); string(got) != "SHARED" {
		t.Errorf("content lost after unlinking sibling: %q", got)
	}
	// Directories cannot be hard-linked.
	sub := mustMkdir(t, root, "sub")
	if err := root.Link(sub, "sub2"); err == nil {
		t.Error("link of a directory succeeded")
	}
	// Linking over an existing name fails.
	mustCreate(t, root, "occupied")
	if err := root.Link(b, "occupied"); !errors.Is(err, fserr.ErrExists) {
		t.Errorf("link over existing name: %v, want ErrExists", err)
	}
}

// checkCase: "File" and "file" are distinct names.
func checkCase(t *testing.T, fs storage.FS, root storage.Node, f Features) {
	mustCreate(t, root, "File")
	if _, err := root.Lookup("file"); !errors.Is(err, fserr.ErrNotFound) {
		t.Errorf("case-sensitive lookup folded: %v", err)
	}
	if _, err := root.Create("file", 0o644, 0, 0); err != nil {
		t.Errorf("case-sensitive create of lowercase twin: %v", err)
	}
	ents, err := root.ReadDir()
	if err != nil {
		t.Fatalf("readdir: %v", err)
	}
	if len(ents) != 2 {
		t.Errorf("expected 2 entries, got %d", len(ents))
	}
}

func checkMaxName(t *testing.T, fs storage.FS, root storage.Node, f Features) {
	ok := strings.Repeat("n", f.MaxNameLen)
	if _, err := root.Create(ok, 0o644, 0, 0); err != nil {
		t.Fatalf("create name of max length %d: %v", f.MaxNameLen, err)
	}
	long := strings.Repeat("n", f.MaxNameLen+1)
	if _, err := root.Create(long, 0o644, 0, 0); !errors.Is(err, fserr.ErrNameTooLong) {
		t.Errorf("create overlong name: %v, want ErrNameTooLong", err)
	}
	if _, err := root.Mkdir(long, 0o755, 0, 0); !errors.Is(err, fserr.ErrNameTooLong) {
		t.Errorf("mkdir overlong name: %v, want ErrNameTooLong", err)
	}
}

func checkSparse(t *testing.T, fs storage.FS, root storage.Node, f Features) {
	file := mustCreate(t, root, "sparse")
	var before storage.StatfsInfo
	if f.Accounting {
		before = fs.Statfs()
	}

	const holeEnd = 1 << 20 // 1 MiB hole
	tail := fill(storage.PageSize, 5)
	mustWrite(t, file, tail, holeEnd)
	if got := file.Stat().Size; got != holeEnd+storage.PageSize {
		t.Fatalf("sparse size: %d", got)
	}
	// The hole reads back as zeros.
	buf := make([]byte, 8192)
	if nr, err := file.ReadAt(buf, holeEnd/2); err != nil || nr != len(buf) {
		t.Fatalf("hole read: n=%d err=%v", nr, err)
	}
	if !bytes.Equal(buf, make([]byte, len(buf))) {
		t.Error("hole is not zero")
	}
	got := make([]byte, storage.PageSize)
	if nr, err := file.ReadAt(got, holeEnd); err != nil || nr != storage.PageSize {
		t.Fatalf("tail read: n=%d err=%v", nr, err)
	}
	if !bytes.Equal(got, tail) {
		t.Error("tail mismatch")
	}
	if f.Accounting {
		after := fs.Statfs()
		used := before.BlocksFree - after.BlocksFree
		// One data page plus bounded metadata — far below the 256 full
		// pages a dense layout would charge.
		if used > 16 {
			t.Errorf("sparse file consumed %d blocks, expected only the touched page", used)
		}
	}
	// Truncating into the hole and back keeps it zero.
	if err := file.Truncate(holeEnd / 2); err != nil {
		t.Fatalf("truncate into hole: %v", err)
	}
	if err := file.Truncate(holeEnd); err != nil {
		t.Fatalf("truncate back: %v", err)
	}
	if nr, err := file.ReadAt(buf, holeEnd-int64(len(buf))); err != nil || nr != len(buf) {
		t.Fatalf("re-read: n=%d err=%v", nr, err)
	}
	if !bytes.Equal(buf, make([]byte, len(buf))) {
		t.Error("hole dirty after truncate cycle")
	}
}

func checkAccounting(t *testing.T, fs storage.FS, root storage.Node, f Features) {
	s0 := fs.Statfs()
	if s0.BlockSize <= 0 || s0.Blocks == 0 {
		t.Fatalf("statfs geometry: %+v", s0)
	}

	file := mustCreate(t, root, "acct")
	s1 := fs.Statfs()
	if s1.InodesFree >= s0.InodesFree {
		t.Errorf("inode allocation not accounted: %d -> %d", s0.InodesFree, s1.InodesFree)
	}

	const pages = 8
	mustWrite(t, file, fill(pages*storage.PageSize, 1), 0)
	s2 := fs.Statfs()
	used := s1.BlocksFree - s2.BlocksFree
	if used < pages {
		t.Errorf("wrote %d pages but only %d blocks accounted", pages, used)
	}

	if err := root.Unlink("acct"); err != nil {
		t.Fatalf("unlink: %v", err)
	}
	s3 := fs.Statfs()
	if s3.BlocksFree < s2.BlocksFree+pages {
		t.Errorf("blocks not released on unlink: %d -> %d", s2.BlocksFree, s3.BlocksFree)
	}
	if s3.InodesFree != s0.InodesFree {
		t.Errorf("inode not released on unlink: %d, want %d", s3.InodesFree, s0.InodesFree)
	}
}

func checkQuota(t *testing.T, fs storage.FS, root storage.Node, f Features) {
	if !f.Quota {
		if _, err := fs.QuotaReport(); !errors.Is(err, fserr.ErrNotSupported) {
			t.Errorf("QuotaReport on non-quota backend: %v, want ErrNotSupported", err)
		}
		return
	}
	n, err := root.Create("mine", 0o644, 42, 42)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	mustWrite(t, n, fill(2*storage.PageSize, 9), 0)
	if _, err := root.Create("other", 0o644, 43, 43); err != nil {
		t.Fatalf("create other: %v", err)
	}

	report, err := fs.QuotaReport()
	if err != nil {
		t.Fatalf("quota report: %v", err)
	}
	byUID := make(map[uint32]storage.QuotaUsage, len(report))
	for _, u := range report {
		byUID[u.UID] = u
	}
	u42, ok := byUID[42]
	if !ok {
		t.Fatalf("uid 42 missing from report %+v", report)
	}
	if u42.Inodes < 1 || u42.Blocks < 2 {
		t.Errorf("uid 42 usage: %+v, want >=1 inode / >=2 blocks", u42)
	}
	if u43, ok := byUID[43]; !ok || u43.Inodes < 1 {
		t.Errorf("uid 43 usage: %+v", u43)
	}
	// Chown moves usage between uids.
	if err := n.Chown(43, 43); err != nil {
		t.Fatalf("chown: %v", err)
	}
	report, err = fs.QuotaReport()
	if err != nil {
		t.Fatalf("quota report 2: %v", err)
	}
	for _, u := range report {
		if u.UID == 42 && u.Blocks >= 2 {
			t.Errorf("blocks did not follow chown: %+v", u)
		}
	}
}

// --- model check --------------------------------------------------------

// checkModel replays a deterministic random op sequence against both
// the backend and the in-memory reference, demanding the same
// success/failure outcome per op and identical trees at every
// checkpoint.
func checkModel(t *testing.T, fs storage.FS, dir storage.Node, f Features) {
	ref := storage.NewMemFS(storage.MemOptions{})
	rng := rand.New(rand.NewSource(0xC0FFEE))
	ops := opCount()
	refRoot := MustRoot(t, ref)

	for i := 0; i < ops; i++ {
		op := RandomOp(rng, f)
		errRef := op.Apply(refRoot)
		errGot := op.Apply(dir)
		if (errRef == nil) != (errGot == nil) {
			t.Fatalf("op %d %s: reference err=%v, backend err=%v", i, op, errRef, errGot)
		}
		if i%50 == 49 {
			CompareTrees(t, refRoot, dir, fmt.Sprintf("after op %d", i))
			if t.Failed() {
				t.FailNow()
			}
		}
	}
	CompareTrees(t, refRoot, dir, "final")
}

// ModelOp is one random mutation, replayable against any FS.
type ModelOp struct {
	kind    string
	dir     string // path of the directory operated on, relative to scratch
	name    string
	dstDir  string
	dstName string
	data    []byte
	off     int64
	size    int64
}

func (o ModelOp) String() string {
	return fmt.Sprintf("%s %s/%s -> %s/%s", o.kind, o.dir, o.name, o.dstDir, o.dstName)
}

// walkFrom resolves a /-separated path from base (no symlink
// following — the model only places dirs on the path).
func walkFrom(base storage.Node, path string) (storage.Node, error) {
	n := base
	if path == "/" {
		return n, nil
	}
	for _, part := range strings.Split(strings.TrimPrefix(path, "/"), "/") {
		child, err := n.Lookup(part)
		if err != nil {
			return nil, err
		}
		if !child.IsDir() {
			return nil, fserr.ErrNotDir
		}
		n = child
	}
	return n, nil
}

func (o ModelOp) Apply(base storage.Node) error {
	dir, err := walkFrom(base, o.dir)
	if err != nil {
		return err
	}
	switch o.kind {
	case "create":
		_, err := dir.Create(o.name, 0o644, 0, 0)
		return err
	case "mkdir":
		_, err := dir.Mkdir(o.name, 0o755, 0, 0)
		return err
	case "symlink":
		_, err := dir.Symlink(o.name, o.dstName, 0, 0)
		return err
	case "write":
		n, err := dir.Lookup(o.name)
		if err != nil {
			return err
		}
		// Data ops target regular files only; type quirks for symlink
		// bodies vary by backend and are out of model.
		if n.IsDir() || n.IsSymlink() {
			return fserr.ErrInvalid
		}
		_, err = n.WriteAt(o.data, o.off)
		return err
	case "truncate":
		n, err := dir.Lookup(o.name)
		if err != nil {
			return err
		}
		if n.IsDir() || n.IsSymlink() {
			return fserr.ErrInvalid
		}
		return n.Truncate(o.size)
	case "unlink":
		return dir.Unlink(o.name)
	case "rmdir":
		return dir.Rmdir(o.name)
	case "rename":
		dst, err := walkFrom(base, o.dstDir)
		if err != nil {
			return err
		}
		return dir.Rename(o.name, dst, o.dstName)
	case "link":
		src, err := dir.Lookup(o.name)
		if err != nil {
			return err
		}
		if src.IsDir() || src.IsSymlink() {
			return fserr.ErrPerm
		}
		dst, err := walkFrom(base, o.dstDir)
		if err != nil {
			return err
		}
		return dst.Link(src, o.dstName)
	}
	panic("unknown op " + o.kind)
}

var modelNames = []string{"a", "b", "c", "dd", "ee", "ff", "g1", "g2", "h"}

// modelDirs are the candidate directories; ops targeting a dir that
// does not (yet) exist simply fail identically on both sides.
var modelDirs = []string{"/", "/dd", "/ee", "/dd/ff", "/dd/ee"}

func RandomOp(rng *rand.Rand, f Features) ModelOp {
	kinds := []string{"create", "mkdir", "write", "write", "truncate", "unlink", "rmdir", "rename", "rename"}
	if f.Symlinks {
		kinds = append(kinds, "symlink")
	}
	if f.HardLinks {
		kinds = append(kinds, "link")
	}
	o := ModelOp{
		kind:    kinds[rng.Intn(len(kinds))],
		dir:     modelDirs[rng.Intn(len(modelDirs))],
		name:    modelNames[rng.Intn(len(modelNames))],
		dstDir:  modelDirs[rng.Intn(len(modelDirs))],
		dstName: modelNames[rng.Intn(len(modelNames))],
	}
	switch o.kind {
	case "write":
		n := 1 + rng.Intn(3*storage.PageSize)
		o.data = fill(n, byte(rng.Intn(256)))
		o.off = int64(rng.Intn(2 * storage.PageSize))
	case "truncate":
		o.size = int64(rng.Intn(4 * storage.PageSize))
	}
	return o
}

// describe flattens a subtree into path -> descriptor strings; two
// equivalent trees describe identically. Inode numbers and times are
// backend-private and excluded.
func describe(t *testing.T, base storage.Node) map[string]string {
	t.Helper()
	out := make(map[string]string)
	var walk func(n storage.Node, path string)
	walk = func(n storage.Node, path string) {
		ents, err := n.ReadDir()
		if err != nil {
			t.Fatalf("describe readdir %s: %v", path, err)
		}
		for _, e := range ents {
			child, err := n.Lookup(e.Name)
			if err != nil {
				t.Fatalf("describe lookup %s/%s: %v", path, e.Name, err)
			}
			p := path + "/" + e.Name
			switch {
			case child.IsDir():
				out[p] = "dir"
				walk(child, p)
			case child.IsSymlink():
				target, err := child.Readlink()
				if err != nil {
					t.Fatalf("describe readlink %s: %v", p, err)
				}
				out[p] = "symlink:" + target
			default:
				st := child.Stat()
				buf := make([]byte, st.Size)
				if _, err := child.ReadAt(buf, 0); err != nil {
					t.Fatalf("describe read %s: %v", p, err)
				}
				out[p] = fmt.Sprintf("file:%d:%x", st.Size, uint64(faults.NewDigest().Bytes(buf)))
			}
		}
	}
	walk(base, "")
	return out
}

func CompareTrees(t *testing.T, ref, got storage.Node, when string) {
	t.Helper()
	want := describe(t, ref)
	have := describe(t, got)
	for p, d := range want {
		if have[p] != d {
			t.Errorf("%s: %s: reference %q, backend %q", when, p, d, have[p])
		}
	}
	for p, d := range have {
		if _, ok := want[p]; !ok {
			t.Errorf("%s: %s: backend has extra entry %q", when, p, d)
		}
	}
}

// --- remount ------------------------------------------------------------

func checkRemount(t *testing.T, b Backend) {
	fs, err := b.Open()
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	root, err := MustRoot(t, fs).Mkdir(scratchDir, 0o755, 0, 0)
	if err != nil {
		t.Fatalf("mkdir scratch: %v", err)
	}
	dir := mustMkdir(t, root, "persisted")
	file := mustCreate(t, dir, "data")
	payload := fill(3*storage.PageSize+100, 21)
	mustWrite(t, file, payload, 0)
	if b.Features.Symlinks {
		if _, err := root.Symlink("ln", "persisted/data", 0, 0); err != nil {
			t.Fatalf("symlink: %v", err)
		}
	}
	before := describe(t, root)

	if err := fs.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	remounted := fs
	if b.Remount != nil {
		remounted, err = b.Remount(fs)
		if err != nil {
			t.Fatalf("remount: %v", err)
		}
	}
	reroot, err := MustRoot(t, remounted).Lookup(scratchDir)
	if err != nil {
		t.Fatalf("scratch lost across remount: %v", err)
	}
	after := describe(t, reroot)
	if len(after) != len(before) {
		t.Errorf("entry count changed across remount: %d -> %d", len(before), len(after))
	}
	for p, d := range before {
		if after[p] != d {
			t.Errorf("remount lost %s: %q -> %q", p, d, after[p])
		}
	}
	// Content survives byte-for-byte, not just by digest.
	pd, err := reroot.Lookup("persisted")
	if err != nil {
		t.Fatalf("lookup persisted after remount: %v", err)
	}
	n, err := pd.Lookup("data")
	if err != nil {
		t.Fatalf("lookup data after remount: %v", err)
	}
	if got := readAll(t, n); !bytes.Equal(got, payload) {
		t.Error("payload mismatch after remount")
	}
}
