package storage_test

import (
	"bytes"
	"testing"

	"vmsh/internal/simplefs"
	"vmsh/internal/storage"
	"vmsh/internal/storage/conformance"
)

// casFS formats a content-addressed store and mounts simplefs on it:
// the filesystem over a CasBlock.
func casFS(t *testing.T) (*storage.CasBlock, *simplefs.FS) {
	t.Helper()
	dev := storage.NewCasBlock(4 << 20)
	if err := simplefs.Mkfs(dev, simplefs.MkfsOptions{}); err != nil {
		t.Fatal(err)
	}
	fs, err := simplefs.Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	return dev, fs
}

// saved is the number of logical pages a store holds beyond its
// physical ones.
func saved(st storage.DedupStats) int64 {
	return int64(st.LogicalPages) - int64(st.PhysicalPages)
}

// TestCasFSDedup writes the same page to ten files of a filesystem on
// a content-addressed store: the ten data blocks share one physical
// page, a file with other content gets its own, and the filesystem
// still charges every file its block.
func TestCasFSDedup(t *testing.T) {
	dev, fs := casFS(t)
	root := conformance.MustRoot(t, fs)
	page := bytes.Repeat([]byte{0xAA}, storage.PageSize)

	before := dev.DedupStats()
	for i := 0; i < 10; i++ {
		writeFile(t, root, string(rune('a'+i)), page)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	after := dev.DedupStats()
	if got := after.SharedWrites - before.SharedWrites; got != 9 {
		t.Errorf("shared writes: %d, want 9", got)
	}
	if got := saved(after) - saved(before); got != 9 {
		t.Errorf("pages saved by dedup: %d, want 9 (before %+v, after %+v)", got, before, after)
	}

	// Logical accounting is unaffected by dedup: a one-page file costs
	// one block, and its unique page is stored on its own.
	free := fs.Statfs().BlocksFree
	before = after
	writeFile(t, root, "unique", bytes.Repeat([]byte{0xBB}, storage.PageSize))
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := fs.Statfs().BlocksFree; got != free-1 {
		t.Errorf("logical accounting moved by %d, want 1", free-got)
	}
	after = dev.DedupStats()
	if after.SharedWrites != before.SharedWrites || saved(after) != saved(before) {
		t.Errorf("unique page shared: before %+v, after %+v", before, after)
	}

	// Every sharer still reads its content.
	for i := 0; i < 10; i++ {
		if got := slurp(t, root, string(rune('a'+i))); got != string(page) {
			t.Errorf("file %c: content mismatch", 'a'+i)
		}
	}
}

// TestCasFSRewriteSameContent rewrites a file's page with the same
// content: the store keeps its pages and references, and the content
// survives a remount.
func TestCasFSRewriteSameContent(t *testing.T) {
	dev, fs := casFS(t)
	root := conformance.MustRoot(t, fs)
	page := bytes.Repeat([]byte{7}, storage.PageSize)
	writeFile(t, root, "f", page)
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	first := dev.DedupStats()

	n, err := root.Lookup("f")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := n.WriteAt(page, 0); err != nil {
			t.Fatalf("rewrite: %v", err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := dev.DedupStats(); st != first {
		t.Errorf("same-content rewrites: %+v, want %+v", st, first)
	}

	again, err := simplefs.Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	if got := slurp(t, conformance.MustRoot(t, again), "f"); got != string(page) {
		t.Error("content mismatch after remount")
	}
}
