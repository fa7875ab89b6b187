package storage_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"vmsh/internal/simplefs"
	"vmsh/internal/storage"
	"vmsh/internal/storage/conformance"
)

// TestCowStackProperty stacks copy-on-write block stores up to four
// deep over a formatted device. Each layer gets a random batch of
// namespace and data ops, hard links and symlinks included, through a
// simplefs mount on the top store, mirrored on the in-memory
// reference. After every layer the mount must show the reference tree,
// the union of all layers' writes. Then a fresh CowBlock goes on top,
// and every store below it must keep exactly the bytes it had when the
// next one went on top.
func TestCowStackProperty(t *testing.T) {
	const opsPerLayer = 200
	feats := conformance.Features{HardLinks: true, Symlinks: true}

	for depth := 1; depth <= 4; depth++ {
		depth := depth
		t.Run(fmt.Sprintf("depth-%d", depth), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(0xBEEF + depth)))
			ref := storage.NewMemFS(storage.MemOptions{})
			var top storage.BlockBackend = storage.NewMemBlock(4 << 20)
			if err := simplefs.Mkfs(top, simplefs.MkfsOptions{}); err != nil {
				t.Fatal(err)
			}
			var lower []storage.BlockBackend
			var frozen [][]byte // lower[i]'s bytes when the next store went on top

			for layer := 0; layer < depth; layer++ {
				lower = append(lower, top)
				frozen = append(frozen, image(t, top))
				top = storage.NewCowBlock(top)
				fs, err := simplefs.Mount(top)
				if err != nil {
					t.Fatalf("layer %d: mount: %v", layer, err)
				}
				for i := 0; i < opsPerLayer; i++ {
					op := conformance.RandomOp(rng, feats)
					errRef := op.Apply(conformance.MustRoot(t, ref))
					errCow := op.Apply(conformance.MustRoot(t, fs))
					if (errRef == nil) != (errCow == nil) {
						t.Fatalf("layer %d op %d %s: reference err=%v, cow err=%v",
							layer, i, op, errRef, errCow)
					}
				}
				if err := fs.Sync(); err != nil {
					t.Fatalf("layer %d: sync: %v", layer, err)
				}
				conformance.CompareTrees(t, conformance.MustRoot(t, ref), conformance.MustRoot(t, fs),
					fmt.Sprintf("depth %d layer %d", depth, layer))
				for i, dev := range lower {
					if !bytes.Equal(image(t, dev), frozen[i]) {
						t.Errorf("depth %d layer %d: store %d below the top changed", depth, layer, i)
					}
				}
				if t.Failed() {
					t.FailNow()
				}
			}
		})
	}
}

// TestStackUnionView pins what a CowBlock stack shows a filesystem
// mounted on its top: a later layer's write shadows an earlier one's,
// a deletion through the top hides a lower layer's file, and the
// stores below the top are never written.
func TestStackUnionView(t *testing.T) {
	l0 := storage.NewMemBlock(4 << 20)
	if err := simplefs.Mkfs(l0, simplefs.MkfsOptions{}); err != nil {
		t.Fatal(err)
	}
	mountSynced(t, l0, func(root storage.Node) {
		writeFile(t, root, "shared", []byte("from-l0"))
		writeFile(t, root, "only-l0", []byte("zero"))
	})
	l1 := storage.NewCowBlock(l0)
	mountSynced(t, l1, func(root storage.Node) {
		writeFile(t, root, "shared", []byte("from-l1"))
		writeFile(t, root, "only-l1", []byte("one"))
	})
	frozen0, frozen1 := image(t, l0), image(t, l1)

	top := storage.NewCowBlock(l1)
	fs, err := simplefs.Mount(top)
	if err != nil {
		t.Fatal(err)
	}
	root := conformance.MustRoot(t, fs)

	// The later layer wins for the shared name.
	for name, want := range map[string]string{"shared": "from-l1", "only-l0": "zero", "only-l1": "one"} {
		if got := slurp(t, root, name); got != want {
			t.Errorf("%s: %q, want %q", name, got, want)
		}
	}

	// Deleting and rewriting through the top never touches the layers.
	if err := root.Unlink("only-l0"); err != nil {
		t.Fatalf("unlink: %v", err)
	}
	if _, err := root.Create("shared", 0o644, 0, 0); err == nil {
		t.Fatal("create over an existing lower-layer file succeeded")
	}
	writeFile(t, root, "shared", []byte("rewritten"))
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(image(t, l0), frozen0) {
		t.Error("layer 0 written through the stack")
	}
	if !bytes.Equal(image(t, l1), frozen1) {
		t.Error("layer 1 written through the stack")
	}
	if got := slurp(t, root, "shared"); got != "rewritten" {
		t.Errorf("shared after rewrite: %q", got)
	}
	if _, err := root.Lookup("only-l0"); err == nil {
		t.Error("deletion through the top did not hide the lower file")
	}

	// Each layer, viewed through a fresh store of its own, still shows
	// what it held.
	view := func(dev storage.BlockBackend) storage.Node {
		fs, err := simplefs.Mount(storage.NewCowBlock(dev))
		if err != nil {
			t.Fatal(err)
		}
		return conformance.MustRoot(t, fs)
	}
	if got := slurp(t, view(l1), "shared"); got != "from-l1" {
		t.Errorf("layer 1 shared: %q", got)
	}
	if got := slurp(t, view(l0), "shared"); got != "from-l0" {
		t.Errorf("layer 0 shared: %q", got)
	}
	if got := slurp(t, view(l0), "only-l0"); got != "zero" {
		t.Errorf("layer 0 only-l0: %q", got)
	}
}

// mountSynced mounts simplefs on dev, lets fill write through its
// root and syncs.
func mountSynced(t *testing.T, dev storage.BlockBackend, fill func(root storage.Node)) {
	t.Helper()
	fs, err := simplefs.Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	fill(conformance.MustRoot(t, fs))
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
}

// writeFile writes data at the start of dir's file name, creating the
// file if it is missing.
func writeFile(t *testing.T, dir storage.Node, name string, data []byte) {
	t.Helper()
	n, err := dir.Lookup(name)
	if err != nil {
		if n, err = dir.Create(name, 0o644, 0, 0); err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
	}
	if _, err := n.WriteAt(data, 0); err != nil {
		t.Fatalf("write %s: %v", name, err)
	}
}

// slurp reads the whole of dir's file name.
func slurp(t *testing.T, dir storage.Node, name string) string {
	t.Helper()
	n, err := dir.Lookup(name)
	if err != nil {
		t.Fatalf("lookup %s: %v", name, err)
	}
	buf := make([]byte, n.Stat().Size)
	if _, err := n.ReadAt(buf, 0); err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	return string(buf)
}

// image reads a store's whole content.
func image(t *testing.T, dev storage.BlockBackend) []byte {
	t.Helper()
	b := make([]byte, dev.Size())
	if err := dev.ReadAt(0, b); err != nil {
		t.Fatal(err)
	}
	return b
}
