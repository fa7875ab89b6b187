package storage_test

import (
	"fmt"
	"math/rand"
	"testing"

	"vmsh/internal/storage"
	"vmsh/internal/storage/conformance"
)

// TestCowStackProperty drives random create/write/unlink/rename/mkdir
// sequences against a copy-on-write stack and the plain in-memory
// reference. After every layer the two trees must be identical — the
// union view, whiteouts and copy-up must be invisible to a POSIX
// observer at any stacking depth.
//
// Hard links are deliberately absent from the op mix: like kernel
// overlayfs without an inode index, lower-layer hard links break on
// copy-up, so the stack only promises POSIX link semantics for files
// created after the top layer was mounted (which the conformance
// hardlinks check covers).
func TestCowStackProperty(t *testing.T) {
	// create/mkdir/write/truncate/unlink/rmdir/rename only.
	feats := conformance.Features{CaseSensitive: true}
	const opsPerLayer = 200

	for depth := 1; depth <= 4; depth++ {
		depth := depth
		t.Run(fmt.Sprintf("depth-%d", depth), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(0xBEEF + depth)))
			ref := storage.NewMemFS(storage.MemOptions{})
			var cur storage.FS = cow(t, nil)

			for layer := 0; layer < depth; layer++ {
				for i := 0; i < opsPerLayer; i++ {
					op := conformance.RandomOp(rng, feats)
					errRef := op.Apply(conformance.MustRoot(t, ref))
					errCow := op.Apply(conformance.MustRoot(t, cur))
					if (errRef == nil) != (errCow == nil) {
						t.Fatalf("layer %d op %d %s: reference err=%v, cow err=%v",
							layer, i, op, errRef, errCow)
					}
				}
				conformance.CompareTrees(t, conformance.MustRoot(t, ref), conformance.MustRoot(t, cur),
					fmt.Sprintf("depth %d layer %d", depth, layer))
				if t.Failed() {
					t.FailNow()
				}
				if layer < depth-1 {
					// Freeze the written state as the next lower layer and
					// keep mutating through a fresh writable top.
					cur = cow(t, cur)
				}
			}
		})
	}
}

// TestStackUnionView pins the basic union semantics Stack promises:
// upper entries shadow lower ones, whiteouts hide lower files, and
// pre-stack layers are never written.
func TestStackUnionView(t *testing.T) {
	l0 := storage.NewMemFS(storage.MemOptions{})
	l1 := storage.NewMemFS(storage.MemOptions{})
	mkFile(t, l0, "shared", "from-l0")
	mkFile(t, l0, "only-l0", "zero")
	mkFile(t, l1, "shared", "from-l1")
	mkFile(t, l1, "only-l1", "one")
	l0.Seal()
	l1.Seal()

	st, err := storage.Stack(l0, l1)
	if err != nil {
		t.Fatal(err)
	}
	root := conformance.MustRoot(t, st)

	// Upper layer wins for the shared name.
	if got := slurp(t, root, "shared"); got != "from-l1" {
		t.Errorf("shared: %q, want from-l1", got)
	}
	if got := slurp(t, root, "only-l0"); got != "zero" {
		t.Errorf("only-l0: %q", got)
	}
	if got := slurp(t, root, "only-l1"); got != "one" {
		t.Errorf("only-l1: %q", got)
	}

	// Deleting and rewriting through the top never touches the layers.
	if err := root.Unlink("only-l0"); err != nil {
		t.Fatalf("unlink: %v", err)
	}
	n, err := root.Create("shared", 0o644, 0, 0)
	if err == nil {
		t.Fatal("create over existing union entry succeeded")
	}
	n, err = root.Lookup("shared")
	if err != nil {
		t.Fatalf("lookup shared: %v", err)
	}
	if _, err := n.WriteAt([]byte("rewritten"), 0); err != nil {
		t.Fatalf("write shared: %v", err)
	}

	if got := slurp(t, conformance.MustRoot(t, l1), "shared"); got != "from-l1" {
		t.Errorf("layer 1 mutated through the stack: %q", got)
	}
	if got := slurp(t, conformance.MustRoot(t, l0), "only-l0"); got != "zero" {
		t.Errorf("layer 0 mutated through the stack: %q", got)
	}
	if got := slurp(t, root, "shared"); got != "rewritten" {
		t.Errorf("copy-up content: %q", got)
	}
	if _, err := root.Lookup("only-l0"); err == nil {
		t.Error("whiteout did not hide lower file")
	}
}

func mkFile(t *testing.T, fs *storage.MemFS, name, content string) {
	t.Helper()
	n, err := conformance.MustRoot(t, fs).Create(name, 0o644, 0, 0)
	if err != nil {
		t.Fatalf("create %s: %v", name, err)
	}
	if _, err := n.WriteAt([]byte(content), 0); err != nil {
		t.Fatalf("write %s: %v", name, err)
	}
}

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

func cow(t *testing.T, lower storage.FS) *storage.CowFS {
	t.Helper()
	c, err := storage.NewCowFS(lower)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
