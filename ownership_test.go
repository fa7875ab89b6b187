package vmsh

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOnlyEngineSynchronises pins the ownership rule of DESIGN §12:
// all per-host state is single-owner, and the engine's worker pool,
// which gives each shard to one worker per window and orders the
// windows with a barrier, is the only code that synchronises. A
// non-test file outside internal/engine that imports sync or
// sync/atomic breaks the rule. Test files may synchronise, and the
// hostbench module, a harness with its own go.mod, is not scanned.
func TestOnlyEngineSynchronises(t *testing.T) {
	fset := token.NewFileSet()
	scanned := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // another module
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") ||
			strings.HasPrefix(filepath.ToSlash(path), "internal/engine/") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		scanned++
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "sync" || p == "sync/atomic" {
				t.Errorf("%s imports %s: only internal/engine may synchronise", path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if scanned < 100 {
		t.Fatalf("scanned %d files; the walk missed the module's packages", scanned)
	}
}
