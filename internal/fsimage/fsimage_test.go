package fsimage

import (
	"testing"

	"vmsh/internal/simplefs"
	"vmsh/internal/storage"
)

type memDevice struct{ data []byte }

func (m *memDevice) ReadAt(off int64, buf []byte) error  { copy(buf, m.data[off:]); return nil }
func (m *memDevice) WriteAt(off int64, buf []byte) error { copy(m.data[off:], buf); return nil }
func (m *memDevice) Flush() error                        { return nil }
func (m *memDevice) Size() int64                         { return int64(len(m.data)) }
func (m *memDevice) SupportsFUA() bool                   { return true }

var _ storage.BlockBackend = (*memDevice)(nil)

func TestBuildAndReadBack(t *testing.T) {
	dev := &memDevice{data: make([]byte, 32<<20)}
	m := Manifest{
		"/etc/hostname":         {Data: []byte("host\n")},
		"/bin/tool":             {Mode: 0o755, Data: []byte("\x7fELFtool")},
		"/deep/nested/dir/file": {Data: []byte("deep")},
		"/bin/alias":            {Symlink: "tool"},
		"/owned":                {UID: 42, GID: 43, Data: []byte("o")},
	}
	if err := Build(dev, m); err != nil {
		t.Fatal(err)
	}
	fs, err := simplefs.Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	root, _ := fs.Root()
	etc, err := root.Lookup("etc")
	if err != nil {
		t.Fatal(err)
	}
	hn, err := etc.Lookup("hostname")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := hn.ReadAt(buf, 0); err != nil || string(buf) != "host\n" {
		t.Fatalf("%q %v", buf, err)
	}
	bin, _ := root.Lookup("bin")
	tool, err := bin.Lookup("tool")
	if err != nil {
		t.Fatal(err)
	}
	if tool.Stat().Mode&storage.ModePermMask != 0o755 {
		t.Fatalf("mode %o", tool.Stat().Mode)
	}
	alias, err := bin.Lookup("alias")
	if err != nil {
		t.Fatal(err)
	}
	target, err := alias.Readlink()
	if err != nil || target != "tool" {
		t.Fatalf("%q %v", target, err)
	}
	owned, _ := root.Lookup("owned")
	if owned.Stat().UID != 42 || owned.Stat().GID != 43 {
		t.Fatal("ownership lost")
	}
	deep, err := root.Lookup("deep")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := deep.Lookup("nested"); err != nil {
		t.Fatal("intermediate dirs missing")
	}
}

func TestMergeOverrides(t *testing.T) {
	a := Manifest{"/x": {Data: []byte("a")}, "/only-a": {}}
	b := Manifest{"/x": {Data: []byte("b")}, "/only-b": {}}
	m := a.Merge(b)
	if string(m["/x"].Data) != "b" {
		t.Fatal("merge did not prefer other")
	}
	if _, ok := m["/only-a"]; !ok {
		t.Fatal("lost a-only entry")
	}
	if _, ok := m["/only-b"]; !ok {
		t.Fatal("lost b-only entry")
	}
	// Originals untouched.
	if string(a["/x"].Data) != "a" {
		t.Fatal("merge mutated receiver")
	}
}

func TestSizeAndPaths(t *testing.T) {
	m := Manifest{"/a": {Data: make([]byte, 100)}, "/b": {Data: make([]byte, 50)}}
	if m.Size() != 150 {
		t.Fatalf("size %d", m.Size())
	}
	paths := m.Paths()
	if len(paths) != 2 || paths[0] != "/a" || paths[1] != "/b" {
		t.Fatalf("paths %v", paths)
	}
}

func TestToolImageRunsEveryBuiltin(t *testing.T) {
	m := ToolImage()
	for _, tool := range []string{"sh", "echo", "cat", "chpasswd", "apk-list", "sha256sum"} {
		if _, ok := m["/bin/"+tool]; !ok {
			t.Fatalf("tool image missing %s", tool)
		}
	}
}

func TestGuestRootHasUseCaseInputs(t *testing.T) {
	m := GuestRoot("h")
	if _, ok := m["/etc/shadow"]; !ok {
		t.Fatal("no shadow file for the rescue use case")
	}
	if _, ok := m["/lib/apk/db/installed"]; !ok {
		t.Fatal("no apk db for the scanner use case")
	}
}
