// Package fsimage builds simplefs filesystem images from declarative
// manifests — the guest root images hypervisors boot from and the tool
// images VMSH attaches (§2.3, §6.4).
package fsimage

import (
	"fmt"
	"sort"
	"strings"

	"vmsh/internal/simplefs"
	"vmsh/internal/storage"
)

// Entry is one manifest item. Directories are implied by paths.
type Entry struct {
	Mode    uint32 // permission bits; 0 defaults to 0644 (files) / 0755
	UID     uint32
	GID     uint32
	Data    []byte
	Symlink string // non-empty: a symlink with this target
}

// Manifest maps absolute paths to entries.
type Manifest map[string]Entry

// Merge overlays other onto a copy of m (other wins on conflicts).
func (m Manifest) Merge(other Manifest) Manifest {
	out := make(Manifest, len(m)+len(other))
	for p, e := range m {
		out[p] = e
	}
	for p, e := range other {
		out[p] = e
	}
	return out
}

// Size sums the data payload of every entry.
func (m Manifest) Size() int64 {
	var total int64
	for _, e := range m {
		total += int64(len(e.Data))
	}
	return total
}

// Paths returns the sorted path list.
func (m Manifest) Paths() []string {
	out := make([]string, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Build formats dev with simplefs and populates it from the manifest.
func Build(dev storage.BlockBackend, m Manifest) error {
	if err := simplefs.Mkfs(dev, simplefs.MkfsOptions{}); err != nil {
		return err
	}
	fs, err := simplefs.Mount(dev)
	if err != nil {
		return err
	}
	root, err := fs.Root()
	if err != nil {
		return err
	}
	for _, path := range m.Paths() {
		e := m[path]
		dir, err := mkdirs(root, parentOf(path))
		if err != nil {
			return fmt.Errorf("fsimage %s: %w", path, err)
		}
		name := baseOf(path)
		switch {
		case e.Symlink != "":
			if _, err := dir.Symlink(name, e.Symlink, e.UID, e.GID); err != nil {
				return fmt.Errorf("fsimage %s: %w", path, err)
			}
		default:
			mode := e.Mode
			if mode == 0 {
				mode = 0o644
			}
			f, err := dir.Create(name, mode, e.UID, e.GID)
			if err != nil {
				return fmt.Errorf("fsimage %s: %w", path, err)
			}
			if len(e.Data) > 0 {
				if _, err := f.WriteAt(e.Data, 0); err != nil {
					return fmt.Errorf("fsimage %s: %w", path, err)
				}
			}
		}
	}
	return fs.Sync()
}

func parentOf(p string) string {
	idx := strings.LastIndex(p, "/")
	if idx <= 0 {
		return "/"
	}
	return p[:idx]
}

func baseOf(p string) string {
	idx := strings.LastIndex(p, "/")
	return p[idx+1:]
}

func mkdirs(root storage.Node, path string) (storage.Node, error) {
	node := root
	for _, part := range strings.Split(strings.Trim(path, "/"), "/") {
		if part == "" {
			continue
		}
		child, err := node.Lookup(part)
		switch {
		case err == nil:
			node = child
		default:
			child, err = node.Mkdir(part, 0o755, 0, 0)
			if err != nil {
				return nil, err
			}
			node = child
		}
	}
	return node, nil
}

// binStub fabricates executable content of a plausible size.
func binStub(name string, size int) []byte {
	data := make([]byte, size)
	copy(data, "\x7fELF")
	copy(data[8:], name)
	return data
}

// ToolImage returns the standard VMSH tool image manifest: the shell
// and the debugging/administration utilities a de-bloated guest no
// longer carries.
func ToolImage() Manifest {
	m := Manifest{}
	tools := []string{
		"echo", "cat", "ls", "ps", "mount", "touch", "rm", "mkdir",
		"pwd", "cd", "id", "uname", "df", "sync", "hostname", "dmesg",
		"sha256sum", "chpasswd", "apk-list",
		"ifconfig", "ping", "iperf",
	}
	for _, t := range tools {
		m["/bin/"+t] = Entry{Mode: 0o755, Data: binStub(t, 24*1024)}
	}
	m["/bin/sh"] = Entry{Mode: 0o755, Data: binStub("sh", 96*1024)}
	m["/etc/profile"] = Entry{Data: []byte("export PS1='vmsh# '\n")}
	return m
}

// GuestRoot returns a minimal guest root: the pre-baked lightweight VM
// image with only what the application needs.
func GuestRoot(hostname string) Manifest {
	return Manifest{
		"/etc/hostname": {Data: []byte(hostname + "\n")},
		"/etc/passwd":   {Data: []byte("root:x:0:0:root:/root:/bin/sh\n"), Mode: 0o644},
		"/etc/shadow":   {Data: []byte("root:$6$old$deadbeef:19000:0:99999:7:::\n"), Mode: 0o600},
		"/lib/apk/db/installed": {Data: []byte(
			"musl 1.2.2-r3\nbusybox 1.33.1-r3\nopenssl 1.1.1l-r0\nzlib 1.2.11-r3\napk-tools 2.12.7-r0\n")},
		"/app/server": {Mode: 0o755, Data: binStub("server", 2<<20)},
	}
}
