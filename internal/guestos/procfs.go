package guestos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"vmsh/internal/fserr"
	"vmsh/internal/storage"
)

// procFS is the guest's /proc: synthetic, generated from live kernel
// state on every read. It is what gives a VMSH monitoring attachment
// its fine-grained view of guest OS metadata (§2.3): process lists,
// per-process credentials and cgroups, mounts, memory.
type procFS struct {
	k *Kernel
}

func newProcFS(k *Kernel) *procFS { return &procFS{k: k} }

// Root implements storage.FS.
func (p *procFS) Root() (storage.Node, error) { return &procDir{fs: p, kind: procRootDir}, nil }

// Sync implements storage.FS.
func (p *procFS) Sync() error { return nil }

// Type implements storage.FS.
func (p *procFS) Type() string { return "proc" }

// Statfs implements storage.FS.
func (p *procFS) Statfs() storage.StatfsInfo {
	return storage.StatfsInfo{BlockSize: 4096}
}

// QuotaReport implements storage.FS.
func (p *procFS) QuotaReport() ([]storage.QuotaUsage, error) {
	return nil, fserr.ErrNotSupported
}

// DirectOnly keeps procfs out of the page cache: its contents are
// regenerated from kernel state on every read.
func (p *procFS) DirectOnly() bool { return true }

const (
	procRootDir = iota
	procPidDir
)

// procDir is /proc itself or /proc/<pid>.
type procDir struct {
	fs   *procFS
	kind int
	pid  int
}

func (d *procDir) Stat() storage.FileInfo {
	return storage.FileInfo{Ino: uint32(1000 + d.pid), Mode: storage.ModeDir | 0o555, Nlink: 2}
}
func (d *procDir) IsDir() bool     { return true }
func (d *procDir) IsSymlink() bool { return false }

// rootFiles are the top-level synthetic files.
func (d *procDir) rootFiles() map[string]func() string {
	k := d.fs.k
	return map[string]func() string{
		"version": func() string {
			return fmt.Sprintf("Linux version %s.0 (vmsh-sim@host) #1 SMP %s\n", k.Version, k.Arch)
		},
		"uptime": func() string {
			sec := k.Clock().Now().Seconds()
			return fmt.Sprintf("%.2f %.2f\n", sec, sec)
		},
		"meminfo": func() string {
			totalKB := k.ramSize / 1024
			usedKB := k.physAlloc.Used() / 1024
			var b strings.Builder
			fmt.Fprintf(&b, "MemTotal:       %8d kB\n", totalKB)
			fmt.Fprintf(&b, "MemFree:        %8d kB\n", totalKB-usedKB)
			fmt.Fprintf(&b, "MemAvailable:   %8d kB\n", totalKB-usedKB)
			return b.String()
		},
		"mounts": func() string {
			var b strings.Builder
			for _, m := range k.InitProc.NS.Mounts() {
				fmt.Fprintf(&b, "%s %s rw 0 0\n", m.FS.Type(), m.Path)
			}
			return b.String()
		},
		"kallsyms": func() string {
			names := make([]string, 0, len(k.symbols))
			for name := range k.symbols {
				names = append(names, name)
			}
			sort.Strings(names)
			var b strings.Builder
			for _, name := range names {
				fmt.Fprintf(&b, "%016x T %s\n", uint64(k.symbols[name]), name)
			}
			return b.String()
		},
	}
}

// pidFiles are the per-process synthetic files.
func pidFiles(p *Proc) map[string]func() string {
	return map[string]func() string{
		"status": func() string {
			var b strings.Builder
			fmt.Fprintf(&b, "Name:\t%s\n", p.Comm)
			fmt.Fprintf(&b, "Pid:\t%d\n", p.PID)
			fmt.Fprintf(&b, "PPid:\t%d\n", p.PPID)
			fmt.Fprintf(&b, "Uid:\t%d\t%d\n", p.UID, p.UID)
			fmt.Fprintf(&b, "Gid:\t%d\t%d\n", p.GID, p.GID)
			fmt.Fprintf(&b, "Seccomp:\t%s\n", p.Seccomp)
			fmt.Fprintf(&b, "CapEff:\t%s\n", strings.Join(p.Caps, ","))
			return b.String()
		},
		"cgroup": func() string {
			return fmt.Sprintf("0::%s\n", p.Cgroup)
		},
		"comm": func() string { return p.Comm + "\n" },
		"attr-current": func() string {
			if p.AppArmor == "" {
				return "unconfined\n"
			}
			return p.AppArmor + " (enforce)\n"
		},
		"mountinfo": func() string {
			var b strings.Builder
			for i, m := range p.NS.Mounts() {
				fmt.Fprintf(&b, "%d %d 8:1 / %s rw - %s none rw\n", i+20, 1, m.Path, m.FS.Type())
			}
			return b.String()
		},
	}
}

func (d *procDir) Lookup(name string) (storage.Node, error) {
	switch d.kind {
	case procRootDir:
		if gen, ok := d.rootFiles()[name]; ok {
			return &procFile{name: name, gen: gen}, nil
		}
		if pid, err := strconv.Atoi(name); err == nil {
			if _, ok := d.fs.k.ProcByPID(pid); ok {
				return &procDir{fs: d.fs, kind: procPidDir, pid: pid}, nil
			}
		}
		return nil, fserr.ErrNotFound
	case procPidDir:
		p, ok := d.fs.k.ProcByPID(d.pid)
		if !ok {
			return nil, fserr.ErrNotFound
		}
		if gen, ok := pidFiles(p)[name]; ok {
			return &procFile{name: name, gen: gen}, nil
		}
		return nil, fserr.ErrNotFound
	}
	return nil, fserr.ErrNotFound
}

func (d *procDir) ReadDir() ([]storage.DirEntry, error) {
	var out []storage.DirEntry
	switch d.kind {
	case procRootDir:
		files := d.rootFiles()
		names := make([]string, 0, len(files))
		for n := range files {
			names = append(names, n)
		}
		sort.Strings(names)
		for i, n := range names {
			out = append(out, storage.DirEntry{Ino: uint32(i + 2), Type: storage.ModeFile, Name: n})
		}
		for _, p := range d.fs.k.Procs() {
			out = append(out, storage.DirEntry{
				Ino: uint32(1000 + p.PID), Type: storage.ModeDir,
				Name: strconv.Itoa(p.PID)})
		}
	case procPidDir:
		p, ok := d.fs.k.ProcByPID(d.pid)
		if !ok {
			return nil, fserr.ErrNotFound
		}
		names := make([]string, 0, 5)
		for n := range pidFiles(p) {
			names = append(names, n)
		}
		sort.Strings(names)
		for i, n := range names {
			out = append(out, storage.DirEntry{Ino: uint32(i + 2), Type: storage.ModeFile, Name: n})
		}
	}
	return out, nil
}

// procfs is read-only; mutating operations fail.
func (d *procDir) Create(string, uint32, uint32, uint32) (storage.Node, error) {
	return nil, fserr.ErrReadOnly
}
func (d *procDir) Mkdir(string, uint32, uint32, uint32) (storage.Node, error) {
	return nil, fserr.ErrReadOnly
}
func (d *procDir) Symlink(string, string, uint32, uint32) (storage.Node, error) {
	return nil, fserr.ErrReadOnly
}
func (d *procDir) Readlink() (string, error)                 { return "", fserr.ErrInvalid }
func (d *procDir) Link(storage.Node, string) error           { return fserr.ErrReadOnly }
func (d *procDir) Unlink(string) error                       { return fserr.ErrReadOnly }
func (d *procDir) Rmdir(string) error                        { return fserr.ErrReadOnly }
func (d *procDir) Rename(string, storage.Node, string) error { return fserr.ErrReadOnly }
func (d *procDir) ReadAt([]byte, int64) (int, error)         { return 0, fserr.ErrIsDir }
func (d *procDir) WriteAt([]byte, int64) (int, error)        { return 0, fserr.ErrIsDir }
func (d *procDir) Truncate(int64) error                      { return fserr.ErrIsDir }
func (d *procDir) Chmod(uint32) error                        { return fserr.ErrReadOnly }
func (d *procDir) Chown(uint32, uint32) error                { return fserr.ErrReadOnly }
func (d *procDir) SetTimes(uint64, uint64) error             { return fserr.ErrReadOnly }
func (d *procDir) ID() uint64                                { return uint64(1000 + d.pid) }

// procFile is a synthetic read-only file.
type procFile struct {
	name string
	gen  func() string
}

func (f *procFile) content() []byte { return []byte(f.gen()) }

func (f *procFile) Stat() storage.FileInfo {
	return storage.FileInfo{Mode: storage.ModeFile | 0o444, Nlink: 1,
		Size: int64(len(f.content()))}
}
func (f *procFile) IsDir() bool     { return false }
func (f *procFile) IsSymlink() bool { return false }
func (f *procFile) ReadAt(buf []byte, off int64) (int, error) {
	data := f.content()
	if off >= int64(len(data)) {
		return 0, nil
	}
	return copy(buf, data[off:]), nil
}
func (f *procFile) Lookup(string) (storage.Node, error) { return nil, fserr.ErrNotDir }
func (f *procFile) Create(string, uint32, uint32, uint32) (storage.Node, error) {
	return nil, fserr.ErrNotDir
}
func (f *procFile) Mkdir(string, uint32, uint32, uint32) (storage.Node, error) {
	return nil, fserr.ErrNotDir
}
func (f *procFile) Symlink(string, string, uint32, uint32) (storage.Node, error) {
	return nil, fserr.ErrNotDir
}
func (f *procFile) Readlink() (string, error)                 { return "", fserr.ErrInvalid }
func (f *procFile) Link(storage.Node, string) error           { return fserr.ErrNotDir }
func (f *procFile) Unlink(string) error                       { return fserr.ErrNotDir }
func (f *procFile) Rmdir(string) error                        { return fserr.ErrNotDir }
func (f *procFile) Rename(string, storage.Node, string) error { return fserr.ErrNotDir }
func (f *procFile) ReadDir() ([]storage.DirEntry, error) {
	return nil, fserr.ErrNotDir
}
func (f *procFile) WriteAt([]byte, int64) (int, error) { return 0, fserr.ErrReadOnly }
func (f *procFile) Truncate(int64) error               { return fserr.ErrReadOnly }
func (f *procFile) Chmod(uint32) error                 { return fserr.ErrReadOnly }
func (f *procFile) Chown(uint32, uint32) error         { return fserr.ErrReadOnly }
func (f *procFile) SetTimes(uint64, uint64) error      { return fserr.ErrReadOnly }
func (f *procFile) ID() uint64                         { return uint64(len(f.name)) }
