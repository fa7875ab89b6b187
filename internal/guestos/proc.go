package guestos

import (
	"fmt"
	"sort"

	"vmsh/internal/fserr"
	"vmsh/internal/storage"
)

// Proc is a guest process. Its credential and isolation fields are
// exactly the context VMSH adopts when attaching to a containerised
// process (§4.4): uid/gid, capabilities, cgroup, seccomp and LSM
// labels, and the mount namespace.
type Proc struct {
	k    *Kernel
	PID  int
	PPID int
	Comm string

	UID, GID uint32
	Caps     []string
	Cgroup   string
	Seccomp  string
	AppArmor string

	NS        *MountNamespace
	CWD       string
	Container string // container id, "" for host processes

	Env    map[string]string
	Exited bool
}

func (k *Kernel) newProc(parent *Proc, comm string) *Proc {
	p := &Proc{
		k: k, PID: k.nextPID, Comm: comm, CWD: "/",
		Env: make(map[string]string),
	}
	k.nextPID++
	if parent != nil {
		p.PPID = parent.PID
		p.UID, p.GID = parent.UID, parent.GID
		p.NS = parent.NS
		p.CWD = parent.CWD
		p.Caps = append([]string(nil), parent.Caps...)
		p.Cgroup = parent.Cgroup
		p.Seccomp = parent.Seccomp
		p.AppArmor = parent.AppArmor
		p.Container = parent.Container
	} else {
		p.NS = k.rootNS
		p.Caps = []string{"CAP_SYS_ADMIN", "CAP_NET_ADMIN", "CAP_SYS_PTRACE"}
		p.Cgroup = "/"
	}
	k.procs[p.PID] = p
	return p
}

// Spawn creates a child process.
func (k *Kernel) Spawn(parent *Proc, comm string) *Proc { return k.newProc(parent, comm) }

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Procs lists live processes sorted by pid.
func (k *Kernel) Procs() []*Proc {
	out := make([]*Proc, 0, len(k.procs))
	for _, p := range k.procs {
		if !p.Exited {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PID < out[j].PID })
	return out
}

// ProcByPID resolves a pid.
func (k *Kernel) ProcByPID(pid int) (*Proc, bool) {
	p, ok := k.procs[pid]
	return p, ok
}

// Exit marks the process dead.
func (p *Proc) Exit() { p.Exited = true }

// ContainerSpec describes a containerised workload.
type ContainerSpec struct {
	Name     string
	Comm     string
	UID, GID uint32
	Caps     []string
	Cgroup   string
	Seccomp  string
	AppArmor string
}

// StartContainer creates a container: a process in a cloned mount
// namespace carrying the spec's isolation context.
func (k *Kernel) StartContainer(spec ContainerSpec) *Proc {
	p := k.newProc(k.InitProc, spec.Comm)
	p.UID, p.GID = spec.UID, spec.GID
	p.Caps = append([]string(nil), spec.Caps...)
	p.Cgroup = spec.Cgroup
	p.Seccomp = spec.Seccomp
	p.AppArmor = spec.AppArmor
	p.Container = spec.Name
	p.NS = k.CloneNamespace(k.InitProc.NS)
	return p
}

// --- file syscalls ------------------------------------------------------

func (p *Proc) path(rel string) string { return joinPath(p.CWD, rel) }

// Open opens (and with O_CREAT creates) a file.
func (p *Proc) Open(path string, flags int, perm uint32) (*File, error) {
	k := p.k
	k.Clock().Advance(k.Costs().GuestSyscall)
	abs := p.path(path)
	node, err := k.resolve(p.NS, abs, true)
	switch {
	case err == nil:
		if flags&(OCreate|OExcl) == OCreate|OExcl {
			return nil, fserr.ErrExists
		}
	case err == fserr.ErrNotFound && flags&OCreate != 0:
		dir, name, perr := k.resolveParent(p.NS, abs)
		if perr != nil {
			return nil, perr
		}
		node, err = dir.Create(name, perm, p.UID, p.GID)
		if err != nil {
			return nil, err
		}
	default:
		return nil, err
	}
	if node.IsDir() && flags&(OWronly|ORdwr) != 0 {
		return nil, fserr.ErrIsDir
	}
	m, _ := p.NS.findMount(abs)
	if k.OpenTrace != nil {
		k.OpenTrace(abs)
	}
	f := k.openNode(m.FS, node, abs, flags)
	if flags&OTrunc != 0 && !node.IsDir() {
		if err := f.Truncate(0); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Mkdir creates a directory.
func (p *Proc) Mkdir(path string, perm uint32) error {
	k := p.k
	k.Clock().Advance(k.Costs().GuestSyscall + k.Costs().InodeOp)
	dir, name, err := k.resolveParent(p.NS, p.path(path))
	if err != nil {
		return err
	}
	_, err = dir.Mkdir(name, perm, p.UID, p.GID)
	return err
}

// Unlink removes a file, dropping its page cache.
func (p *Proc) Unlink(path string) error {
	k := p.k
	k.Clock().Advance(k.Costs().GuestSyscall + k.Costs().InodeOp)
	abs := p.path(path)
	dir, name, err := k.resolveParent(p.NS, abs)
	if err != nil {
		return err
	}
	node, err := dir.Lookup(name)
	if err != nil {
		return err
	}
	lastLink := !node.IsDir() && node.Stat().Nlink <= 1
	if err := dir.Unlink(name); err != nil {
		return err
	}
	// Only the final link discards the inode's page cache; other hard
	// links keep the (possibly dirty) pages alive.
	if lastLink {
		m, _ := p.NS.findMount(abs)
		k.dropCache(m.FS, node)
	}
	return nil
}

// Rmdir removes an empty directory.
func (p *Proc) Rmdir(path string) error {
	k := p.k
	k.Clock().Advance(k.Costs().GuestSyscall + k.Costs().InodeOp)
	dir, name, err := k.resolveParent(p.NS, p.path(path))
	if err != nil {
		return err
	}
	return dir.Rmdir(name)
}

// Rename moves oldPath to newPath (same filesystem).
func (p *Proc) Rename(oldPath, newPath string) error {
	k := p.k
	k.Clock().Advance(k.Costs().GuestSyscall + 2*k.Costs().InodeOp)
	srcDir, srcName, err := k.resolveParent(p.NS, p.path(oldPath))
	if err != nil {
		return err
	}
	dstDir, dstName, err := k.resolveParent(p.NS, p.path(newPath))
	if err != nil {
		return err
	}
	return srcDir.Rename(srcName, dstDir, dstName)
}

// Link makes a hard link newPath -> oldPath.
func (p *Proc) Link(oldPath, newPath string) error {
	k := p.k
	k.Clock().Advance(k.Costs().GuestSyscall + k.Costs().InodeOp)
	target, err := k.resolve(p.NS, p.path(oldPath), true)
	if err != nil {
		return err
	}
	dir, name, err := k.resolveParent(p.NS, p.path(newPath))
	if err != nil {
		return err
	}
	return dir.Link(target, name)
}

// Symlink creates newPath pointing at target.
func (p *Proc) Symlink(target, newPath string) error {
	k := p.k
	k.Clock().Advance(k.Costs().GuestSyscall + k.Costs().InodeOp)
	dir, name, err := k.resolveParent(p.NS, p.path(newPath))
	if err != nil {
		return err
	}
	_, err = dir.Symlink(name, target, p.UID, p.GID)
	return err
}

// Readlink reads a symlink target.
func (p *Proc) Readlink(path string) (string, error) {
	k := p.k
	k.Clock().Advance(k.Costs().GuestSyscall)
	node, err := k.resolve(p.NS, p.path(path), false)
	if err != nil {
		return "", err
	}
	return node.Readlink()
}

// Stat follows symlinks; Lstat does not.
func (p *Proc) Stat(path string) (storage.FileInfo, error) {
	return p.statInternal(path, true)
}

// Lstat stats without following the final symlink.
func (p *Proc) Lstat(path string) (storage.FileInfo, error) {
	return p.statInternal(path, false)
}

func (p *Proc) statInternal(path string, follow bool) (storage.FileInfo, error) {
	k := p.k
	k.Clock().Advance(k.Costs().GuestSyscall)
	node, err := k.resolve(p.NS, p.path(path), follow)
	if err != nil {
		return storage.FileInfo{}, err
	}
	return node.Stat(), nil
}

// Chmod changes permissions.
func (p *Proc) Chmod(path string, perm uint32) error {
	k := p.k
	k.Clock().Advance(k.Costs().GuestSyscall + k.Costs().InodeOp)
	node, err := k.resolve(p.NS, p.path(path), true)
	if err != nil {
		return err
	}
	return node.Chmod(perm)
}

// Chown changes ownership.
func (p *Proc) Chown(path string, uid, gid uint32) error {
	k := p.k
	k.Clock().Advance(k.Costs().GuestSyscall + k.Costs().InodeOp)
	node, err := k.resolve(p.NS, p.path(path), true)
	if err != nil {
		return err
	}
	return node.Chown(uid, gid)
}

// Truncate resizes by path.
func (p *Proc) Truncate(path string, size int64) error {
	f, err := p.Open(path, OWronly, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Truncate(size)
}

// Utimes sets atime/mtime.
func (p *Proc) Utimes(path string, atime, mtime uint64) error {
	k := p.k
	k.Clock().Advance(k.Costs().GuestSyscall + k.Costs().InodeOp)
	node, err := k.resolve(p.NS, p.path(path), true)
	if err != nil {
		return err
	}
	return node.SetTimes(atime, mtime)
}

// ReadDir lists a directory.
func (p *Proc) ReadDir(path string) ([]storage.DirEntry, error) {
	k := p.k
	k.Clock().Advance(k.Costs().GuestSyscall + k.Costs().InodeOp)
	node, err := k.resolve(p.NS, p.path(path), true)
	if err != nil {
		return nil, err
	}
	return node.ReadDir()
}

// Statfs reports filesystem usage for the mount containing path.
func (p *Proc) Statfs(path string) (storage.StatfsInfo, error) {
	k := p.k
	k.Clock().Advance(k.Costs().GuestSyscall)
	m, _ := p.NS.findMount(p.path(path))
	if m == nil {
		return storage.StatfsInfo{}, fserr.ErrNotFound
	}
	return m.FS.Statfs(), nil
}

// QuotaReport queries quota usage on the mount containing path.
func (p *Proc) QuotaReport(path string) ([]storage.QuotaUsage, error) {
	k := p.k
	k.Clock().Advance(k.Costs().GuestSyscall)
	m, _ := p.NS.findMount(p.path(path))
	if m == nil {
		return nil, fserr.ErrNotFound
	}
	return m.FS.QuotaReport()
}

// RemoveAll recursively deletes a tree (rm -r).
func (p *Proc) RemoveAll(path string) error {
	st, err := p.Lstat(path)
	if err == fserr.ErrNotFound {
		return nil
	}
	if err != nil {
		return err
	}
	if st.Mode&storage.ModeTypeMask != storage.ModeDir {
		return p.Unlink(path)
	}
	ents, err := p.ReadDir(path)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if err := p.RemoveAll(p.path(path) + "/" + e.Name); err != nil {
			return err
		}
	}
	return p.Rmdir(path)
}

// Sync writes back all dirty page caches and flushes every filesystem
// in the process's namespace.
func (p *Proc) Sync() error {
	p.k.Clock().Advance(p.k.Costs().GuestSyscall)
	return p.k.syncNamespace(p.NS)
}

// Mount binds a filesystem in the process's namespace.
func (p *Proc) Mount(fs storage.FS, path string) error {
	p.k.Clock().Advance(p.k.Costs().GuestSyscall)
	p.NS.AddMount(p.path(path), fs)
	return nil
}

// WriteFile is a convenience: create/truncate and write content.
func (p *Proc) WriteFile(path string, data []byte, perm uint32) error {
	f, err := p.Open(path, OCreate|OWronly|OTrunc, perm)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Write(data); err != nil {
		return err
	}
	return nil
}

// ReadFile reads a whole file.
func (p *Proc) ReadFile(path string) ([]byte, error) {
	f, err := p.Open(path, ORdonly, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size := f.Node().Stat().Size
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil {
		return nil, err
	}
	return buf, nil
}

// --- kernel-level mounts -------------------------------------------------

// MountRoot replaces the root filesystem of the init namespace, the
// boot step where the guest switches from initramfs to its disk root.
func (k *Kernel) MountRoot(fs storage.FS) error {
	for i, m := range k.rootNS.mounts {
		if m.Path == "/" {
			k.rootNS.mounts[i] = &Mount{Path: "/", FS: fs}
			// Recreate the conventional directories on the new root.
			for _, dir := range []string{"/dev", "/tmp", "/etc", "/proc", "/var"} {
				if err := k.mkdirAll(k.rootNS, dir); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return fmt.Errorf("guestos: no root mount: %w", fserr.ErrNotFound)
}
