// Package overlay implements the guest userspace program the VMSH
// library spawns: the container-based system overlay of §4.4. It
// mounts the attached filesystem image as the root of a fresh mount
// namespace, moves the original guest mounts under /var/lib/vmsh so
// nothing is hidden but nothing conflicts, optionally adopts the
// isolation context of a target container process, and starts a shell
// on the VMSH console.
package overlay

import (
	"encoding/json"
	"fmt"

	"vmsh/internal/guestos"
	"vmsh/internal/simplefs"
)

// ProgramName is the registered guest-program identifier embedded in
// the exe payload the library writes to /dev.
const ProgramName = "vmsh-guest"

// GuestMountDir is where the original guest mounts reappear inside
// the overlay.
const GuestMountDir = "/var/lib/vmsh"

// Options is the JSON payload carried inside the exe blob.
type Options struct {
	// Console is the guest TTY name the spawned process talks to.
	Console string `json:"console"`
	// BlkDev is the guest name of the vmsh block device holding the
	// image.
	BlkDev string `json:"blkdev"`
	// ContainerPID, when non-zero, adopts that process's container
	// context (uid/gid, caps, cgroup, seccomp, LSM label, mount ns).
	ContainerPID int `json:"container_pid,omitempty"`
	// SpawnShell starts an interactive shell on the console.
	SpawnShell bool `json:"spawn_shell"`
}

// Encode renders the options for embedding.
func (o Options) Encode() string {
	raw, err := json.Marshal(o)
	if err != nil {
		panic("overlay: options encode: " + err.Error())
	}
	return string(raw)
}

func init() {
	guestos.RegisterGuestProgram(ProgramName, Run)
}

// Run is the overlay setup sequence, executed as the spawned guest
// process.
func Run(k *guestos.Kernel, p *guestos.Proc, optionsJSON string) error {
	var opts Options
	if err := json.Unmarshal([]byte(optionsJSON), &opts); err != nil {
		return fmt.Errorf("overlay: bad options: %w", err)
	}
	blk, ok := k.BlockDevByName(opts.BlkDev)
	if !ok {
		return fmt.Errorf("overlay: block device %q not registered", opts.BlkDev)
	}
	fs, err := simplefs.Mount(blk)
	if err != nil {
		return fmt.Errorf("overlay: mounting image: %w", err)
	}
	fs.NowFn = k.NowSec

	// The mount view to re-expose: the init namespace, or — when
	// attaching into a container — that container's namespace, so the
	// tools see exactly what the target process sees (§4.4).
	sourceNS := p.NS
	if opts.ContainerPID != 0 {
		target, ok := k.ProcByPID(opts.ContainerPID)
		if !ok {
			return fmt.Errorf("overlay: container pid %d not found", opts.ContainerPID)
		}
		sourceNS = target.NS
		p.UID, p.GID = target.UID, target.GID
		p.Caps = append([]string(nil), target.Caps...)
		p.Cgroup = target.Cgroup
		p.Seccomp = target.Seccomp
		p.AppArmor = target.AppArmor
	}

	// Fresh namespace: image as root, original mounts relocated under
	// /var/lib/vmsh. Existing guest processes keep their namespaces
	// untouched.
	ns := k.NewEmptyNamespace()
	ns.AddMount("/", fs)
	for _, m := range sourceNS.Mounts() {
		target := GuestMountDir
		if m.Path != "/" {
			target = GuestMountDir + m.Path
		}
		ns.AddMount(target, m.FS)
	}
	p.NS = ns
	p.CWD = "/"

	k.Printk("vmsh-overlay: root on %s, guest mounts under %s (pid %d)",
		opts.BlkDev, GuestMountDir, p.PID)

	if opts.SpawnShell {
		tty, ok := k.TTYByName(opts.Console)
		if !ok {
			return fmt.Errorf("overlay: console %q not registered", opts.Console)
		}
		guestos.NewShell(k, p, tty)
	}
	return nil
}
