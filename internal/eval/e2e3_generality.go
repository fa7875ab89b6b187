package eval

import (
	"fmt"
	"strings"
	"time"

	"vmsh/internal/arch"
	"vmsh/internal/core"
	"vmsh/internal/fsimage"
	"vmsh/internal/guestos"
	"vmsh/internal/hostsim"
	"vmsh/internal/hypervisor"
	"vmsh/internal/ledger"
)

// GeneralityRow is one Table 1 entry.
type GeneralityRow struct {
	Target    string
	Supported bool
	Detail    string
	// Attach is the virtual time of a working target's Attach call.
	Attach time.Duration
}

// attachSmokeOpts launches a VM and attempts a full attach + console
// round trip with extra attach options.
func attachSmokeOpts(kind hypervisor.Kind, kernel string, cfgMod func(*hypervisor.Config), optsMod func(*core.Options)) GeneralityRow {
	name := kind.String()
	if kernel != "" {
		name = "linux-" + kernel
	}
	h := hostsim.NewHost()
	cfg := hypervisor.Config{
		Kind:          kind,
		KernelVersion: kernel,
		RootFS:        fsimage.GuestRoot("smoke"),
		Seed:          int64(kind) + int64(len(kernel)),
	}
	if cfgMod != nil {
		cfgMod(&cfg)
	}
	inst, err := hypervisor.Launch(h, cfg)
	if err != nil {
		return GeneralityRow{Target: name, Detail: "launch: " + err.Error()}
	}
	img := h.CreateFile("tools.img", 96<<20, false)
	if err := fsimage.Build(hostsim.NewHostFileDevice(img), fsimage.ToolImage()); err != nil {
		return GeneralityRow{Target: name, Detail: err.Error()}
	}
	v := core.New(h)
	opts := core.Options{Image: img}
	if optsMod != nil {
		optsMod(&opts)
	}
	start := h.Clock.Now()
	sess, err := v.Attach(inst.Proc.PID, opts)
	attach := h.Clock.Now() - start
	if err != nil {
		return GeneralityRow{Target: name, Detail: err.Error()}
	}
	out, err := sess.Exec("echo attach-ok")
	if err != nil || !strings.Contains(out, "attach-ok") {
		return GeneralityRow{Target: name, Detail: "console dead"}
	}
	return GeneralityRow{Target: name, Supported: true, Detail: "attach + console ok", Attach: attach}
}

// attachSmoke launches a VM and attempts a full attach + console
// round trip.
func attachSmoke(kind hypervisor.Kind, kernel string, disableSeccomp bool) GeneralityRow {
	return attachSmokeOpts(kind, kernel, func(c *hypervisor.Config) {
		c.DisableSeccomp = disableSeccomp
	}, nil)
}

// RunExtensionMatrix covers the future-work paths the paper names,
// implemented here as extensions: virtio-over-PCI interrupt routing
// for Cloud Hypervisor, the vmsh-compatible Firecracker seccomp
// profile (§6.2), and the arm64 port (§5).
func RunExtensionMatrix() []GeneralityRow {
	pci := attachSmokeOpts(hypervisor.CloudHypervisor, "", nil,
		func(o *core.Options) { o.PCITransport = true })
	pci.Target += " (virtio-pci extension)"
	fc := attachSmokeOpts(hypervisor.Firecracker, "",
		func(c *hypervisor.Config) { c.SeccompProfile = "vmsh-compatible" }, nil)
	fc.Target += " (vmsh-compatible seccomp)"
	arm := attachSmokeOpts(hypervisor.QEMU, "",
		func(c *hypervisor.Config) { c.Arch = arch.ARM64 }, nil)
	arm.Target += " (arm64 port)"
	return []GeneralityRow{pci, fc, arm}
}

// RunHypervisorMatrix regenerates the hypervisor half of Table 1 (E2).
func RunHypervisorMatrix() []GeneralityRow {
	rows := []GeneralityRow{
		attachSmoke(hypervisor.QEMU, "", false),
		attachSmoke(hypervisor.Kvmtool, "", false),
		attachSmoke(hypervisor.Firecracker, "", true), // filters disabled, §6.2
		attachSmoke(hypervisor.Crosvm, "", false),
		attachSmoke(hypervisor.CloudHypervisor, "", false), // expected unsupported
	}
	rows[2].Target += " (seccomp off)"
	return rows
}

// RunMemslotGrid attaches to QEMU, kvmtool and crosvm guests of 128,
// 256 and 384 MiB, each seeded by its RAM size and kind: design
// decision D4, VMSH's memslot at the top of guest memory, must never
// collide with the RAM a personality lays out. E2 carries the grid.
func RunMemslotGrid() []GeneralityRow {
	var rows []GeneralityRow
	for _, kind := range []hypervisor.Kind{hypervisor.QEMU, hypervisor.Kvmtool, hypervisor.Crosvm} {
		for _, mib := range []uint64{128, 256, 384} {
			r := attachSmokeOpts(kind, "", func(c *hypervisor.Config) {
				c.RAMSize = mib << 20
				c.Seed = int64(c.RAMSize) + int64(kind)
			}, nil)
			r.Target += fmt.Sprintf(" %dMiB", mib)
			rows = append(rows, r)
		}
	}
	return rows
}

// RunKernelMatrix regenerates the kernel half of Table 1 (E3).
func RunKernelMatrix() []GeneralityRow {
	var rows []GeneralityRow
	for _, ver := range guestos.LTSVersions {
		rows = append(rows, attachSmoke(hypervisor.QEMU, ver, false))
	}
	return rows
}

// GeneralityRows is a Table 1 ledger under exp: per target, whether
// attach + console worked and the outcome text (the error on failure),
// both invariants, and for a target that works, the attach's virtual
// time (a cost). The error text is deterministic, so a changed failure
// mode fails the gate as surely as a lost target.
func GeneralityRows(exp string, rows []GeneralityRow) []ledger.Row {
	l := ledger.Builder{Exp: exp}
	for _, r := range rows {
		l.Invariant(r.Target+".ok", r.Supported, "bool")
		l.Invariant(r.Target+".detail", r.Detail, "text")
		if r.Supported {
			l.Cost(r.Target+".attach_ns", float64(r.Attach), "ns")
		}
	}
	return l.Rows
}
