// Package serverless is a miniature vHive-style FaaS stack for
// use-case #1 (§6.5): functions run in slim Firecracker VMs, a
// controller scales instances up and down, and a debug workflow
// parses function logs for errors, locates the Firecracker process
// hosting the faulty lambda, attaches VMSH to it for an interactive
// shell, and inhibits scale-down while the developer investigates.
package serverless

import (
	"fmt"
	"strings"

	"vmsh/internal/core"
	"vmsh/internal/fsimage"
	"vmsh/internal/guestos"
	"vmsh/internal/hostsim"
	"vmsh/internal/hypervisor"
)

// Handler is the function body, executed inside the instance's guest.
type Handler func(p *guestos.Proc, payload string) (string, error)

// Instance is one lambda microVM.
type Instance struct {
	ID       string
	Function string
	VM       *hypervisor.Instance
	handler  Handler
	Idle     bool
	// PinnedForDebug inhibits scale-down while a VMSH session is
	// attached.
	PinnedForDebug bool
	Stopped        bool
}

// Platform is the controller.
type Platform struct {
	Host      *hostsim.Host
	functions map[string]Handler
	instances []*Instance
	nextID    int
}

// New creates a platform on its own host.
func New() *Platform {
	return &Platform{Host: hostsim.NewHost(), functions: make(map[string]Handler)}
}

// Deploy registers a function.
func (pl *Platform) Deploy(name string, h Handler) {
	pl.functions[name] = h
}

// logPath is where instances write invocation logs inside the guest.
const logPath = "/var/log/fn.log"

// spawn boots a fresh Firecracker microVM for the function.
func (pl *Platform) spawn(function string) (*Instance, error) {
	h, ok := pl.functions[function]
	if !ok {
		return nil, fmt.Errorf("serverless: unknown function %q", function)
	}
	pl.nextID++
	id := fmt.Sprintf("%s-%d", function, pl.nextID)
	vm, err := hypervisor.Launch(pl.Host, hypervisor.Config{
		Kind: hypervisor.Firecracker,
		Name: "firecracker-" + id,
		// vHive's VMSH integration ships a relaxed seccomp profile
		// (§6.2's Firecracker workaround).
		DisableSeccomp: true,
		RootFS:         fsimage.GuestRoot(id),
		Seed:           int64(pl.nextID),
	})
	if err != nil {
		return nil, err
	}
	inst := &Instance{ID: id, Function: function, VM: vm, handler: h, Idle: true}
	pl.instances = append(pl.instances, inst)
	return inst, nil
}

// Invoke routes a request to an idle instance, spawning one if needed,
// and logs the outcome inside the guest.
func (pl *Platform) Invoke(function, payload string) (string, error) {
	var inst *Instance
	for _, i := range pl.instances {
		if i.Function == function && i.Idle && !i.Stopped {
			inst = i
			break
		}
	}
	if inst == nil {
		var err error
		if inst, err = pl.spawn(function); err != nil {
			return "", err
		}
	}
	inst.Idle = false
	defer func() { inst.Idle = true }()

	p := inst.VM.NewGuestProc("lambda")
	resp, err := inst.handler(p, payload)
	line := fmt.Sprintf("INFO invoke payload=%q ok\n", payload)
	if err != nil {
		line = fmt.Sprintf("ERROR invoke payload=%q: %v\n", payload, err)
	}
	appendLog(p, line)
	if err != nil {
		return "", fmt.Errorf("serverless: %s: %w", inst.ID, err)
	}
	return resp, nil
}

func appendLog(p *guestos.Proc, line string) {
	_ = p.Mkdir("/var/log", 0o755) // idempotent
	f, err := p.Open(logPath, guestos.OCreate|guestos.OWronly|guestos.OAppend, 0o644)
	if err != nil {
		return
	}
	defer f.Close()
	_, _ = f.Write([]byte(line))
}

// Instances lists all instances.
func (pl *Platform) Instances() []*Instance { return pl.instances }

// ScaleDown stops idle instances; pinned ones survive — the
// "integration prevents shutdown of the lambda-function's VM by
// scale-down events" behaviour of §6.5.
func (pl *Platform) ScaleDown() int {
	stopped := 0
	for _, i := range pl.instances {
		if i.Idle && !i.PinnedForDebug && !i.Stopped {
			i.Stopped = true
			pl.Host.Exit(i.VM.Proc)
			stopped++
		}
	}
	return stopped
}

// FindFaulty scans instance logs for ERROR lines, like the vHive log
// parser.
func (pl *Platform) FindFaulty() []*Instance {
	var out []*Instance
	for _, i := range pl.instances {
		if i.Stopped {
			continue
		}
		p := i.VM.NewGuestProc("logscan")
		data, err := p.ReadFile(logPath)
		if err != nil {
			continue
		}
		if strings.Contains(string(data), "ERROR") {
			out = append(out, i)
		}
	}
	return out
}

// DebugSession attaches VMSH to the faulty instance's Firecracker
// process and pins it against scale-down.
type DebugSession struct {
	Instance *Instance
	Session  *core.Session
}

// AttachDebugShell implements the §6.5 workflow end to end.
func (pl *Platform) AttachDebugShell(inst *Instance) (*DebugSession, error) {
	img := pl.Host.CreateFile("debug-tools-"+inst.ID+".img", 96<<20, false)
	if err := fsimage.Build(hostsim.NewHostFileDevice(img), fsimage.ToolImage()); err != nil {
		return nil, err
	}
	v := core.New(pl.Host)
	// Locate the hosting Firecracker process: the controller knows
	// the instance -> process mapping (vHive parses it from
	// containerd state).
	sess, err := v.Attach(inst.VM.Proc.PID, core.Options{Image: img})
	if err != nil {
		return nil, err
	}
	inst.PinnedForDebug = true
	return &DebugSession{Instance: inst, Session: sess}, nil
}

// Close detaches and unpins.
func (d *DebugSession) Close() error {
	d.Instance.PinnedForDebug = false
	return d.Session.Detach()
}
