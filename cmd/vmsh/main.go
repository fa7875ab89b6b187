// Command vmsh is the CLI front end: it boots a simulated VM on the
// requested hypervisor/kernel combination, attaches with the chosen
// trap mechanism and either runs one command or replays a scripted
// console session.
//
// The real tool is pointed at a live hypervisor pid; since this
// reproduction carries its own host simulation, the VM to attach to is
// launched in-process first.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"vmsh"
	"vmsh/internal/hypervisor"
)

// replayLog re-executes a recorded session entirely from its log —
// no VM, no attach — printing the end state the live run reached. A
// corrupted or truncated log surfaces as a divergence report, not a
// partial replay.
func replayLog(path, tracePath string, metrics bool) error {
	var opts []vmsh.ReplayRunOption
	if tracePath != "" {
		opts = append(opts, vmsh.ReplayWithTrace())
	}
	res, err := vmsh.Replay(path, opts...)
	if err != nil {
		return err
	}
	fmt.Printf("[vmsh] replayed %q (seed %d): %d crossings, %v virtual time\n",
		res.Label, res.Seed, res.Crossings, res.VTime)
	ops := make([]string, 0, len(res.PerOp))
	for op := range res.PerOp {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		fmt.Printf("  %-24s %d\n", op, res.PerOp[op])
	}
	for i, h := range res.RAM {
		fmt.Printf("  ram[%d] fnv64a %#016x\n", i, h)
	}
	if metrics {
		keys := make([]string, 0, len(res.Metrics))
		for k := range res.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  metric %-32s %d\n", k, res.Metrics[k])
		}
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := res.Tracer.WriteChrome(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("[vmsh] replay trace written to %s\n", tracePath)
	}
	return nil
}

func main() {
	var (
		hv      = flag.String("hypervisor", "qemu", "qemu|kvmtool|firecracker|crosvm|cloud-hypervisor")
		kernel  = flag.String("kernel", "5.10", "guest kernel version (5.10, 5.4, 4.19, 4.14, 4.9, 4.4)")
		machine = flag.String("arch", "x86_64", "guest architecture: x86_64|arm64")
		trap    = flag.String("trap", "auto", "MMIO trap: auto|ioregionfd|wrap_syscall")
		command = flag.String("c", "", "run one command and exit")
		stdin   = flag.Bool("stdin", false, "read commands from stdin")
		trace   = flag.String("trace", "", "write a Chrome trace-event JSON (Perfetto) of the session to this path")
		profile = flag.String("profile", "", "write a folded-stacks vtime profile of the session to this path and print the top stacks (implies tracing)")
		metrics = flag.Bool("metrics", false, "print the session metrics registry on detach")
		fault   = flag.String("fault", "", `fault plan: ';'-separated rules, e.g. "ptrace:nth=3" or "procvm:prob=0.01,transient"`)
		seed    = flag.Uint64("fault-seed", 1, "seed for probabilistic fault rules")
		retry   = flag.Int("retry", 0, "retry transient attach faults up to N times (virtual-time backoff)")
		storage = flag.String("storage", "file", "block store for the vmsh-blk image: file|memory|cow|cas|remote")
		record  = flag.String("record", "", "record every host crossing of the session to this replay log")
		replay  = flag.String("replay", "", "re-run a recorded session from its log alone (no live guest) and exit")
		verify  = flag.String("replay-verify", "", "re-run the live session and check every crossing against this recorded log")
	)
	flag.Parse()

	// -replay needs no VM at all: the log carries the whole session.
	if *replay != "" {
		if err := replayLog(*replay, *trace, *metrics); err != nil {
			fmt.Fprintf(os.Stderr, "replay: %v\n", err)
			os.Exit(1)
		}
		return
	}

	kinds := map[string]hypervisor.Kind{
		"qemu": vmsh.QEMU, "kvmtool": vmsh.Kvmtool, "firecracker": vmsh.Firecracker,
		"crosvm": vmsh.Crosvm, "cloud-hypervisor": vmsh.CloudHypervisor,
	}
	kind, ok := kinds[*hv]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown hypervisor %q\n", *hv)
		os.Exit(2)
	}
	trapMode := vmsh.TrapAuto
	switch *trap {
	case "wrap_syscall":
		trapMode = vmsh.TrapWrapSyscall
	case "ioregionfd":
		trapMode = vmsh.TrapIoregionfd
	}
	guestArch := vmsh.ArchX86_64
	if *machine == "arm64" {
		guestArch = vmsh.ArchARM64
	}

	lab := vmsh.NewLab()
	vmOpts := []vmsh.VMOption{
		vmsh.WithHypervisor(kind),
		vmsh.WithArch(guestArch),
		vmsh.WithKernelVersion(*kernel),
		vmsh.WithRootFS(vmsh.GuestRoot("cli-vm")),
	}
	if kind == vmsh.Firecracker {
		vmOpts = append(vmOpts, vmsh.WithoutSeccomp())
	}
	vm, err := lab.LaunchVM(vmOpts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "launch: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("[vmsh] %s pid %d, guest linux-%s\n", vm.Kind, vm.Proc.PID, vm.Kernel.Version)

	img, err := lab.BuildImage("tools.img", vmsh.ToolImage())
	if err != nil {
		fmt.Fprintf(os.Stderr, "image: %v\n", err)
		os.Exit(1)
	}
	attachOpts := []vmsh.Option{vmsh.WithImage(img), vmsh.WithTrap(trapMode),
		vmsh.WithStorageBackend(*storage)}
	if *trace != "" || *profile != "" {
		attachOpts = append(attachOpts, vmsh.WithTrace())
	}
	if *fault != "" {
		rules, err := vmsh.ParseFaultRules(*fault)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fault: %v\n", err)
			os.Exit(2)
		}
		attachOpts = append(attachOpts, vmsh.WithFaultPlan(vmsh.NewFaultPlan(*seed, rules...)))
	}
	if *retry > 0 {
		attachOpts = append(attachOpts, vmsh.WithRetry(vmsh.RetryPolicy{Attempts: *retry}))
	}
	if *record != "" {
		attachOpts = append(attachOpts, vmsh.WithRecord(*record))
	}
	var verifier *vmsh.Verifier
	if *verify != "" {
		lg, err := vmsh.ReadRecording(*verify)
		if err != nil {
			fmt.Fprintf(os.Stderr, "replay-verify: %v\n", err)
			os.Exit(1)
		}
		verifier = lab.NewVerifier(lg)
		attachOpts = append(attachOpts, vmsh.WithVerifier(verifier))
	}
	sess, err := lab.Attach(vm, attachOpts...)
	if err != nil {
		var ae *vmsh.Error
		if errors.As(err, &ae) && ae.Stage != "" {
			fmt.Fprintf(os.Stderr, "attach failed at stage %s (guest rolled back): %v\n", ae.Stage, ae.Err)
		} else {
			fmt.Fprintf(os.Stderr, "attach: %v\n", err)
		}
		os.Exit(1)
	}
	fmt.Printf("[vmsh] attached (%s), kernel detected %s, KASLR base %#x\n",
		sess.Trap(), sess.Version(), sess.KernelBase())

	run := func(cmd string) {
		out, err := sess.Exec(cmd)
		if err != nil {
			fmt.Fprintf(os.Stderr, "exec: %v\n", err)
			return
		}
		fmt.Printf("vmsh# %s\n%s", cmd, out)
	}

	switch {
	case *command != "":
		run(*command)
	case *stdin:
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || line == "exit" {
				break
			}
			run(line)
		}
	default:
		for _, cmd := range []string{"uname -r", "id", "ls /bin", "cat /var/lib/vmsh/etc/hostname", "dmesg"} {
			run(cmd)
		}
	}
	if *metrics {
		fmt.Print(sess.MetricsText())
	}
	if err := sess.Detach(); err != nil {
		fmt.Fprintf(os.Stderr, "detach: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("[vmsh] detached")
	if *record != "" {
		fmt.Printf("[vmsh] recording written to %s\n", *record)
	}
	if verifier != nil {
		if d := verifier.Result(); d != nil {
			fmt.Fprintf(os.Stderr, "replay-verify: DIVERGED: %v\n", d)
			os.Exit(1)
		}
		fmt.Printf("[vmsh] replay-verify: %d crossings matched the recording\n", verifier.Matched())
	}
	if *trace != "" {
		f, err := os.Create(*trace)
		if err == nil {
			err = lab.Trace().WriteChrome(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("[vmsh] trace written to %s (%v virtual time)\n", *trace, lab.Trace().Charged())
	}
	if *profile != "" {
		p := lab.Profile()
		f, err := os.Create(*profile)
		if err == nil {
			err = p.WriteFolded(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "profile: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("[vmsh] profile written to %s (%d stacks, %v self vtime)\n", *profile, p.Len(), p.Total())
		if err := p.WriteTop(os.Stdout, 10); err != nil {
			fmt.Fprintf(os.Stderr, "profile: %v\n", err)
			os.Exit(1)
		}
	}
}
