package eval

import (
	"strings"
	"time"

	"vmsh/internal/core"
	"vmsh/internal/fsimage"
	"vmsh/internal/guestos"
	"vmsh/internal/hostsim"
	"vmsh/internal/hypervisor"
	"vmsh/internal/ledger"
)

// ConsoleLatencies holds Figure 7's three bars.
type ConsoleLatencies struct {
	Native time.Duration
	SSH    time.Duration
	VMSH   time.Duration
}

const echoRounds = 32

// RunConsoleLatency measures the echo round trip (§6.3-D): submit a
// command through a pseudo terminal and time until the response is
// back, for a native pty, an ssh connection and the VMSH console.
func RunConsoleLatency() (*ConsoleLatencies, error) {
	out := &ConsoleLatencies{}

	// A guest with shell tools for all three transports.
	h := hostsim.NewHost()
	inst, err := hypervisor.Launch(h, hypervisor.Config{
		Kind:   hypervisor.QEMU,
		RootFS: fsimage.GuestRoot("console").Merge(fsimage.ToolImage()),
	})
	if err != nil {
		return nil, err
	}
	kern := inst.Kernel
	c := h.Costs

	// measure runs the echo round trip n times over a tty whose
	// transport charges are applied by in/out hooks.
	measure := func(tty *guestos.TTY, send func(string), gotPrompt func() bool) time.Duration {
		start := h.Clock.Now()
		for i := 0; i < echoRounds; i++ {
			send("echo ping\n")
			if !gotPrompt() {
				return 0
			}
		}
		return (h.Clock.Now() - start) / echoRounds
	}

	// Native pty: writer and reader wake through the pty pair.
	{
		var buf strings.Builder
		tty := kern.NewTTY("pts-native", func(b []byte) error {
			h.Clock.Advance(c.TTYProcess) // pty master side
			buf.Write(b)
			return nil
		})
		guestos.NewShell(kern, inst.NewGuestProc("sh-native"), tty)
		buf.Reset()
		out.Native = measure(tty,
			func(s string) {
				h.Clock.Advance(c.TTYProcess)
				tty.InputFromHost([]byte(s))
			},
			func() bool { return strings.HasSuffix(buf.String(), guestos.Prompt) })
	}

	// SSH: loopback TCP + per-keystroke crypto + sshd wakeups in both
	// directions.
	{
		var buf strings.Builder
		tty := kern.NewTTY("pts-ssh", func(b []byte) error {
			h.Clock.Advance(c.NetRTT/2 + c.SSHCrypto + c.SchedWake)
			buf.Write(b)
			return nil
		})
		guestos.NewShell(kern, inst.NewGuestProc("sshd"), tty)
		buf.Reset()
		out.SSH = measure(tty,
			func(s string) {
				h.Clock.Advance(c.NetRTT/2 + c.SSHCrypto + c.SchedWake)
				tty.InputFromHost([]byte(s))
			},
			func() bool { return strings.HasSuffix(buf.String(), guestos.Prompt) })
	}

	// VMSH console: the full side-loaded path through virtqueues,
	// irqfds and the trap mechanism.
	{
		img := h.CreateFile("console-tools.img", 96<<20, false)
		if err := fsimage.Build(hostsim.NewHostFileDevice(img), fsimage.ToolImage()); err != nil {
			return nil, err
		}
		v := core.New(h)
		sess, err := v.Attach(inst.Proc.PID, core.Options{Image: img})
		if err != nil {
			return nil, err
		}
		start := h.Clock.Now()
		for i := 0; i < echoRounds; i++ {
			if _, err := sess.Exec("echo ping"); err != nil {
				return nil, err
			}
		}
		out.VMSH = (h.Clock.Now() - start) / echoRounds
	}
	return out, nil
}

// ConsoleRows is E6's ledger: each transport's mean echo round trip
// in ms, the unit of Figure 7 and of its paper values, as costs.
func ConsoleRows(l *ConsoleLatencies) []ledger.Row {
	r := ledger.Builder{Exp: "e6"}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	r.Cost("native_ms", ms(l.Native), "ms").Paper = 0.15
	r.Cost("ssh_ms", ms(l.SSH), "ms").Paper = 0.9
	r.Cost("vmsh_console_ms", ms(l.VMSH), "ms").Paper = 0.9
	return r.Rows
}
