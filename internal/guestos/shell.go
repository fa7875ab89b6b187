package guestos

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"

	"vmsh/internal/netsim"
)

// Prompt is what the shell prints when ready for input; the host side
// of the console uses it as a command delimiter.
const Prompt = "vmsh# "

// Shell is the minimal interactive shell started from the attached
// filesystem image. Commands are resolved against the overlay's /bin
// before running — an image without a tool genuinely lacks it.
type Shell struct {
	k    *Kernel
	proc *Proc
	tty  *TTY
}

// NewShell attaches a shell to a TTY as its line handler and prints
// the first prompt.
func NewShell(k *Kernel, proc *Proc, tty *TTY) *Shell {
	s := &Shell{k: k, proc: proc, tty: tty}
	tty.LineHandler = s.Exec
	_ = tty.WriteString(Prompt)
	return s
}

// builtins the image can ship. Resolution still requires the binary
// file to exist in the overlay image.
var shellBuiltins = map[string]func(*Shell, []string) string{
	"echo":      (*Shell).cmdEcho,
	"cat":       (*Shell).cmdCat,
	"ls":        (*Shell).cmdLs,
	"ps":        (*Shell).cmdPs,
	"mount":     (*Shell).cmdMount,
	"touch":     (*Shell).cmdTouch,
	"rm":        (*Shell).cmdRm,
	"mkdir":     (*Shell).cmdMkdir,
	"pwd":       (*Shell).cmdPwd,
	"cd":        (*Shell).cmdCd,
	"id":        (*Shell).cmdId,
	"uname":     (*Shell).cmdUname,
	"df":        (*Shell).cmdDf,
	"sync":      (*Shell).cmdSync,
	"hostname":  (*Shell).cmdHostname,
	"dmesg":     (*Shell).cmdDmesg,
	"sha256sum": (*Shell).cmdSha256,
	"chpasswd":  (*Shell).cmdChpasswd,
	"apk-list":  (*Shell).cmdApkList,
	"ifconfig":  (*Shell).cmdIfconfig,
	"ping":      (*Shell).cmdPing,
	"iperf":     (*Shell).cmdIperf,
}

// Exec runs one command line and writes output plus the next prompt.
func (s *Shell) Exec(line string) {
	out := s.run(strings.TrimSpace(line))
	if out != "" && !strings.HasSuffix(out, "\n") {
		out += "\n"
	}
	_ = s.tty.WriteString(out + Prompt)
}

func (s *Shell) run(line string) string {
	if line == "" {
		return ""
	}
	// Support a single trailing "> file" redirection.
	var redirect string
	if idx := strings.LastIndex(line, ">"); idx >= 0 && !strings.Contains(line[:idx], "'") {
		redirect = strings.TrimSpace(line[idx+1:])
		line = strings.TrimSpace(line[:idx])
	}
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]

	fn, ok := shellBuiltins[cmd]
	if !ok {
		return fmt.Sprintf("sh: %s: not found", cmd)
	}
	if !s.binaryPresent(cmd) {
		return fmt.Sprintf("sh: %s: not found", cmd)
	}
	out := fn(s, args)
	if redirect != "" {
		if err := s.proc.WriteFile(redirect, []byte(out+"\n"), 0o644); err != nil {
			return fmt.Sprintf("sh: %s: %v", redirect, err)
		}
		return ""
	}
	return out
}

// binaryPresent checks /bin and /usr/bin in the process namespace —
// this is what makes de-bloated images observable from the shell.
func (s *Shell) binaryPresent(name string) bool {
	for _, dir := range []string{"/bin/", "/usr/bin/", "/sbin/"} {
		if _, err := s.proc.Stat(dir + name); err == nil {
			return true
		}
	}
	return false
}

func (s *Shell) cmdEcho(args []string) string { return strings.Join(args, " ") }

func (s *Shell) cmdCat(args []string) string {
	var out []string
	for _, path := range args {
		data, err := s.proc.ReadFile(path)
		if err != nil {
			out = append(out, fmt.Sprintf("cat: %s: %v", path, err))
			continue
		}
		out = append(out, strings.TrimRight(string(data), "\n"))
	}
	return strings.Join(out, "\n")
}

func (s *Shell) cmdLs(args []string) string {
	dir := "."
	if len(args) > 0 {
		dir = args[0]
	}
	ents, err := s.proc.ReadDir(dir)
	if err != nil {
		return fmt.Sprintf("ls: %s: %v", dir, err)
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name
	}
	sort.Strings(names)
	return strings.Join(names, "\n")
}

func (s *Shell) cmdPs(args []string) string {
	var rows []string
	rows = append(rows, "PID   CONTAINER       COMM")
	for _, p := range s.k.Procs() {
		c := p.Container
		if c == "" {
			c = "-"
		}
		rows = append(rows, fmt.Sprintf("%-5d %-15s %s", p.PID, c, p.Comm))
	}
	return strings.Join(rows, "\n")
}

func (s *Shell) cmdMount(args []string) string {
	var rows []string
	for _, m := range s.proc.NS.Mounts() {
		rows = append(rows, fmt.Sprintf("%s type %s", m.Path, m.FS.Type()))
	}
	return strings.Join(rows, "\n")
}

func (s *Shell) cmdTouch(args []string) string {
	for _, p := range args {
		f, err := s.proc.Open(p, OCreate|OWronly, 0o644)
		if err != nil {
			return fmt.Sprintf("touch: %s: %v", p, err)
		}
		f.Close()
	}
	return ""
}

func (s *Shell) cmdRm(args []string) string {
	for _, p := range args {
		if err := s.proc.Unlink(p); err != nil {
			return fmt.Sprintf("rm: %s: %v", p, err)
		}
	}
	return ""
}

func (s *Shell) cmdMkdir(args []string) string {
	for _, p := range args {
		if err := s.proc.Mkdir(p, 0o755); err != nil {
			return fmt.Sprintf("mkdir: %s: %v", p, err)
		}
	}
	return ""
}

func (s *Shell) cmdPwd(args []string) string { return s.proc.CWD }

func (s *Shell) cmdCd(args []string) string {
	if len(args) == 0 {
		s.proc.CWD = "/"
		return ""
	}
	target := joinPath(s.proc.CWD, args[0])
	node, err := s.k.resolve(s.proc.NS, target, true)
	if err != nil {
		return fmt.Sprintf("cd: %s: %v", args[0], err)
	}
	if !node.IsDir() {
		return fmt.Sprintf("cd: %s: not a directory", args[0])
	}
	s.proc.CWD = target
	return ""
}

func (s *Shell) cmdId(args []string) string {
	return fmt.Sprintf("uid=%d gid=%d caps=%s cgroup=%s seccomp=%s",
		s.proc.UID, s.proc.GID, strings.Join(s.proc.Caps, ","), s.proc.Cgroup, s.proc.Seccomp)
}

func (s *Shell) cmdUname(args []string) string {
	if len(args) > 0 && args[0] == "-r" {
		return s.k.Version.String() + ".0"
	}
	return "Linux vmsh-guest " + s.k.Version.String() + ".0 x86_64"
}

func (s *Shell) cmdDf(args []string) string {
	var rows []string
	rows = append(rows, "Mount          Blocks     Free")
	for _, m := range s.proc.NS.Mounts() {
		st := m.FS.Statfs()
		rows = append(rows, fmt.Sprintf("%-14s %-10d %d", m.Path, st.Blocks, st.BlocksFree))
	}
	return strings.Join(rows, "\n")
}

func (s *Shell) cmdSync(args []string) string {
	if err := s.proc.Sync(); err != nil {
		return "sync: " + err.Error()
	}
	return ""
}

func (s *Shell) cmdHostname(args []string) string {
	data, err := s.proc.ReadFile("/etc/hostname")
	if err != nil {
		return "vmsh-guest"
	}
	return strings.TrimSpace(string(data))
}

func (s *Shell) cmdDmesg(args []string) string {
	n := len(s.k.Log)
	if n > 20 {
		return strings.Join(s.k.Log[n-20:], "\n")
	}
	return strings.Join(s.k.Log, "\n")
}

// cmdSha256 hashes a file in 1 MiB reads — the "sustained load test"
// of §6.1 (checksumming a large OS image through the device).
func (s *Shell) cmdSha256(args []string) string {
	if len(args) != 1 {
		return "usage: sha256sum <file>"
	}
	f, err := s.proc.Open(args[0], ORdonly, 0)
	if err != nil {
		return fmt.Sprintf("sha256sum: %s: %v", args[0], err)
	}
	defer f.Close()
	h := sha256.New()
	buf := make([]byte, 1<<20)
	for {
		n, err := f.Read(buf)
		if n > 0 {
			h.Write(buf[:n])
		}
		if n == 0 || err != nil {
			break
		}
	}
	return fmt.Sprintf("%x  %s", h.Sum(nil), args[0])
}

// cmdChpasswd updates a user's password hash in <root>/etc/shadow —
// use-case #2, the agent-less rescue system.
func (s *Shell) cmdChpasswd(args []string) string {
	if len(args) < 1 || !strings.Contains(args[0], ":") {
		return "usage: chpasswd user:password [rootdir]"
	}
	user, pass, _ := strings.Cut(args[0], ":")
	root := "/"
	if len(args) > 1 {
		root = args[1]
	}
	shadowPath := joinPath(root, "etc/shadow")
	data, err := s.proc.ReadFile(shadowPath)
	if err != nil {
		return fmt.Sprintf("chpasswd: %s: %v", shadowPath, err)
	}
	hash := fmt.Sprintf("$6$vmsh$%x", sha256.Sum256([]byte(pass)))
	var out []string
	found := false
	for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		parts := strings.SplitN(line, ":", 3)
		if len(parts) >= 2 && parts[0] == user {
			rest := ""
			if len(parts) == 3 {
				rest = ":" + parts[2]
			}
			out = append(out, user+":"+hash+rest)
			found = true
		} else {
			out = append(out, line)
		}
	}
	if !found {
		return fmt.Sprintf("chpasswd: user %s not found", user)
	}
	if err := s.proc.WriteFile(shadowPath, []byte(strings.Join(out, "\n")+"\n"), 0o600); err != nil {
		return "chpasswd: " + err.Error()
	}
	return fmt.Sprintf("chpasswd: password for %s updated", user)
}

// cmdIfconfig lists the registered network interfaces.
func (s *Shell) cmdIfconfig(args []string) string {
	ifaces := s.k.Ifaces()
	if len(ifaces) == 0 {
		return "ifconfig: no interfaces"
	}
	var rows []string
	for _, i := range ifaces {
		rows = append(rows, fmt.Sprintf("%s: HWaddr %s inet %s", i.Name, netsim.MAC(i.MAC), i.IP))
		rows = append(rows, fmt.Sprintf("    TX packets %d  RX packets %d", i.TxPackets, i.RxPackets))
	}
	return strings.Join(rows, "\n")
}

// netIface picks the interface the network builtins operate on.
func (s *Shell) netIface() (*Iface, string) {
	ifaces := s.k.Ifaces()
	if len(ifaces) == 0 {
		return nil, "no network interface (is a VMSH net device attached?)"
	}
	return ifaces[0], ""
}

// cmdPing sends ICMP-style echo requests over the VMSH net device and
// reports virtual-clock round trips.
func (s *Shell) cmdPing(args []string) string {
	if len(args) < 1 {
		return "usage: ping <ip> [count]"
	}
	ifc, errmsg := s.netIface()
	if errmsg != "" {
		return "ping: " + errmsg
	}
	dst, err := ParseIP4(args[0])
	if err != nil {
		return "ping: " + err.Error()
	}
	count := 3
	if len(args) > 1 {
		if _, err := fmt.Sscanf(args[1], "%d", &count); err != nil || count < 1 {
			return "ping: bad count " + args[1]
		}
	}
	const size = 56
	var rows []string
	rows = append(rows, fmt.Sprintf("PING %s: %d data bytes", dst, size))
	received := 0
	for seq := 0; seq < count; seq++ {
		start := s.k.Clock().Now()
		res, ok, err := ifc.Ping(dst, uint16(seq), size)
		if err != nil {
			return "ping: " + err.Error()
		}
		rtt := s.k.Clock().Since(start)
		if !ok {
			rows = append(rows, fmt.Sprintf("seq=%d timeout", seq))
			continue
		}
		received++
		rows = append(rows, fmt.Sprintf("%d bytes from %s: seq=%d time=%v", res.Payload, dst, res.Seq, rtt))
	}
	rows = append(rows, fmt.Sprintf("%d packets transmitted, %d received, %d%% packet loss",
		count, received, (count-received)*100/count))
	return strings.Join(rows, "\n")
}

// cmdIperf streams bulk data to a peer and reports the throughput the
// receiver acknowledged, all in virtual time.
func (s *Shell) cmdIperf(args []string) string {
	if len(args) < 1 {
		return "usage: iperf <ip> [megabytes]"
	}
	ifc, errmsg := s.netIface()
	if errmsg != "" {
		return "iperf: " + errmsg
	}
	dst, err := ParseIP4(args[0])
	if err != nil {
		return "iperf: " + err.Error()
	}
	mb := 4
	if len(args) > 1 {
		if _, err := fmt.Sscanf(args[1], "%d", &mb); err != nil || mb < 1 {
			return "iperf: bad size " + args[1]
		}
	}
	total := int64(mb) << 20
	start := s.k.Clock().Now()
	sent, err := ifc.Stream(dst, total)
	if err != nil {
		return "iperf: " + err.Error()
	}
	elapsed := s.k.Clock().Since(start)
	st, ok, err := ifc.QueryPeerStats(dst)
	if err != nil {
		return "iperf: " + err.Error()
	}
	if !ok {
		return "iperf: peer did not answer stat request"
	}
	mbps := 0.0
	if elapsed > 0 {
		mbps = float64(st.Bytes) / elapsed.Seconds() / 1e6
	}
	return fmt.Sprintf("sent %d packets (%d bytes), received %d bytes in %v = %.1f MB/s",
		sent, total, st.Bytes, elapsed, mbps)
}

// cmdApkList prints installed packages from <root>/lib/apk/db — the
// input of use-case #3, the package security scanner.
func (s *Shell) cmdApkList(args []string) string {
	root := "/"
	if len(args) > 0 {
		root = args[0]
	}
	data, err := s.proc.ReadFile(joinPath(root, "lib/apk/db/installed"))
	if err != nil {
		return fmt.Sprintf("apk-list: %v", err)
	}
	return strings.TrimRight(string(data), "\n")
}
