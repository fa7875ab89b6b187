package replay

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vmsh/internal/chainlog/chainlogtest"
)

// sampleLog is a small, fully valid log touching several crossing
// classes, an error outcome and a footer with RAM hashes and metrics.
func sampleLog() *Log {
	lg := &Log{Version: Version, Label: "sample", Seed: 7}
	recs := []Record{
		{Op: "ptrace:attach", Stage: "attach", Args: 0x1111, Result: 0x2222, VTime: 100},
		{Op: "procvm:readv", Stage: "scan_kernel", Args: 0x3333, Result: 0x4444, VTime: 250},
		{Op: "procvm:readv", Stage: "scan_kernel", Args: 0x5555, Result: 0x6666, VTime: 400},
		{Op: "ptrace:inject:mmap", Stage: "inject_library", Args: 0x7777, Result: 0x8888, VTime: 900},
		{Op: "procvm:writev", Stage: "inject_library", Args: 0x9999, Result: 0xaaaa, Err: "efault", VTime: 1200},
		{Op: "vq:blk", Args: 0xbbbb, Result: 0xcccc, VTime: 5000},
		{Op: "net:link", Args: 0xdddd, Result: 0xeeee, Err: "drop", VTime: 7000},
		{Op: "kvm:mmio", Args: 0xf0f0, Result: 0x0f0f, VTime: 7500},
	}
	lg.Records = recs
	lg.Renumber()
	lg.Footer.VTime = 8000
	lg.Footer.RAM = []uint64{0xdeadbeef, 0x12345678}
	lg.Footer.Metrics = map[string]int64{"procvm.calls": 3, "blk.requests": 1}
	return lg
}

func encode(t *testing.T, lg *Log) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := lg.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

func mustEncode(lg *Log) []byte {
	var buf bytes.Buffer
	if err := lg.Encode(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// randomLog builds a structurally valid pseudo-random log.
func randomLog(rng *rand.Rand) *Log {
	ops := []string{
		"ptrace:attach", "ptrace:interrupt", "ptrace:resume",
		"ptrace:getregs", "ptrace:setregs", "ptrace:inject:ioctl",
		"ptrace:inject:mmap", "procvm:readv", "procvm:writev",
		"procfs:fdinfo", "bpf:kprobe", "vq:blk", "vq:cons", "vq:net",
		"net:link", "kvm:mmio",
	}
	errs := []string{"", "", "", "drop", "efault", "eio", "eperm", "enosys", "eintr", "eagain", "err"}
	stages := []string{"", "attach", "scan_kernel", "inject_library", "setup_devices"}
	lg := &Log{Version: Version, Label: "fuzz-seed", Seed: rng.Uint64()}
	vt := int64(0)
	for i, n := 0, rng.Intn(40); i < n; i++ {
		vt += int64(rng.Intn(10000))
		lg.Records = append(lg.Records, Record{
			Op:     ops[rng.Intn(len(ops))],
			Stage:  stages[rng.Intn(len(stages))],
			Args:   rng.Uint64(),
			Result: rng.Uint64(),
			Err:    errs[rng.Intn(len(errs))],
			VTime:  vt,
		})
	}
	lg.Renumber()
	lg.Footer.VTime = vt + int64(rng.Intn(1000))
	for i, n := 0, rng.Intn(4); i < n; i++ {
		lg.Footer.RAM = append(lg.Footer.RAM, rng.Uint64())
	}
	lg.Footer.Metrics = map[string]int64{}
	for i, n := 0, rng.Intn(5); i < n; i++ {
		lg.Footer.Metrics["m"+string(rune('a'+i))] = int64(rng.Intn(1 << 20))
	}
	return lg
}

// TestRoundTripProperty: encode→decode→encode is byte-identical, and
// the decoded log is semantically identical to the original, across
// many seeded random logs.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		lg := randomLog(rng)
		first := encode(t, lg)
		dec, err := Read(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("iter %d: decode of own encoding failed: %v\n%s", i, err, first)
		}
		if d := VerifyLogs(lg, dec); d != nil {
			t.Fatalf("iter %d: decoded log differs: %v", i, d)
		}
		if dec.Label != lg.Label || dec.Seed != lg.Seed || dec.Version != lg.Version {
			t.Fatalf("iter %d: header fields lost", i)
		}
		second := encode(t, dec)
		if !bytes.Equal(first, second) {
			t.Fatalf("iter %d: re-encoding is not byte-identical", i)
		}
	}
}

// TestGoldenLog pins the v1 wire format: the committed golden file
// must decode to exactly the sample log, and the sample log must
// encode to exactly the golden bytes — so any accidental format
// change fails loudly instead of silently versioning the format.
func TestGoldenLog(t *testing.T) {
	golden := filepath.Join("testdata", "golden_v1.log")
	if os.Getenv("REPLAY_WRITE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, mustEncode(sampleLog()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden log: %v", err)
	}
	if got := encode(t, sampleLog()); !bytes.Equal(got, want) {
		t.Fatalf("sample log no longer encodes to the golden bytes:\ngot:\n%s\nwant:\n%s", got, want)
	}
	dec, err := Read(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("golden log does not decode: %v", err)
	}
	if d := VerifyLogs(sampleLog(), dec); d != nil {
		t.Fatalf("golden log decodes to a different session: %v", d)
	}
}

// TestVersionSkew: a log from a different format version is rejected
// with a plain, descriptive error — not a Divergence (it is not
// corruption) and not a panic.
func TestVersionSkew(t *testing.T) {
	lg := sampleLog()
	lg.Version = Version + 1
	data := encode(t, lg)
	_, err := Read(bytes.NewReader(data))
	if err == nil {
		t.Fatal("future-version log accepted")
	}
	var div *Divergence
	if errors.As(err, &div) {
		t.Fatalf("version skew misreported as corruption: %v", err)
	}
	if !strings.Contains(err.Error(), "version skew") {
		t.Fatalf("unhelpful skew error: %v", err)
	}
	if _, err := Read(strings.NewReader(`{"magic":"other-tool","v":1}` + "\n")); err == nil ||
		strings.Contains(err.Error(), "divergence") {
		t.Fatalf("foreign magic: got %v", err)
	}
	if _, err := Read(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
}

// TestCorruptionDivergence: every kind of damage decodes to a
// *Divergence naming the first bad element.
func TestCorruptionDivergence(t *testing.T) {
	base := encode(t, sampleLog())
	lines := strings.Split(strings.TrimSuffix(string(base), "\n"), "\n")

	cases := []struct {
		name   string
		mutate func() string
		reason string
	}{
		{"flipped byte in record", func() string {
			b := append([]byte(nil), base...)
			b[len(b)/2] ^= 0x01
			return string(b)
		}, ""},
		{"deleted record line", func() string {
			return strings.Join(append(append([]string{}, lines[:3]...), lines[4:]...), "\n") + "\n"
		}, ""},
		{"swapped record lines", func() string {
			l := append([]string{}, lines...)
			l[2], l[3] = l[3], l[2]
			return strings.Join(l, "\n") + "\n"
		}, "checksum chain"},
		{"truncated (no footer)", func() string {
			return strings.Join(lines[:len(lines)-1], "\n") + "\n"
		}, "truncated"},
		{"trailing data after footer", func() string {
			return string(base) + lines[1] + "\n"
		}, "trailing"},
		{"not json", func() string {
			l := append([]string{}, lines...)
			l[1] = "not json at all"
			return strings.Join(l, "\n") + "\n"
		}, "unparseable"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(tc.mutate()))
			if err == nil {
				t.Fatal("corrupted log accepted")
			}
			var div *Divergence
			if !errors.As(err, &div) {
				t.Fatalf("corruption not reported as *Divergence: %T %v", err, err)
			}
			if tc.reason != "" && !strings.Contains(div.Reason, tc.reason) {
				t.Fatalf("reason %q does not mention %q", div.Reason, tc.reason)
			}
		})
	}

	// Semantic damage that keeps the file well-formed (checksums
	// recomputed by Encode) is caught by the structural validators.
	t.Run("unknown crossing class", func(t *testing.T) {
		lg := sampleLog()
		lg.Records[2].Op = "made:up"
		lg.Renumber()
		_, err := Read(bytes.NewReader(encode(t, lg)))
		var div *Divergence
		if !errors.As(err, &div) || !strings.Contains(div.Reason, "unknown crossing class") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("unknown error class", func(t *testing.T) {
		lg := sampleLog()
		lg.Records[2].Err = "ebogus"
		_, err := Read(bytes.NewReader(encode(t, lg)))
		var div *Divergence
		if !errors.As(err, &div) || !strings.Contains(div.Reason, "unknown error class") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("vtime regression", func(t *testing.T) {
		lg := sampleLog()
		lg.Records[3].VTime = 1 // before record 3's 400ns
		_, err := Read(bytes.NewReader(encode(t, lg)))
		var div *Divergence
		if !errors.As(err, &div) || !strings.Contains(div.Reason, "vtime regression") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("footer count mismatch", func(t *testing.T) {
		lg := sampleLog()
		lg.Footer.Crossings++
		_, err := Read(bytes.NewReader(encode(t, lg)))
		var div *Divergence
		if !errors.As(err, &div) || !strings.Contains(div.Reason, "crossings") {
			t.Fatalf("got %v", err)
		}
	})
}

func TestVerifyLogsDetectsEveryField(t *testing.T) {
	base := sampleLog()
	if d := VerifyLogs(base, sampleLog()); d != nil {
		t.Fatalf("identical logs diverge: %v", d)
	}
	mut := func(f func(*Log)) *Log {
		lg := sampleLog()
		f(lg)
		return lg
	}
	cases := []struct {
		name   string
		log    *Log
		reason string
	}{
		{"op", mut(func(l *Log) { l.Records[1].Op = "bpf:kprobe" }), "op mismatch"},
		{"stage", mut(func(l *Log) { l.Records[1].Stage = "other" }), "stage mismatch"},
		{"args", mut(func(l *Log) { l.Records[1].Args ^= 1 }), "args digest"},
		{"err", mut(func(l *Log) { l.Records[4].Err = "eio" }), "error class"},
		{"result", mut(func(l *Log) { l.Records[1].Result ^= 1 }), "result digest"},
		{"vtime", mut(func(l *Log) { l.Records[1].VTime++ }), "vtime mismatch"},
		{"count", mut(func(l *Log) { l.Records = l.Records[:5]; l.Renumber() }), "count mismatch"},
		{"footer vtime", mut(func(l *Log) { l.Footer.VTime++ }), "final vtime"},
		{"ram", mut(func(l *Log) { l.Footer.RAM[1] ^= 1 }), "RAM hash"},
		{"metrics", mut(func(l *Log) { l.Footer.Metrics["blk.requests"] = 9 }), "metrics"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := VerifyLogs(base, tc.log)
			if d == nil {
				t.Fatal("mutation not detected")
			}
			if !strings.Contains(d.Reason, tc.reason) {
				t.Fatalf("reason %q does not mention %q", d.Reason, tc.reason)
			}
		})
	}
}

// FuzzReplayLog: Read never panics on arbitrary bytes, agrees with the
// encoding/json reference decoder (checkAgainstReference), and anything
// it accepts re-encodes canonically (encode∘decode is the identity on
// the wire). Each input is also read with its checksums recomputed, so
// fuzzed edits reach the line decoders.
func FuzzReplayLog(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(mustEncode(sampleLog()))
	f.Add([]byte(`{"magic":"vmsh-replay","v":1,"label":"x","seed":0}` + "\n"))
	f.Add([]byte(`{"magic":"vmsh-replay","v":2,"label":"x","seed":0}` + "\n"))
	f.Add([]byte("not a log"))
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 4; i++ {
		var buf bytes.Buffer
		_ = randomLog(rng).Encode(&buf)
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkLog(t, data)
		checkLog(t, chainlogtest.Rechain(data))
	})
}

func checkLog(t *testing.T, data []byte) {
	t.Helper()
	lg, err := Read(bytes.NewReader(data))
	checkAgainstReference(t, data, lg, err)
	if err != nil {
		return
	}
	var buf bytes.Buffer
	if err := lg.Encode(&buf); err != nil {
		t.Fatalf("accepted log fails to re-encode: %v", err)
	}
	lg2, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("canonical re-encoding rejected: %v", err)
	}
	if d := VerifyLogs(lg, lg2); d != nil {
		t.Fatalf("re-decoded log differs: %v", d)
	}
	// A well-formed log must also replay without error.
	if _, err := Run(lg); err != nil {
		t.Fatalf("accepted log fails to replay: %v", err)
	}
}
