package chainlog_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"unicode/utf8"

	"vmsh/internal/chainlog"
	"vmsh/internal/faults"
	"vmsh/internal/hypervisor"
	"vmsh/internal/lifecycle"
	"vmsh/internal/replay"
)

// format is one file format built on the framing: a valid encoding, a
// decode→encode round trip, and a recogniser for the format's typed
// corruption error that returns the framing reason it carries.
type format struct {
	name    string
	valid   []byte
	recode  func([]byte) ([]byte, error)
	corrupt func(error) (reason string, ok bool)
}

func formats(t *testing.T) []format {
	lg := &replay.Log{Version: replay.Version, Label: "frame", Seed: 3, Records: []replay.Record{
		{Op: "ptrace:attach", Stage: "attach", Args: 1, Result: 2, VTime: 10},
		{Op: "procvm:readv", Stage: "scan_kernel", Args: 3, Result: 4, VTime: 20},
		{Op: "vq:blk", Args: 5, Result: 6, Err: "eio", VTime: 30},
	}}
	lg.Footer = replay.Footer{VTime: 40, RAM: []uint64{7}, Metrics: map[string]int64{"m": 1}}
	lg.Renumber()
	var rb bytes.Buffer
	if err := lg.Encode(&rb); err != nil {
		t.Fatal(err)
	}

	data := func(b byte) []byte { return bytes.Repeat([]byte{b}, 8) }
	snap := &lifecycle.Snapshot{
		Label: "frame", VTime: 99,
		Config:    hypervisor.Config{Name: "frame", KernelVersion: "5.10", RAMSize: 32 << 20},
		VCPUs:     []lifecycle.VCPUState{{Index: 0}},
		Cursors:   []lifecycle.DiskCursors{{Disk: "vda"}},
		Pages:     []lifecycle.PageRecord{{Slot: 0, Index: 1, Data: data(1)}},
		Disks:     []lifecycle.DiskImage{{Name: "vda", Size: 1 << 20, Blocks: []lifecycle.BlockRecord{{Index: 2, Data: data(2)}}}},
		Session:   &lifecycle.SessionState{ImageName: "tools.img", ImageSize: 1 << 20, Blocks: []lifecycle.BlockRecord{{Data: data(3)}}},
		RAMHashes: []uint64{8},
	}
	var sb bytes.Buffer
	if _, err := snap.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}

	return []format{
		{
			name:  "replay",
			valid: rb.Bytes(),
			recode: func(b []byte) ([]byte, error) {
				lg, err := replay.Read(bytes.NewReader(b))
				if err != nil {
					return nil, err
				}
				var out bytes.Buffer
				err = lg.Encode(&out)
				return out.Bytes(), err
			},
			corrupt: func(err error) (string, bool) {
				var d *replay.Divergence
				if !errors.As(err, &d) {
					return "", false
				}
				return d.Reason, true
			},
		},
		{
			name:  "snapshot",
			valid: sb.Bytes(),
			recode: func(b []byte) ([]byte, error) {
				s, err := lifecycle.Read(bytes.NewReader(b))
				if err != nil {
					return nil, err
				}
				var out bytes.Buffer
				_, err = s.WriteTo(&out)
				return out.Bytes(), err
			},
			corrupt: func(err error) (string, bool) {
				var ce *chainlog.Error
				if !errors.Is(err, lifecycle.ErrSnapshotCorrupt) || !errors.As(err, &ce) {
					return "", false
				}
				return ce.Reason, true
			},
		},
	}
}

// rechain recomputes every line's "ck" from the framing's definition:
// the header seeds the chain with its whole line, and each later line
// folds the previous checksum with its bytes before ,"ck".
func rechain(lines []string) []string {
	out := append([]string(nil), lines...)
	ck := uint64(faults.NewDigest().U64(0).Str(out[0]))
	for i := 1; i < len(out); i++ {
		prefix := out[i][:strings.LastIndex(out[i], `,"ck":"`)]
		ck = uint64(faults.NewDigest().U64(ck).Str(prefix))
		out[i] = fmt.Sprintf(`%s,"ck":"%016x"}`, prefix, ck)
	}
	return out
}

func join(lines []string) []byte { return []byte(strings.Join(lines, "\n") + "\n") }

// TestFramingEdgeCases runs every framing case against both formats:
// the same damage is caught by the same reader with the same reason,
// and each format reports it as its own typed corruption.
func TestFramingEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(l []string) []byte
		// reason is the chainlog.Error reason expected ("" = accepted);
		// plain marks a wrong-kind-of-file error that is not corruption.
		reason string
		plain  bool
	}{
		{"canonical", func(l []string) []byte { return join(l) }, "", false},
		{"ck definition", func(l []string) []byte { return join(rechain(l)) }, "", false},
		{"blank lines anywhere", func(l []string) []byte {
			var out []string
			for _, s := range l {
				out = append(out, s, "", "  \t")
			}
			return join(out)
		}, "", false},
		{"empty input", func([]string) []byte { return nil }, "empty stream", false},
		{"bad header", func(l []string) []byte { return join(append([]string{"not json"}, l[1:]...)) }, "bad header", false},
		{"foreign magic", func(l []string) []byte {
			return join(append([]string{`{"magic":"other-tool","v":1}`}, l[1:]...))
		}, "", true},
		{"version skew", func(l []string) []byte {
			h := strings.Replace(l[0], `,"v":`, `,"v":9`, 1)
			return join(append([]string{h}, l[1:]...))
		}, "", true},
		{"flipped byte", func(l []string) []byte {
			l[2] = strings.Replace(l[2], `"`, `'`, 1)
			return join(l)
		}, "checksum chain mismatch", false},
		{"swapped lines", func(l []string) []byte {
			l[1], l[2] = l[2], l[1]
			return join(l)
		}, "checksum chain mismatch", false},
		{"deleted line", func(l []string) []byte { return join(append(l[:1], l[2:]...)) }, "checksum chain mismatch", false},
		{"no ck field", func(l []string) []byte {
			l[1] = l[1][:strings.LastIndex(l[1], `,"ck":"`)] + "}"
			return join(l)
		}, "no trailing \"ck\" field", false},
		{"bad ck digits", func(l []string) []byte {
			l[1] = l[1][:strings.LastIndex(l[1], `,"ck":"`)] + `,"ck":"zzzzzzzzzzzzzzzz"}`
			return join(l)
		}, "bad checksum field", false},
		{"chained but not JSON", func(l []string) []byte {
			l[1] = `{oops,"ck":"0000000000000000"}`
			return join(rechain(l))
		}, "unparseable line", false},
		{"truncated", func(l []string) []byte { return join(l[:len(l)-1]) }, "truncated stream (no footer)", false},
		{"trailing data after footer", func(l []string) []byte { return join(append(l, l[1])) }, "trailing data after footer", false},
	}
	for _, f := range formats(t) {
		lines := strings.Split(strings.TrimSuffix(string(f.valid), "\n"), "\n")
		for _, tc := range cases {
			t.Run(f.name+"/"+tc.name, func(t *testing.T) {
				got, err := f.recode(tc.mutate(append([]string(nil), lines...)))
				switch {
				case tc.reason == "" && !tc.plain:
					if err != nil {
						t.Fatalf("rejected: %v", err)
					}
					if !bytes.Equal(got, f.valid) {
						t.Fatalf("re-encoding differs from the canonical bytes:\n%s", got)
					}
				case tc.plain:
					if _, corrupt := f.corrupt(err); err == nil || corrupt {
						t.Fatalf("want a plain error, got %T %v", err, err)
					}
				default:
					reason, ok := f.corrupt(err)
					if !ok {
						t.Fatalf("want typed corruption, got %T %v", err, err)
					}
					if !strings.Contains(reason, tc.reason) {
						t.Fatalf("reason %q does not mention %q", reason, tc.reason)
					}
				}
			})
		}
	}
}

// TestNonCanonicalLinesRefused: a hand-edited record line whose
// re-encoding differs from its own bytes is refused as a typed
// unparseable line, though encoding/json would decode it; the records
// that stay on encoding/json still take such an edit.
func TestNonCanonicalLinesRefused(t *testing.T) {
	cases := []struct {
		format, name string
		line         string // prefix of the line to edit
		old, new     string
		refused      bool
	}{
		{"replay", "extra whitespace", `{"s":1,`, `"op":`, `"op": `, true},
		{"replay", "reordered keys", `{"s":1,`, `"op":"ptrace:attach","st":"attach"`, `"st":"attach","op":"ptrace:attach"`, true},
		{"replay", "escaped plain ASCII", `{"s":1,`, `"op":"ptrace:attach"`, `"op":"ptrace:\u0061ttach"`, true},
		{"replay", "upper-case digest", `{"s":1,`, `"a":"0000000000000001"`, `"a":"000000000000000A"`, true},
		{"replay", "footer keeps encoding/json", `{"end":true`, `"n":3`, `"n": 3`, false},
		{"snapshot", "explicit slot 0", `{"t":"page"`, `{"t":"page",`, `{"t":"page","slot":0,`, true},
		{"snapshot", "explicit idx 0", `{"t":"simage"`, `{"t":"simage",`, `{"t":"simage","idx":0,`, true},
		{"snapshot", "extra whitespace", `{"t":"page"`, `{"t":"page"`, `{"t": "page"`, true},
		{"snapshot", "reordered keys", `{"t":"block"`, `"idx":2,"data":"AgICAgICAgI=","disk":"vda"`, `"disk":"vda","idx":2,"data":"AgICAgICAgI="`, true},
		{"snapshot", "escaped plain ASCII", `{"t":"block"`, `"disk":"vda"`, `"disk":"v\u0064a"`, true},
		{"snapshot", "config reordered keys", `{"t":"config"`, `"Kind":0,"Name":"frame"`, `"Name":"frame","Kind":0`, true},
		{"snapshot", "config extra whitespace", `{"t":"config"`, `"RAMSize":`, `"RAMSize": `, true},
		{"snapshot", "disk record keeps encoding/json", `{"t":"disk"`, `,"disk":`, `, "disk":`, false},
	}
	fs := map[string]format{}
	for _, f := range formats(t) {
		fs[f.name] = f
	}
	for _, tc := range cases {
		t.Run(tc.format+"/"+tc.name, func(t *testing.T) {
			f := fs[tc.format]
			lines := strings.Split(strings.TrimSuffix(string(f.valid), "\n"), "\n")
			edited := false
			for i, l := range lines {
				if strings.HasPrefix(l, tc.line) && strings.Contains(l, tc.old) {
					lines[i], edited = strings.Replace(l, tc.old, tc.new, 1), true
					break
				}
			}
			if !edited {
				t.Fatalf("no line %q… holds %q", tc.line, tc.old)
			}
			got, err := f.recode(join(rechain(lines)))
			if !tc.refused {
				if err != nil || !bytes.Equal(got, f.valid) {
					t.Fatalf("edit not taken: %v", err)
				}
				return
			}
			reason, ok := f.corrupt(err)
			if !ok || !strings.HasPrefix(reason, "unparseable line") {
				t.Fatalf("want a typed unparseable line, got %T %v", err, err)
			}
		})
	}
}

// TestWriterStickyError: a failing sink surfaces from Flush.
func TestWriterStickyError(t *testing.T) {
	w := chainlog.NewWriter(failWriter{}, "m", 1, "")
	for i := 0; i < 3; i++ {
		w.Line(bytes.Repeat([]byte("x"), 8192))
	}
	if _, err := w.Flush(); err == nil {
		t.Fatal("write error lost")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestAppendStringEveryByte: AppendString writes json.Marshal's bytes
// for every byte value, and the Scanner reads back exactly the strings
// that round-trip through JSON.
func TestAppendStringEveryByte(t *testing.T) {
	for c := 0; c < 256; c++ {
		s := "a" + string([]byte{byte(c)}) + "z"
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		got := chainlog.AppendString(nil, s)
		if !bytes.Equal(got, want) {
			t.Fatalf("byte %#x: got %s, want %s", c, got, want)
		}
		sc := chainlog.NewScanner(got)
		v := sc.Str()
		if err := sc.Done(1); (err == nil) != utf8.ValidString(s) || err == nil && string(v) != s {
			t.Fatalf("byte %#x: scanned %q, %v", c, v, err)
		}
	}
}
