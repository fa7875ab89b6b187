package replay

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
)

// benchLog is a synthetic log at the scale of one recorded attach
// (about 300k crossings), shaped like one: nine in ten crossings are
// the sideloader's 8-byte page-table reads.
func benchLog() *Log {
	const n = 300_000
	rng := rand.New(rand.NewSource(1))
	others := []string{"ptrace:getregs", "ptrace:inject:ioctl", "procvm:writev", "vq:blk", "kvm:mmio"}
	lg := &Log{Version: Version, Label: "bench", Seed: 1, Records: make([]Record, n)}
	vt := int64(0)
	for i := range lg.Records {
		r := Record{Op: "procvm:readv", Stage: "scan_kernel", Args: rng.Uint64(), Result: rng.Uint64()}
		if rng.Intn(10) == 0 {
			r.Op, r.Stage = others[rng.Intn(len(others))], "setup_devices"
		}
		vt += int64(rng.Intn(2000))
		r.VTime = vt
		lg.Records[i] = r
	}
	lg.Renumber()
	lg.Footer.VTime = vt
	lg.Footer.RAM = []uint64{rng.Uint64(), rng.Uint64()}
	lg.Footer.Metrics = map[string]int64{"blk.requests": 12, "procvm.calls": n}
	return lg
}

func BenchmarkLogEncode(b *testing.B) {
	lg := benchLog()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := lg.Encode(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLogRead(b *testing.B) {
	var buf bytes.Buffer
	if err := benchLog().Encode(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
