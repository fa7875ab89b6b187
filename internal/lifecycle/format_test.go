package lifecycle

import (
	"bytes"
	"reflect"
	"testing"

	"vmsh/internal/chainlog/chainlogtest"
	"vmsh/internal/hypervisor"
)

// v1Header is the header line of a version-1 snapshot file.
const v1Header = `{"t":"header","magic":"vmsh-snap","v":1,"label":"old","vtime":1}`

// tinySnapshot carries every record type without launching a VM.
func tinySnapshot() *Snapshot {
	data := func(b byte) []byte { return bytes.Repeat([]byte{b}, 16) }
	return &Snapshot{
		Label: "tiny", VTime: 1234,
		Config:    hypervisor.Config{Name: "tiny", KernelVersion: "5.10", RAMSize: 32 << 20, Seed: 1},
		VCPUs:     []VCPUState{{Index: 0}},
		Cursors:   []DiskCursors{{Disk: "vda"}},
		Pages:     []PageRecord{{Slot: 0, Index: 3, Data: data(1)}},
		Disks:     []DiskImage{{Name: "vda", Size: 1 << 20, Blocks: []BlockRecord{{Index: 2, Data: data(2)}}}},
		Session:   &SessionState{ImageName: "tools.img", ImageSize: 1 << 20, Storage: "memory", Blocks: []BlockRecord{{Data: data(3)}}},
		RAMHashes: []uint64{0xfeed},
	}
}

func encodeSnapshot(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzSnapshotRead: Read never panics on arbitrary bytes, agrees with
// the encoding/json reference decoder (checkAgainstReference), and any
// snapshot it accepts re-encodes and re-reads to an equal Snapshot.
// Each input is also read with its checksums recomputed, so fuzzed
// edits reach the line decoders.
func FuzzSnapshotRead(f *testing.F) {
	tiny := encodeSnapshot(f, tinySnapshot())
	f.Add(tiny)
	f.Add(tiny[:len(tiny)/2])
	f.Add([]byte(v1Header + "\n"))
	f.Add([]byte("not a snapshot"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSnapshot(t, data)
		checkSnapshot(t, chainlogtest.Rechain(data))
	})
}

func checkSnapshot(t *testing.T, data []byte) {
	t.Helper()
	s, err := Read(bytes.NewReader(data))
	checkAgainstReference(t, data, s, err)
	if err != nil {
		return
	}
	again, err := Read(bytes.NewReader(encodeSnapshot(t, s)))
	if err != nil {
		t.Fatalf("canonical re-encoding rejected: %v", err)
	}
	if !reflect.DeepEqual(s, again) {
		t.Fatalf("re-read snapshot differs:\n%+v\n%+v", s, again)
	}
}
