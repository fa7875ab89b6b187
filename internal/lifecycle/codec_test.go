package lifecycle

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"vmsh/internal/chainlog"
	"vmsh/internal/chainlog/chainlogtest"
)

// The reference codec: every record through encoding/json, as WriteTo
// and Read handled them before page, block and simage records were
// hand-coded. The tests hold appendPayload and Read to it.

// refRecord renders the record WriteTo writes for l: for a page, block
// or simage record only the members that type carries.
func refRecord(t testing.TB, l snapLine) []byte {
	switch l.T {
	case "page", "block", "simage":
		w := snapLine{T: l.T, Index: l.Index, Data: l.Data}
		if l.T == "page" {
			w.Slot = l.Slot
		}
		if l.T == "block" {
			w.Disk = l.Disk
		}
		l = w
	}
	b, err := json.Marshal(l)
	if err != nil {
		t.Fatal(err)
	}
	return b[:len(b)-1]
}

func refRead(r io.Reader) (*Snapshot, error) {
	return read(r, func(elem int, line []byte, l *snapLine) error { return chainlog.Unmarshal(elem, line, l) })
}

// TestPayloadCodecMatchesReference: appendPayload writes the
// reference's bytes for any page, block or simage record, zero slot,
// index, data and disk name included, and parsePayload takes every
// such line the reference takes except one whose reference value
// re-encodes to other bytes.
func TestPayloadCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		l := snapLine{T: []string{"page", "block", "simage"}[rng.Intn(3)]}
		if rng.Intn(2) == 0 {
			l.Slot = rng.Uint32()
		}
		if rng.Intn(2) == 0 {
			l.Index = rng.Uint64() >> rng.Intn(64)
		}
		l.Data = make([]byte, []int{0, 1, 2, 3, 4, 100, PageSize}[rng.Intn(7)])
		rng.Read(l.Data)
		l.Disk = chainlogtest.RandString(rng)
		line := appendPayload(nil, &l)
		if want := refRecord(t, l); !bytes.Equal(line, want) {
			t.Fatalf("%+v:\nhand      %s\nreference %s", l, line, want)
		}
		line = append(line, `,"ck":"0000000000000000"}`...)
		var ref, dec snapLine
		if err := chainlog.Unmarshal(1, line, &ref); err != nil {
			t.Fatalf("reference refuses %s: %v", line, err)
		}
		err := parsePayload(1, line, payloadType(line), &dec)
		switch {
		case err == nil && !reflect.DeepEqual(dec, ref):
			t.Fatalf("%s:\nhand      %+v\nreference %+v", line, dec, ref)
		case err != nil && bytes.Equal(refRecord(t, ref), chainlog.Prefix(line)):
			t.Fatalf("canonical line refused: %s: %v", line, err)
		}
	}
}

// checkAgainstReference holds Read to the reference decoder on one
// input: the same verdict and an equal snapshot, with every page, block
// and simage line it takes in the reference encoder's exact form,
// except that Read may refuse a line the reference takes when
// re-encoding the reference's value of that line gives other bytes.
// That refusal is ErrSnapshotCorrupt wrapping an unparseable-line
// *chainlog.Error.
func checkAgainstReference(t *testing.T, data []byte, s *Snapshot, err error) {
	t.Helper()
	ref, refErr := refRead(bytes.NewReader(data))
	elems := chainlogtest.Elems(data)
	switch {
	case err == nil && refErr != nil:
		t.Fatalf("accepted a snapshot the reference refuses: %v", refErr)
	case err == nil:
		if !reflect.DeepEqual(s, ref) {
			t.Fatalf("decoded snapshot differs from the reference's:\n%+v\n%+v", s, ref)
		}
		for i, line := range elems {
			var l snapLine
			if err := chainlog.Unmarshal(i+1, line, &l); err != nil {
				t.Fatalf("reference refuses line %d it accepted: %v", i+1, err)
			}
			hot := l.T == "page" || l.T == "block" || l.T == "simage"
			if hot && !bytes.Equal(refRecord(t, l), chainlog.Prefix(line)) {
				t.Fatalf("accepted a non-canonical %s line %d: %s", l.T, i+1, line)
			}
		}
	case refErr == nil:
		var ce *chainlog.Error
		if !errors.Is(err, ErrSnapshotCorrupt) || !errors.As(err, &ce) || !strings.HasPrefix(ce.Reason, "unparseable line") {
			t.Fatalf("refused a snapshot the reference accepts, not as an unparseable line: %v", err)
		}
		if ce.Elem < 1 || ce.Elem > len(elems) {
			t.Fatalf("refused element %d of %d", ce.Elem, len(elems))
		}
		line := elems[ce.Elem-1]
		var l snapLine
		if err := chainlog.Unmarshal(ce.Elem, line, &l); err != nil {
			t.Fatalf("reference refuses line %d it accepted: %v", ce.Elem, err)
		}
		if bytes.Equal(refRecord(t, l), chainlog.Prefix(line)) {
			t.Fatalf("refused canonical line %d: %s", ce.Elem, line)
		}
	}
}
