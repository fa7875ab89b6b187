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
	"vmsh/internal/fsimage"
	"vmsh/internal/hypervisor"
)

// The reference codec: every record through encoding/json, as WriteTo
// and Read handled them before the config, page, block and simage
// records were hand-coded. The tests hold appendConfig, appendPayload
// and Read to it.

// refRecord renders the record WriteTo writes for l: for a config,
// page, block or simage record only the members that type carries.
func refRecord(t testing.TB, l snapLine) []byte {
	switch l.T {
	case "config":
		l = snapLine{T: l.T, Config: l.Config}
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
// input: the same verdict and an equal snapshot, with every config,
// page, block and simage line it takes in the reference encoder's
// exact form,
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
			hot := l.T == "config" || l.T == "page" || l.T == "block" || l.T == "simage"
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

// randFill fills v by reflection with random contents: strings that
// need every escape json.Marshal writes (with invalid UTF-8 only when
// invalid is set), integers across their whole range, and nil, empty
// and filled slices, maps and byte slices. A kind it has no case for
// fails the test, so a field added to hypervisor.Config later is drawn
// here and held to the reference, or the test names it.
func randFill(t *testing.T, rng *rand.Rand, v reflect.Value, invalid bool) {
	switch v.Kind() {
	case reflect.String:
		str := chainlogtest.RandString(rng)
		if !invalid {
			str = strings.ToValidUTF8(str, "\ufffd")
		}
		v.SetString(str)
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 0)
	case reflect.Int, reflect.Int64:
		bits := v.Type().Bits()
		v.SetInt(int64(rng.Uint64()) >> (64 - bits + rng.Intn(bits)))
	case reflect.Uint32, reflect.Uint64:
		bits := v.Type().Bits()
		v.SetUint(rng.Uint64() >> (64 - bits + rng.Intn(bits)))
	case reflect.Slice, reflect.Map:
		switch rng.Intn(3) {
		case 0: // nil
		case 1:
			if v.Kind() == reflect.Map {
				v.Set(reflect.MakeMap(v.Type()))
			} else {
				v.Set(reflect.MakeSlice(v.Type(), 0, 0))
			}
		default:
			if v.Type().Elem().Kind() == reflect.Uint8 {
				b := make([]byte, []int{1, 2, 3, 4, 100, 5000}[rng.Intn(6)])
				rng.Read(b)
				v.SetBytes(b)
				return
			}
			n := 1 + rng.Intn(4)
			if v.Kind() == reflect.Slice {
				v.Set(reflect.MakeSlice(v.Type(), n, n))
				for i := 0; i < n; i++ {
					randFill(t, rng, v.Index(i), invalid)
				}
				return
			}
			v.Set(reflect.MakeMap(v.Type()))
			for i := 0; i < n; i++ {
				key, elem := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
				randFill(t, rng, key, invalid)
				randFill(t, rng, elem, invalid)
				v.SetMapIndex(key, elem)
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			randFill(t, rng, v.Field(i), invalid)
		}
	default:
		t.Fatalf("randFill: no case for %s", v.Type())
	}
}

// TestConfigCodecMatchesReference: appendConfig writes the reference's
// bytes for any Config, every field drawn by reflection. parseConfig
// takes every such line the reference takes except one whose reference
// value re-encodes to other bytes, which only an invalid UTF-8 string
// (json.Marshal writes \ufffd for it) makes; a Config without one
// comes back equal.
func TestConfigCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4000; i++ {
		var c hypervisor.Config
		invalid := i%2 == 1
		randFill(t, rng, reflect.ValueOf(&c).Elem(), invalid)
		line := appendConfig(nil, &c)
		if want := refRecord(t, snapLine{T: "config", Config: &c}); !bytes.Equal(line, want) {
			t.Fatalf("%+v:\nhand      %s\nreference %s", c, line, want)
		}
		line = append(line, `,"ck":"0000000000000000"}`...)
		var ref, dec snapLine
		if err := chainlog.Unmarshal(1, line, &ref); err != nil {
			t.Fatalf("reference refuses %s: %v", line, err)
		}
		err := parseConfig(1, line, &dec)
		switch {
		case err == nil && !reflect.DeepEqual(dec, ref):
			t.Fatalf("%s:\nhand      %+v\nreference %+v", line, dec.Config, ref.Config)
		case err != nil && bytes.Equal(refRecord(t, ref), chainlog.Prefix(line)):
			t.Fatalf("canonical line refused: %s: %v", line, err)
		case !invalid && (err != nil || !reflect.DeepEqual(*dec.Config, c)):
			t.Fatalf("%+v does not come back: %v", c, err)
		}
	}
}

// TestConfigNonCanonicalRefused: config lines encoding/json takes but
// appendConfig would not write are refused as unparseable lines.
func TestConfigNonCanonicalRefused(t *testing.T) {
	c := hypervisor.Config{Name: "n", RootFS: fsimage.Manifest{
		"/a": {Mode: 0o644, Data: []byte("x")}, "/b": {Symlink: "/a"}},
		ExtraDisks: []hypervisor.DiskSpec{{GuestName: "vdb", Size: 1 << 20, Mkfs: true}}}
	canon := string(appendConfig(nil, &c))
	for _, e := range []struct{ name, old, new string }{
		{"reordered fields", `"Kind":0,"Name":"n"`, `"Name":"n","Kind":0`},
		{"unsorted paths", `"/a":{"Mode":420,"UID":0,"GID":0,"Data":"eA==","Symlink":""},"/b":{"Mode":0,"UID":0,"GID":0,"Data":null,"Symlink":"/a"}`,
			`"/b":{"Mode":0,"UID":0,"GID":0,"Data":null,"Symlink":"/a"},"/a":{"Mode":420,"UID":0,"GID":0,"Data":"eA==","Symlink":""}`},
		{"duplicate path", `"/b":{"Mode":0`, `"/a":{"Mode":0`},
		{"whitespace", `"RAMSize":0`, `"RAMSize": 0`},
		{"number for bool", `"Mkfs":true`, `"Mkfs":1`},
		{"lower-case field", `"Seed":0`, `"seed":0`},
		{"missing field", `,"NinePShare":false`, ``},
		{"unknown field", `,"SeccompProfile":""`, `,"SeccompProfile":"","Extra":1`},
		{"padding bits", `"eA=="`, `"eB=="`},
		{"escaped plain ASCII", `"Name":"n"`, `"Name":"\u006e"`},
		{"mode beyond uint32", `"Mode":420`, `"Mode":4294967296`},
	} {
		if !strings.Contains(canon, e.old) {
			t.Fatalf("%s: no %s in %s", e.name, e.old, canon)
		}
		line := []byte(strings.Replace(canon, e.old, e.new, 1) + `,"ck":"0000000000000000"}`)
		var l snapLine
		err := parseConfig(1, line, &l)
		var ce *chainlog.Error
		if !errors.As(err, &ce) || !strings.HasPrefix(ce.Reason, "unparseable line") {
			t.Errorf("%s: %s taken (%v)", e.name, line, err)
		}
	}
}
