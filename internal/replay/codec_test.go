package replay

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"vmsh/internal/chainlog"
	"vmsh/internal/chainlog/chainlogtest"
)

// The reference codec: records as they were rendered and read before
// they were hand-coded, through fmt and encoding/json. The tests hold
// appendRecord and Read to it.

func jq(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // a string always marshals
	}
	return string(b)
}

func refAppendRecord(b []byte, r Record) []byte {
	return fmt.Appendf(b, `{"s":%d,"op":%s,"st":%s,"os":%d,"a":"%s","r":"%s","e":%s,"vt":%d`,
		r.Seq, jq(r.Op), jq(r.Stage), r.OpSeq, chainlog.Hex16(r.Args), chainlog.Hex16(r.Result), jq(r.Err), r.VTime)
}

// refDecode decodes every line through encoding/json.
func refDecode(seq int, line []byte) (Record, *Footer, error) {
	var el jsonElem
	if err := chainlog.Unmarshal(seq, line, &el); err != nil {
		return Record{}, nil, err
	}
	if el.End {
		f, err := el.footer(seq)
		return Record{}, f, err
	}
	args, aerr := chainlog.ParseHex16(el.A)
	res, rerr := chainlog.ParseHex16(el.R)
	if aerr != nil || rerr != nil {
		return Record{}, nil, &Divergence{Seq: seq, Reason: "bad digest field"}
	}
	return Record{Seq: el.S, Op: el.Op, Stage: el.St, OpSeq: el.Os,
		Args: args, Result: res, Err: el.E, VTime: el.Vt}, nil, nil
}

func refRead(r io.Reader) (*Log, error) { return read(r, refDecode) }

// randInt draws edge values (0, the extremes) as often as plain ones.
func randInt(rng *rand.Rand) int64 {
	switch rng.Intn(4) {
	case 0:
		return []int64{0, 1, -1, math.MaxInt64, math.MinInt64}[rng.Intn(5)]
	case 1:
		return -rng.Int63()
	}
	return rng.Int63()
}

// TestRecordCodecMatchesReference: appendRecord writes the reference's
// bytes for any record, and parseRecord takes every line the reference
// takes except one whose reference value re-encodes to other bytes.
func TestRecordCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	names := map[string]string{}
	for i := 0; i < 20000; i++ {
		r := Record{Seq: int(randInt(rng)), Op: chainlogtest.RandString(rng), Stage: chainlogtest.RandString(rng), OpSeq: int(randInt(rng)),
			Args: rng.Uint64(), Result: rng.Uint64(), Err: chainlogtest.RandString(rng), VTime: randInt(rng)}
		got, want := appendRecord(nil, r), refAppendRecord(nil, r)
		if !bytes.Equal(got, want) {
			t.Fatalf("%+v:\nhand      %s\nreference %s", r, got, want)
		}
		line := append(got, `,"ck":"0000000000000000"}`...)
		ref, _, err := refDecode(1, line)
		if err != nil {
			t.Fatalf("reference refuses %s: %v", line, err)
		}
		dec, err := parseRecord(1, line, names)
		switch {
		case err == nil && dec != ref:
			t.Fatalf("%s:\nhand      %+v\nreference %+v", line, dec, ref)
		case err != nil && bytes.Equal(appendRecord(nil, ref), got):
			t.Fatalf("canonical line refused: %s: %v", line, err)
		}
	}
}

// checkAgainstReference holds Read to the reference decoder on one
// input: the same verdict and an equal log, with every record line it
// takes in the reference encoder's exact form, except that Read may
// refuse a line the reference takes when re-encoding the reference's
// value of that line gives other bytes. That refusal is an
// unparseable-line *Divergence wrapping its *chainlog.Error.
func checkAgainstReference(t *testing.T, data []byte, lg *Log, err error) {
	t.Helper()
	ref, refErr := refRead(bytes.NewReader(data))
	elems := chainlogtest.Elems(data)
	switch {
	case err == nil && refErr != nil:
		t.Fatalf("accepted a log the reference refuses: %v", refErr)
	case err == nil:
		if !reflect.DeepEqual(lg, ref) {
			t.Fatalf("decoded log differs from the reference's:\n%+v\n%+v", lg, ref)
		}
		for i, r := range lg.Records {
			if !bytes.Equal(refAppendRecord(nil, r), chainlog.Prefix(elems[i])) {
				t.Fatalf("accepted a non-canonical record line %d: %s", i+1, elems[i])
			}
		}
	case refErr == nil:
		var div *Divergence
		var ce *chainlog.Error
		if !errors.As(err, &div) || !errors.As(err, &ce) || !strings.HasPrefix(ce.Reason, "unparseable line") {
			t.Fatalf("refused a log the reference accepts, not as an unparseable line: %T %v", err, err)
		}
		if ce.Elem < 1 || ce.Elem > len(elems) {
			t.Fatalf("refused element %d of %d", ce.Elem, len(elems))
		}
		line := elems[ce.Elem-1]
		rec, f, derr := refDecode(ce.Elem, line)
		if derr != nil {
			t.Fatalf("reference refuses line %d it accepted: %v", ce.Elem, derr)
		}
		canon := refAppendRecord(nil, rec)
		if f != nil {
			canon = appendFooter(nil, *f)
		}
		if bytes.Equal(canon, chainlog.Prefix(line)) {
			t.Fatalf("refused canonical line %d: %s", ce.Elem, line)
		}
	}
}
