// Package replay records the host crossings of a VMSH session into a
// deterministic, versioned log and re-runs sessions from such logs —
// no live guest required — with first-divergence detection.
//
// The interface recorded is exactly the fault plane's crossing
// taxonomy (faults.CrossingClasses): because everything VMSH does to a
// guest funnels through those few enumerable crossings, a log of them
// is a complete account of a session's host-visible behaviour. That is
// the same observation IRIS (arXiv:2303.12817) exploits for replay-
// based fuzzing of virtualization stacks; keeping virtual time bit-
// exact through replay follows the timing-simulation discipline of
// arXiv:2206.00258.
//
// Log format (version 1) is line-oriented JSON framed by
// internal/chainlog (a FNV-64a checksum chain), one line per element:
//
//	{"magic":"vmsh-replay","v":1,"label":L,"seed":S}
//	{"s":1,"op":"ptrace:attach","st":"","os":1,"a":H16,"r":H16,"e":"","vt":NS,"ck":H16}
//	...
//	{"end":true,"n":N,"vt":NS,"ram":[H16...],"m":{...},"ck":H16}
//
// Every line is hand-marshalled in fixed key order with sorted metric
// keys, so encode→decode→encode is byte-identical. Record lines, nearly
// every line of a log, are also parsed by hand, and only in exactly the
// form Encode writes them; the footer goes through encoding/json. Each
// "ck" chains over the previous element's checksum and the line's own
// content; any flipped byte surfaces as a structured *Divergence from
// Read, never a panic.
package replay

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"vmsh/internal/chainlog"
	"vmsh/internal/faults"
)

// Version is the log format version this package reads and writes.
const Version = 1

// Magic identifies a vmsh replay log's header line.
const Magic = "vmsh-replay"

// Record is one host crossing: sequence number, hierarchical op name
// (the sub-op is the suffix after the class prefix, e.g. the "ioctl"
// of "ptrace:inject:ioctl"), per-op sequence number, argument and
// result digests, outcome class, and the virtual time at which the
// crossing was made.
type Record struct {
	Seq    int    // 1-based global sequence number
	Op     string // concrete crossing name
	Stage  string // attach-stage context ("" outside the transaction)
	OpSeq  int    // 1-based per-op sequence number
	Args   uint64 // FNV-64a digest of the crossing inputs
	Result uint64 // FNV-64a digest of the crossing outputs
	Err    string // faults.ErrClass of the outcome ("" = success)
	VTime  int64  // virtual time in ns when the crossing occurred
}

// Footer summarises the session end state replay must reproduce.
type Footer struct {
	Crossings int              // number of records (cross-check)
	VTime     int64            // final virtual time in ns
	RAM       []uint64         // FNV-64a per guest memslot, slot order
	Metrics   map[string]int64 // session metric snapshot
}

// Log is one recorded session.
type Log struct {
	Version int
	Label   string
	Seed    uint64
	Records []Record
	Footer  Footer
}

// chunkRecords is how many Records one chunk of a records builder
// holds, about 88 KiB.
const chunkRecords = 1024

// records builds a Records slice in fixed-size chunks, so adding one
// never copies those already held, and copies them once into an
// exact-size slice at the end. A slice grown by append is copied at
// every growth step, 1.25× apart for large slices, which allocates
// about five times the final slice for a log of an attach's size.
type records struct {
	full [][]Record // filled chunks, in order
	cur  []Record   // the chunk being filled
	n    int
}

// add appends r.
func (rs *records) add(r Record) {
	if len(rs.cur) == cap(rs.cur) {
		if rs.cur != nil {
			rs.full = append(rs.full, rs.cur)
		}
		rs.cur = make([]Record, 0, chunkRecords)
	}
	rs.cur = append(rs.cur, r)
	rs.n++
}

// take returns the records added, in order, in one slice of exactly
// their number (nil for none), and empties rs.
func (rs *records) take() []Record {
	var out []Record
	if rs.n > 0 {
		out = make([]Record, 0, rs.n)
		for _, c := range rs.full {
			out = append(out, c...)
		}
		out = append(out, rs.cur...)
	}
	*rs = records{}
	return out
}

// Divergence is a structured mismatch report: the first crossing (or
// log element) at which a replayed/verified stream departs from the
// recording. It is also how decode reports corruption, so a damaged
// log file yields a divergence report rather than a panic.
type Divergence struct {
	Seq          int    // 1-based record (or line) the mismatch is at
	Reason       string // what differed
	ExpectedOp   string // from the log
	ActualOp     string // from the live stream ("" when not applicable)
	ExpectedArgs uint64
	ActualArgs   uint64
	ExpectedErr  string
	ActualErr    string
	VTimeDelta   int64 // actual vtime minus expected vtime, ns

	framing *chainlog.Error // the damage Read found in the file, if that is the cause
}

// Unwrap returns the *chainlog.Error behind a divergence Read reports
// for a damaged file, or nil.
func (d *Divergence) Unwrap() error {
	if d.framing == nil {
		return nil
	}
	return d.framing
}

// Error implements error.
func (d *Divergence) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "replay divergence at crossing #%d: %s", d.Seq, d.Reason)
	if d.ExpectedOp != "" || d.ActualOp != "" {
		fmt.Fprintf(&b, " (expected op %q args %016x err %q, actual op %q args %016x err %q)",
			d.ExpectedOp, d.ExpectedArgs, d.ExpectedErr, d.ActualOp, d.ActualArgs, d.ActualErr)
	}
	if d.VTimeDelta != 0 {
		fmt.Fprintf(&b, " (vtime delta %+dns)", d.VTimeDelta)
	}
	return b.String()
}

// recordStart opens every record line; any other line is the footer.
const recordStart = `{"s":`

// appendRecord renders a record line up to (excluding) its "ck" field.
func appendRecord(b []byte, r Record) []byte {
	b = strconv.AppendInt(append(b, recordStart...), int64(r.Seq), 10)
	b = chainlog.AppendString(append(b, `,"op":`...), r.Op)
	b = chainlog.AppendString(append(b, `,"st":`...), r.Stage)
	b = strconv.AppendInt(append(b, `,"os":`...), int64(r.OpSeq), 10)
	b = chainlog.AppendHex16(append(b, `,"a":"`...), r.Args)
	b = chainlog.AppendHex16(append(b, `","r":"`...), r.Result)
	b = chainlog.AppendString(append(b, `","e":`...), r.Err)
	return strconv.AppendInt(append(b, `,"vt":`...), r.VTime, 10)
}

// parseRecord is appendRecord's inverse: it takes a record line only in
// exactly the form appendRecord writes. names interns the strings, so a
// log's records share one copy of each op, stage and error class.
func parseRecord(seq int, line []byte, names map[string]string) (Record, error) {
	s := chainlog.NewScanner(chainlog.Prefix(line))
	var r Record
	s.Lit(recordStart)
	r.Seq = s.Int()
	s.Lit(`,"op":`)
	r.Op = intern(names, s.Str())
	s.Lit(`,"st":`)
	r.Stage = intern(names, s.Str())
	s.Lit(`,"os":`)
	r.OpSeq = s.Int()
	s.Lit(`,"a":`)
	r.Args = s.Hex16()
	s.Lit(`,"r":`)
	r.Result = s.Hex16()
	s.Lit(`,"e":`)
	r.Err = intern(names, s.Str())
	s.Lit(`,"vt":`)
	r.VTime = s.Int64()
	return r, s.Done(seq)
}

func intern(names map[string]string, b []byte) string {
	if v, ok := names[string(b)]; ok {
		return v
	}
	v := string(b)
	names[v] = v
	return v
}

// appendFooter renders the footer line up to (excluding) its "ck".
func appendFooter(b []byte, f Footer) []byte {
	b = fmt.Appendf(b, `{"end":true,"n":%d,"vt":%d,"ram":[`, f.Crossings, f.VTime)
	for i, h := range f.RAM {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, `"%s"`, chainlog.Hex16(h))
	}
	b = append(b, `],"m":{`...)
	keys := make([]string, 0, len(f.Metrics))
	for k := range f.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(chainlog.AppendString(b, k), `:%d`, f.Metrics[k])
	}
	return append(b, '}')
}

// Encode writes the log in canonical form. Encoding the same Log value
// twice yields byte-identical output.
func (lg *Log) Encode(w io.Writer) error {
	cw := chainlog.NewWriter(w, Magic, lg.Version, fmt.Sprintf(`,"label":%s,"seed":%d`, chainlog.AppendString(nil, lg.Label), lg.Seed))
	var line []byte
	for _, r := range lg.Records {
		line = appendRecord(line[:0], r)
		cw.Line(line)
	}
	cw.Line(appendFooter(line[:0], lg.Footer))
	_, err := cw.Flush()
	return err
}

// jsonElem is the footer's decode shape. It keeps the record members,
// so a footer carrying one of the wrong type is refused as it always
// was.
type jsonElem struct {
	// record
	S  int    `json:"s"`
	Op string `json:"op"`
	St string `json:"st"`
	Os int    `json:"os"`
	A  string `json:"a"`
	R  string `json:"r"`
	E  string `json:"e"`
	Vt int64  `json:"vt"`
	// footer
	End bool             `json:"end"`
	N   int              `json:"n"`
	RAM []string         `json:"ram"`
	M   map[string]int64 `json:"m"`
}

// validErrClasses is the closed set of Record.Err values.
var validErrClasses = map[string]bool{
	"": true, "drop": true, "err": true,
	"efault": true, "eio": true, "eperm": true,
	"enosys": true, "eintr": true, "eagain": true,
}

// footer converts a decoded footer line.
func (el *jsonElem) footer(seq int) (*Footer, error) {
	f := &Footer{Crossings: el.N, VTime: el.Vt, Metrics: el.M}
	if f.Metrics == nil {
		f.Metrics = map[string]int64{}
	}
	for _, h := range el.RAM {
		v, err := chainlog.ParseHex16(h)
		if err != nil {
			return nil, &Divergence{Seq: seq, Reason: "bad RAM hash: " + err.Error()}
		}
		f.RAM = append(f.RAM, v)
	}
	return f, nil
}

// Read decodes and validates a log. Framing damage (syntax, a record
// line not in Encode's exact form, checksum-chain breaks, truncation,
// trailing data) and structural violations (non-contiguous sequence
// numbers, vtime regressions, unknown crossing classes) are all
// reported as a *Divergence error identifying the first bad element;
// one caused by framing damage wraps its *chainlog.Error. A version or
// magic mismatch is reported as a plain error so callers can
// distinguish skew from corruption.
func Read(r io.Reader) (*Log, error) {
	names := make(map[string]string)
	return read(r, func(seq int, line []byte) (Record, *Footer, error) {
		if bytes.HasPrefix(line, []byte(recordStart)) {
			rec, err := parseRecord(seq, line, names)
			return rec, nil, err
		}
		var el jsonElem
		if err := chainlog.Unmarshal(seq, line, &el); err != nil {
			return Record{}, nil, err
		}
		if !el.End {
			return Record{}, nil, &chainlog.Error{Elem: seq, Reason: "unparseable line: a record not in canonical form"}
		}
		f, err := el.footer(seq)
		return Record{}, f, err
	})
}

// read validates the elements decode yields: decode turns one verified
// line into a record, or into the footer (non-nil) when the line ends
// the log.
func read(r io.Reader, decode func(seq int, line []byte) (Record, *Footer, error)) (*Log, error) {
	var hdr struct {
		Label string `json:"label"`
		Seed  uint64 `json:"seed"`
	}
	lg := &Log{Version: Version}
	var recs records
	opSeq := make(map[string]int)
	lastVT := int64(0)
	err := chainlog.Read(r, Magic, Version, &hdr, func(seq int, line []byte) (bool, error) {
		rec, f, err := decode(seq, line)
		if err != nil {
			return false, err
		}
		if f != nil {
			if f.Crossings != recs.n {
				return false, &Divergence{Seq: seq, Reason: fmt.Sprintf("footer says %d crossings, log has %d", f.Crossings, recs.n)}
			}
			if f.VTime < lastVT {
				return false, &Divergence{Seq: seq, Reason: "footer vtime precedes last crossing", VTimeDelta: f.VTime - lastVT}
			}
			lg.Footer = *f
			return true, nil
		}
		if rec.Seq != seq {
			return false, &Divergence{Seq: seq, Reason: fmt.Sprintf("sequence gap: record says #%d", rec.Seq)}
		}
		if _, ok := faults.ClassOf(faults.Op(rec.Op)); !ok {
			return false, &Divergence{Seq: seq, Reason: fmt.Sprintf("unknown crossing class %q", rec.Op), ExpectedOp: rec.Op}
		}
		if !validErrClasses[rec.Err] {
			return false, &Divergence{Seq: seq, Reason: fmt.Sprintf("unknown error class %q", rec.Err), ExpectedOp: rec.Op}
		}
		os := opSeq[rec.Op] + 1
		opSeq[rec.Op] = os
		if rec.OpSeq != os {
			return false, &Divergence{Seq: seq, Reason: fmt.Sprintf("per-op sequence mismatch for %s: record says #%d, stream implies #%d", rec.Op, rec.OpSeq, os), ExpectedOp: rec.Op}
		}
		if rec.VTime < lastVT {
			return false, &Divergence{Seq: seq, Reason: "vtime regression", ExpectedOp: rec.Op, VTimeDelta: rec.VTime - lastVT}
		}
		lastVT = rec.VTime
		recs.add(rec)
		return false, nil
	})
	var ce *chainlog.Error
	if errors.As(err, &ce) {
		return nil, &Divergence{Seq: ce.Elem, Reason: ce.Reason, framing: ce}
	}
	if err != nil {
		return nil, err
	}
	lg.Label, lg.Seed, lg.Records = hdr.Label, hdr.Seed, recs.take()
	return lg, nil
}

// Renumber recomputes every record's Seq and OpSeq and the footer
// crossing count from the record stream. Tests (and tools) that edit a
// log in memory use it to restore internal consistency before
// re-encoding.
func (lg *Log) Renumber() {
	opSeq := make(map[string]int)
	for i := range lg.Records {
		lg.Records[i].Seq = i + 1
		opSeq[lg.Records[i].Op]++
		lg.Records[i].OpSeq = opSeq[lg.Records[i].Op]
	}
	lg.Footer.Crossings = len(lg.Records)
}

// VerifyLogs compares two decoded logs record by record (and footer
// against footer), returning the first divergence or nil when the
// logs describe identical sessions. "expected" plays the role of the
// reference recording.
func VerifyLogs(expected, actual *Log) *Divergence {
	n := len(expected.Records)
	if len(actual.Records) < n {
		n = len(actual.Records)
	}
	for i := 0; i < n; i++ {
		e, a := expected.Records[i], actual.Records[i]
		if d := diffRecord(e, a); d != nil {
			return d
		}
	}
	if len(expected.Records) != len(actual.Records) {
		return &Divergence{
			Seq:    n + 1,
			Reason: fmt.Sprintf("crossing count mismatch: expected %d, actual %d", len(expected.Records), len(actual.Records)),
		}
	}
	ef, af := expected.Footer, actual.Footer
	seq := len(expected.Records) + 1
	if ef.VTime != af.VTime {
		return &Divergence{Seq: seq, Reason: "final vtime mismatch", VTimeDelta: af.VTime - ef.VTime}
	}
	if len(ef.RAM) != len(af.RAM) {
		return &Divergence{Seq: seq, Reason: fmt.Sprintf("RAM slot count mismatch: expected %d, actual %d", len(ef.RAM), len(af.RAM))}
	}
	for i := range ef.RAM {
		if ef.RAM[i] != af.RAM[i] {
			return &Divergence{Seq: seq, Reason: fmt.Sprintf("RAM hash mismatch in slot %d", i), ExpectedArgs: ef.RAM[i], ActualArgs: af.RAM[i]}
		}
	}
	if d := diffMetrics(ef.Metrics, af.Metrics); d != "" {
		return &Divergence{Seq: seq, Reason: "metrics mismatch: " + d}
	}
	return nil
}

// diffRecord compares one expected/actual record pair.
func diffRecord(e, a Record) *Divergence {
	reason := ""
	switch {
	case e.Op != a.Op:
		reason = "op mismatch"
	case e.Stage != a.Stage:
		reason = fmt.Sprintf("stage mismatch (expected %q, actual %q)", e.Stage, a.Stage)
	case e.Args != a.Args:
		reason = "args digest mismatch"
	case e.Err != a.Err:
		reason = "error class mismatch"
	case e.Result != a.Result:
		reason = "result digest mismatch"
	case e.VTime != a.VTime:
		reason = "vtime mismatch"
	default:
		return nil
	}
	return &Divergence{
		Seq: e.Seq, Reason: reason,
		ExpectedOp: e.Op, ActualOp: a.Op,
		ExpectedArgs: e.Args, ActualArgs: a.Args,
		ExpectedErr: e.Err, ActualErr: a.Err,
		VTimeDelta: a.VTime - e.VTime,
	}
}

// diffMetrics returns a description of the first differing key, or "".
func diffMetrics(e, a map[string]int64) string {
	keys := make(map[string]bool, len(e)+len(a))
	for k := range e {
		keys[k] = true
	}
	for k := range a {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		ev, eok := e[k]
		av, aok := a[k]
		if !eok {
			return fmt.Sprintf("unexpected metric %q=%d", k, av)
		}
		if !aok {
			return fmt.Sprintf("missing metric %q (expected %d)", k, ev)
		}
		if ev != av {
			return fmt.Sprintf("%q: expected %d, actual %d", k, ev, av)
		}
	}
	return ""
}
