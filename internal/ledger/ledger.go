// Package ledger is the one row type of the evaluation: flat metric
// rows {exp, key, value, unit, kind, paper}. Every experiment emits its
// results as rows; vmsh-bench prints them and with -json writes them as
// a ledger (the committed one is BENCH_vtime.json), and tools/benchdiff
// gates a fresh run against it with Diff, one rule per kind.
package ledger

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Kind says how Diff gates a row.
type Kind string

const (
	// Cost rows are virtual-time costs where less is better (time,
	// latency, crossings, interrupts, bytes, pages, slowdown ratios):
	// growth past the threshold fails and a shrink is a note.
	Cost Kind = "cost"
	// Invariant rows (configuration, test counts, correctness flags,
	// error text, digests, must-be-zero deltas, rates) fail on any
	// change, at any threshold.
	Invariant Kind = "invariant"
)

// Row is one metric of one experiment. (Exp, Key) is unique in a
// ledger.
type Row struct {
	Exp string `json:"exp"`
	Key string `json:"key"`
	// Value is a float64. An invariant may instead hold an exact
	// string, such as a hex digest, or a bool.
	Value any    `json:"value"`
	Unit  string `json:"unit"`
	Kind  Kind   `json:"kind"`
	// Paper is the value the paper reports for this metric, in Unit,
	// or 0 when it reports none. It is reference only: Check and Diff
	// ignore it.
	Paper float64 `json:"paper,omitempty"`
}

// Builder collects one experiment's rows in order. Cost and Invariant
// return the row they appended, valid until the next append, so a
// caller can set its Paper value.
type Builder struct {
	Exp  string
	Rows []Row
}

// Cost appends a cost row.
func (b *Builder) Cost(key string, v float64, unit string) *Row {
	return b.add(key, v, unit, Cost)
}

// Invariant appends an invariant row; v is a float64, an exact string
// or a bool.
func (b *Builder) Invariant(key string, v any, unit string) *Row {
	return b.add(key, v, unit, Invariant)
}

func (b *Builder) add(key string, v any, unit string, kind Kind) *Row {
	b.Rows = append(b.Rows, Row{Exp: b.Exp, Key: key, Value: v, Unit: unit, Kind: kind})
	return &b.Rows[len(b.Rows)-1]
}

// name is the row's display name, "exp.key".
func (r Row) name() string { return r.Exp + "." + r.Key }

// Check reports the first malformed row: an empty exp or key, a
// duplicate (exp, key), an unknown kind, or a value of the wrong type.
func Check(rows []Row) error {
	seen := make(map[[2]string]bool, len(rows))
	for _, r := range rows {
		if r.Exp == "" || r.Key == "" {
			return fmt.Errorf("ledger: row %q: empty exp or key", r.name())
		}
		id := [2]string{r.Exp, r.Key}
		if seen[id] {
			return fmt.Errorf("ledger: duplicate row %q", r.name())
		}
		seen[id] = true
		switch v := r.Value.(type) {
		case float64:
		case string, bool:
			if r.Kind == Cost {
				return fmt.Errorf("ledger: cost row %q: non-numeric value %v", r.name(), v)
			}
		default:
			return fmt.Errorf("ledger: row %q: value %v of type %T", r.name(), v, v)
		}
		if r.Kind != Cost && r.Kind != Invariant {
			return fmt.Errorf("ledger: row %q: unknown kind %q", r.name(), r.Kind)
		}
	}
	return nil
}

// Marshal encodes rows as a JSON array, one row per line, in the
// order given; equal rows give equal bytes.
func Marshal(rows []Row) ([]byte, error) {
	if err := Check(rows); err != nil {
		return nil, err
	}
	var b bytes.Buffer
	b.WriteString("[\n")
	for i, r := range rows {
		line, err := json.Marshal(r)
		if err != nil {
			return nil, fmt.Errorf("ledger: row %q: %w", r.name(), err)
		}
		b.Write(line)
		if i < len(rows)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]\n")
	return b.Bytes(), nil
}

// Unmarshal decodes and checks a ledger.
func Unmarshal(data []byte) ([]Row, error) {
	var rows []Row
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	if err := Check(rows); err != nil {
		return nil, err
	}
	return rows, nil
}

// Report is the outcome of Diff. Any regression fails the gate; notes
// do not.
type Report struct {
	Regressions []string
	Notes       []string
}

func (r *Report) regress(format string, args ...any) {
	r.Regressions = append(r.Regressions, fmt.Sprintf(format, args...))
}

func (r *Report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Diff gates a candidate ledger against a baseline; both must pass
// Check. Every baseline row must be in the candidate with the same
// unit and kind. An invariant fails on any change. A cost fails when
// it grew by more than thresholdPct percent, and on any growth from a
// baseline of 0; a shrink or an allowed growth is a note. A row only
// the candidate has is a note. Paper values are not compared.
func Diff(base, cand []Row, thresholdPct float64) Report {
	var r Report
	byID := make(map[[2]string]Row, len(cand))
	for _, c := range cand {
		byID[[2]string{c.Exp, c.Key}] = c
	}
	for _, b := range base {
		id := [2]string{b.Exp, b.Key}
		c, ok := byID[id]
		if !ok {
			r.regress("%s: missing from candidate", b.name())
			continue
		}
		delete(byID, id)
		if c.Unit != b.Unit || c.Kind != b.Kind {
			r.regress("%s: unit/kind %s/%s -> %s/%s", b.name(), b.Unit, b.Kind, c.Unit, c.Kind)
			continue
		}
		if c.Value == b.Value {
			continue
		}
		if b.Kind == Invariant {
			r.regress("%s: %v -> %v (invariant)", b.name(), b.Value, c.Value)
			continue
		}
		oldV, newV := b.Value.(float64), c.Value.(float64)
		if oldV == 0 {
			r.regress("%s: baseline 0, candidate %v", b.name(), newV)
			continue
		}
		deltaPct := 100 * (newV - oldV) / oldV
		switch {
		case deltaPct > thresholdPct:
			r.regress("%s: %v -> %v (%+.2f%% > %.2f%% threshold)", b.name(), oldV, newV, deltaPct, thresholdPct)
		case deltaPct < 0:
			r.note("%s improved: %v -> %v (%+.2f%%)", b.name(), oldV, newV, deltaPct)
		default:
			r.note("%s: %v -> %v (%+.2f%%, within threshold)", b.name(), oldV, newV, deltaPct)
		}
	}
	for _, c := range cand {
		if _, ok := byID[[2]string{c.Exp, c.Key}]; ok {
			r.note("%s: new row, not in baseline", c.name())
		}
	}
	return r
}
