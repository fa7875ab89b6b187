package ledger

import (
	"bytes"
	"strings"
	"testing"
)

func cost(key string, v float64) Row {
	return Row{Exp: "x", Key: key, Value: v, Unit: "ns", Kind: Cost}
}

func inv(key string, v any) Row {
	return Row{Exp: "x", Key: key, Value: v, Unit: "n", Kind: Invariant}
}

// TestDiff is the gate's rule, one case per behaviour of each kind.
func TestDiff(t *testing.T) {
	base := []Row{cost("vtime", 1000), cost("zero", 0), inv("vms", 100.0),
		inv("digest", "c5c2d24c87928b87"), inv("ok", true)}
	with := func(rows ...Row) []Row {
		out := append([]Row(nil), base...)
		for _, r := range rows {
			for i := range out {
				if out[i].Key == r.Key {
					out[i] = r
				}
			}
		}
		return out
	}
	for _, tc := range []struct {
		name      string
		cand      []Row
		threshold float64
		fails     int
		notes     int
	}{
		{"identical passes silently", base, 0, 0, 0},
		{"cost growth past threshold fails", with(cost("vtime", 1200)), 5, 1, 0},
		{"cost growth within threshold is a note", with(cost("vtime", 1200)), 25, 0, 1},
		{"cost shrink is a note", with(cost("vtime", 900)), 0, 0, 1},
		{"cost growth from 0 fails at any threshold", with(cost("zero", 1)), 1000, 1, 0},
		{"invariant number change fails at any threshold", with(inv("vms", 99.0)), 1000, 1, 0},
		{"config mismatch fails", with(inv("vms", 1000.0)), 0, 1, 0},
		{"invariant digest change fails", with(inv("digest", "c5c2d24c87928b88")), 1000, 1, 0},
		{"invariant flag change fails", with(inv("ok", false)), 1000, 1, 0},
		{"kind change fails", with(inv("vtime", 1000.0)), 1000, 1, 0},
		{"unit change fails", with(Row{Exp: "x", Key: "vtime", Value: 1000.0, Unit: "ms", Kind: Cost}), 0, 1, 0},
		{"missing baseline row fails", base[1:], 1000, 1, 0},
		{"candidate-only row is a note", append(with(), cost("new", 5)), 0, 0, 1},
		{"paper-only change passes silently", with(Row{Exp: "x", Key: "vtime", Value: 1000.0, Unit: "ns", Kind: Cost, Paper: 900}), 0, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := Diff(base, tc.cand, tc.threshold)
			if len(r.Regressions) != tc.fails || len(r.Notes) != tc.notes {
				t.Fatalf("regressions %q, notes %q; want %d and %d",
					r.Regressions, r.Notes, tc.fails, tc.notes)
			}
		})
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	rows := []Row{cost("vtime", 5653.058224), inv("digest", "c5c2d24c87928b87"), inv("ok", true),
		{Exp: "y", Key: "vtime", Value: 88368704.0, Unit: "ns", Kind: Cost},
		{Exp: "y", Key: "average", Value: 1.66, Unit: "x", Kind: Cost, Paper: 1.5}}
	b, err := Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, again) {
		t.Fatalf("re-encoding changed the bytes:\n%s\n%s", b, again)
	}
	if r := Diff(rows, got, 0); len(r.Regressions)+len(r.Notes) != 0 {
		t.Fatalf("decoded rows differ: %+v", r)
	}
	for i := range rows {
		if got[i].Paper != rows[i].Paper {
			t.Errorf("%s: paper %v decoded as %v", rows[i].name(), rows[i].Paper, got[i].Paper)
		}
	}
	if n := strings.Count(string(b), `"paper"`); n != 1 {
		t.Fatalf("want paper on exactly the one row that has it, got %d:\n%s", n, b)
	}
	if n := strings.Count(string(b), "\n"); n != len(rows)+2 {
		t.Fatalf("want one row per line, got %d lines:\n%s", n, b)
	}
}

func TestCheckRejects(t *testing.T) {
	for name, rows := range map[string][]Row{
		"empty key":         {cost("", 1)},
		"duplicate row":     {cost("a", 1), inv("a", 2.0)},
		"unknown kind":      {{Exp: "x", Key: "a", Value: 1.0, Kind: "wall"}},
		"string cost":       {{Exp: "x", Key: "a", Value: "1", Kind: Cost}},
		"non-scalar value":  {inv("a", []any{1.0})},
		"integer value":     {inv("a", 1)},
		"missing value":     {inv("a", nil)},
		"nested json value": {inv("a", map[string]any{})},
	} {
		if _, err := Marshal(rows); err == nil {
			t.Errorf("%s: Marshal accepted %+v", name, rows)
		}
	}
	for _, doc := range []string{`{}`, `[{"exp":"x","key":"a","value":"1","unit":"","kind":"cost"}]`,
		`[{"exp":"x","key":"a","value":1,"unit":"","kind":"info"}]`} {
		if _, err := Unmarshal([]byte(doc)); err == nil {
			t.Errorf("Unmarshal accepted %s", doc)
		}
	}
}
