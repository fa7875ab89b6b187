// Package eval regenerates every table and figure of the paper's
// evaluation (§6) on the simulated stack: E1 robustness (xfstests),
// E2/E3 generality (Table 1), E4 Phoronix relative performance
// (Figure 5), E5 fio throughput/IOPS (Figure 6), E6 console latency
// (Figure 7) and E7 image de-bloating (Figure 8). The use-cases E8-E10
// live in internal/serverless and the examples.
//
// Each experiment returns structured rows carrying both the measured
// value and the paper's reported shape so EXPERIMENTS.md and
// cmd/vmsh-bench can print paper-vs-measured side by side.
package eval

import (
	"fmt"
	"strings"

	"vmsh/internal/ledger"
)

// Row is one line of a regenerated table/figure.
type Row struct {
	Name     string
	Measured float64
	Unit     string
	// Paper is the value (or qualitative bound) the paper reports,
	// for the shape comparison; zero means "not individually
	// reported".
	Paper float64
	Note  string
}

// Table is a regenerated artifact.
type Table struct {
	ID    string // e.g. "E4 / Figure 5"
	Title string
	Rows  []Row
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", t.ID, t.Title)
	for _, r := range t.Rows {
		paper := ""
		if r.Paper != 0 {
			paper = fmt.Sprintf("  [paper ~%.2f]", r.Paper)
		}
		note := ""
		if r.Note != "" {
			note = "  " + r.Note
		}
		fmt.Fprintf(&b, "  %-42s %10.2f %-8s%s%s\n", r.Name, r.Measured, r.Unit, paper, note)
	}
	return b.String()
}

// ledgerRows collects one experiment's ledger rows.
type ledgerRows struct {
	exp  string
	rows []ledger.Row
}

func (l *ledgerRows) cost(key string, v float64, unit string) {
	l.rows = append(l.rows, ledger.Row{Exp: l.exp, Key: key, Value: v, Unit: unit, Kind: ledger.Cost})
}

// invariant takes a float64, an exact string or a bool.
func (l *ledgerRows) invariant(key string, v any, unit string) {
	l.rows = append(l.rows, ledger.Row{Exp: l.exp, Key: key, Value: v, Unit: unit, Kind: ledger.Invariant})
}
