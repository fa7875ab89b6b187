// Command benchdiff gates a fresh vmsh-bench -json ledger against the
// committed one (BENCH_vtime.json) and exits 1 on any regression — the
// CI gate over the evaluation's virtual-time results.
//
//	benchdiff [-threshold 0] baseline.json candidate.json
//
// Both files are flat ledger rows (internal/ledger), and one rule per
// row kind decides: a cost row fails when it grew by more than
// -threshold percent (from a baseline of 0, on any growth), an
// invariant row (configuration, test counts, correctness flags, error
// text, must-be-zero deltas, rates, the E9 digest) fails on any change
// at any threshold, and a baseline row missing from the candidate
// fails. A row's paper value is not compared. With the default threshold 0 the
// gate demands bit-identical results, which the deterministic
// simulation guarantees.
package main

import (
	"flag"
	"fmt"
	"os"

	"vmsh/internal/ledger"
)

func load(path string) ([]ledger.Row, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rows, err := ledger.Unmarshal(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rows, nil
}

func main() {
	threshold := flag.Float64("threshold", 0, "allowed growth per cost row in percent before failing")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold pct] baseline.json candidate.json")
		os.Exit(2)
	}
	base, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	cand, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	r := ledger.Diff(base, cand, *threshold)
	for _, n := range r.Notes {
		fmt.Println("note:", n)
	}
	for _, reg := range r.Regressions {
		fmt.Println("REGRESSION:", reg)
	}
	if len(r.Regressions) > 0 {
		fmt.Printf("benchdiff: %d regression(s) vs %s\n", len(r.Regressions), flag.Arg(0))
		os.Exit(1)
	}
	fmt.Printf("benchdiff: ok (%s vs %s, %d rows, threshold %.2f%%)\n", flag.Arg(0), flag.Arg(1), len(base), *threshold)
}
