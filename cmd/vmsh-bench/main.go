// Command vmsh-bench regenerates every table and figure of the
// paper's evaluation (§6) and prints measured-vs-paper for each:
//
//	E1  xfstests robustness          (§6.1)
//	E2  hypervisor support           (Table 1)
//	E3  kernel support               (Table 1)
//	E4  Phoronix relative slowdown   (Figure 5)
//	E5  fio throughput + IOPS        (Figure 6a/6b)
//	E6  console latency              (Figure 7)
//	E7  image de-bloating            (Figure 8)
//	E7n virtio-net sweep             (network)
//	E8  single-fault attach sweep    (robustness)
//	E9  fleet storm                  (parallel engine: events/sec sweep
//	                                  across -fleet-workers, determinism
//	                                  digest compared at every count)
//	E10 record/replay determinism    (bit-identical vtime, RAM, metrics)
//	E11 live migration               (downtime and pages-on-wire vs
//	                                  dirty rate, stop-and-copy vs
//	                                  post-copy; RAM hash equality,
//	                                  session survival, record-verify
//	                                  across the migration)
//
// E4, E5 and E7n additionally print a fast-path-vs-legacy comparison:
// the same workload with the batched virtqueue service on and off.
//
// With -json PATH the ledger rows (internal/ledger) of the E1, E5, E9
// and E11 runs are also written to PATH; BENCH_vtime.json is the
// committed ledger that tools/benchdiff gates a fresh one against.
// With -trace PATH a traced E5 fast-path run additionally exports a
// Chrome trace-event JSON file (virtual time), loadable in Perfetto or
// chrome://tracing; combined with
// -only e9 the trace is instead the merged fleet trace of a traced
// storm (one process per shard, causal flow arrows across bridges,
// digest hard-checked against an untraced run). -profile PATH writes
// the corresponding folded-stacks vtime profile (flamegraph.pl /
// speedscope input) and prints the top stacks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"vmsh/internal/debloat"
	"vmsh/internal/eval"
	"vmsh/internal/ledger"
	"vmsh/internal/obs"
)

// experiments are the ids -only accepts, in run order.
var experiments = []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e7n", "e8", "e9", "e10", "e11"}

// parseOnly turns "e1,e5" into the selected ids. An empty spec selects
// none, and main then runs every experiment but e9.
func parseOnly(spec string) (map[string]bool, error) {
	want := map[string]bool{}
	if spec == "" {
		return want, nil
	}
	for _, id := range strings.Split(spec, ",") {
		id = strings.TrimSpace(strings.ToLower(id))
		if !slices.Contains(experiments, id) {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", id, strings.Join(experiments, ","))
		}
		want[id] = true
	}
	return want, nil
}

// parseWorkerSweep turns "1,2,4,8,16" into the E9 worker counts.
func parseWorkerSweep(spec string) ([]int, error) {
	var sweep []int
	for _, f := range strings.Split(spec, ",") {
		var w int
		if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &w); err != nil || w < 1 {
			return nil, fmt.Errorf("bad worker count %q", f)
		}
		sweep = append(sweep, w)
	}
	return sweep, nil
}

// selfValidateTrace re-reads a written trace file and checks it parses
// as trace-event JSON with a non-empty traceEvents array — a malformed
// exporter fails here, not in Perfetto. Returns the event count.
func selfValidateTrace(path string) (int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return 0, fmt.Errorf("trace self-validation: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return 0, fmt.Errorf("trace self-validation: no events")
	}
	return len(doc.TraceEvents), nil
}

// writeProfile writes the folded-stacks profile (flamegraph.pl /
// speedscope input) and prints the top stacks to stderr.
func writeProfile(path string, p *obs.Profile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.WriteFolded(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s: %d stacks, %v self vtime\n", path, p.Len(), p.Total())
	return p.WriteTop(os.Stderr, 15)
}

// writeE5Observability runs the traced E5 fast-path sweep once and
// serves both -trace (Chrome trace-event JSON) and -profile (folded
// stacks + top-N) from it.
func writeE5Observability(tracePath, profilePath string) error {
	run, err := eval.TraceFioFastPath()
	if err != nil {
		return err
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := run.Trace.WriteChrome(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		n, err := selfValidateTrace(tracePath)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s: %d trace events over %v virtual time\n",
			tracePath, n, run.Trace.Charged())
	}
	if profilePath != "" {
		p := obs.NewProfile()
		p.AddTracer("", run.Trace)
		if err := writeProfile(profilePath, p); err != nil {
			return err
		}
	}
	return nil
}

// writeFleetObservability runs one traced E9 fleet storm (digest
// hard-checked against an untraced run) and serves -trace and
// -profile from the merged fleet trace. Flow-event pairing is
// validated and summarised.
func writeFleetObservability(tracePath, profilePath string, vms, workers int, seed int64) error {
	trace, prof, run, err := eval.TraceFleetStorm(vms, workers, seed)
	if err != nil {
		return err
	}
	fs := trace.FlowStats()
	fmt.Fprintf(os.Stderr,
		"fleet trace: %d shards, %d events, digest %s (tracing-neutral); flows begins=%d steps=%d ends=%d cross-shard=%d\n",
		trace.Shards(), trace.Len(), run.Digest, fs.Begins, fs.Steps, fs.Ends, fs.CrossShard)
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := trace.WriteChrome(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		n, err := selfValidateTrace(tracePath)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s: %d merged trace events\n", tracePath, n)
	}
	if profilePath != "" {
		if err := writeProfile(profilePath, prof); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	only := flag.String("only", "", "comma-separated experiment ids ("+strings.Join(experiments, ",")+"); empty = all but e9")
	jsonPath := flag.String("json", "", "also write the E1/E5/E9/E11 ledger rows to this path (BENCH_vtime.json is the committed one)")
	tracePath := flag.String("trace", "", "write Chrome trace-event JSON (Perfetto) to this path: a traced E5 fast-path sweep, or with -only e9 the merged fleet trace")
	profilePath := flag.String("profile", "", "write a folded-stacks vtime profile (flamegraph input) to this path and print the top stacks; follows -trace's E5-or-fleet selection")
	faultSeed := flag.Int64("fault-seed", 42, "seed for the E8 fault sweep")
	fleetVMs := flag.Int("fleet-vms", 1000, "E9: total VM lifecycles in the fleet storm")
	fleetWorkers := flag.String("fleet-workers", "1,2,4,8,16", "E9: comma-separated worker-count sweep")
	fleetSeed := flag.Int64("fleet-seed", 42, "E9: fleet storm seed")
	migrateSeed := flag.Int64("migrate-seed", 42, "E11: migration sweep seed")
	flag.Parse()

	want, err := parseOnly(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vmsh-bench:", err)
		os.Exit(2)
	}
	sel := func(id string) bool {
		if id == "e9" {
			// The fleet storm launches -fleet-vms real VM lifecycles
			// per worker count; far too heavy for the default sweep.
			return want["e9"]
		}
		return len(want) == 0 || want[id]
	}
	fail := func(id string, err error) {
		fmt.Fprintf(os.Stderr, "%s failed: %v\n", id, err)
		os.Exit(1)
	}

	var rows []ledger.Row
	emit := func(t *eval.Table) {
		fmt.Print(t.Format())
		fmt.Println()
	}

	if sel("e1") {
		res, err := eval.RunXfstests()
		if err != nil {
			fail("E1", err)
		}
		emit(eval.XfstestsTable(res))
		bres, err := eval.RunXfstestsBackends()
		if err != nil {
			fail("E1b", err)
		}
		emit(eval.XfstestsBackendsTable(bres))
		rows = append(rows, eval.XfstestsRows(append(res.Results(), bres...))...)
	}

	if sel("e2") || sel("e3") {
		var hv, kern []eval.GeneralityRow
		if sel("e2") {
			hv = eval.RunHypervisorMatrix()
		}
		if sel("e3") {
			kern = eval.RunKernelMatrix()
		}
		emit(eval.GeneralityTable(hv, kern))
		if sel("e2") {
			extTable := eval.GeneralityTable(eval.RunExtensionMatrix(), nil)
			extTable.ID = "Extensions"
			extTable.Title = "paper future work, implemented"
			emit(extTable)
		}
	}

	if sel("e4") {
		rows, err := eval.RunPhoronix()
		if err != nil {
			fail("E4", err)
		}
		emit(eval.PhoronixTable(rows))
		cmp, err := eval.RunPhoronixCompare()
		if err != nil {
			fail("E4", err)
		}
		emit(cmp)
	}

	if sel("e5") {
		direct, err := eval.RunFioDirect()
		if err != nil {
			fail("E5", err)
		}
		file, err := eval.RunFioFileIO()
		if err != nil {
			fail("E5", err)
		}
		thr, iops := eval.FioTables(direct, file)
		emit(thr)
		emit(iops)
		fp, modes, err := eval.RunFioFastPath()
		if err != nil {
			fail("E5", err)
		}
		emit(fp)
		rows = append(rows, eval.FastPathRows(modes)...)
	}

	if sel("e6") {
		lat, err := eval.RunConsoleLatency()
		if err != nil {
			fail("E6", err)
		}
		emit(eval.ConsoleTable(lat))
	}

	if sel("e7") {
		rs, err := debloat.RunAll()
		if err != nil {
			fail("E7", err)
		}
		fmt.Println("== E7 / Figure 8 — VM image size reduction ==")
		fmt.Print(debloat.FormatResults(rs))
		fmt.Println()
	}

	if sel("e7n") {
		tbl, _, err := eval.RunNetwork(42)
		if err != nil {
			fail("E7n", err)
		}
		emit(tbl)
		cmp, err := eval.RunNetworkCompare(42)
		if err != nil {
			fail("E7n", err)
		}
		emit(cmp)
	}

	if sel("e8") {
		tbl, err := eval.RunFaultSweep(*faultSeed)
		if tbl != nil {
			emit(tbl)
		}
		if err != nil {
			fail("E8", err)
		}
	}

	if sel("e9") {
		sweep, err := parseWorkerSweep(*fleetWorkers)
		if err != nil {
			fail("E9", err)
		}
		tbl, fleet, err := eval.RunFleetStorm(*fleetVMs, sweep, *fleetSeed)
		if tbl != nil {
			emit(tbl)
		}
		if err != nil {
			fail("E9", err)
		}
		rows = append(rows, fleet.Rows()...)
	}

	if sel("e10") {
		tbl, err := eval.RunRecordReplay(*faultSeed)
		if tbl != nil {
			emit(tbl)
		}
		if err != nil {
			fail("E10", err)
		}
	}

	if sel("e11") {
		tbl, migration, err := eval.RunMigration(*migrateSeed)
		if tbl != nil {
			emit(tbl)
		}
		if err != nil {
			fail("E11", err)
		}
		rows = append(rows, migration.Rows()...)
	}

	if *tracePath != "" || *profilePath != "" {
		if sel("e9") {
			sweep, err := parseWorkerSweep(*fleetWorkers)
			if err != nil {
				fail("E9 trace", err)
			}
			if err := writeFleetObservability(*tracePath, *profilePath,
				*fleetVMs, sweep[0], *fleetSeed); err != nil {
				fail("E9 trace", err)
			}
		} else {
			if err := writeE5Observability(*tracePath, *profilePath); err != nil {
				fail("trace", err)
			}
		}
	}

	if *jsonPath != "" {
		b, err := ledger.Marshal(rows)
		if err != nil {
			fail("json", err)
		}
		if err := os.WriteFile(*jsonPath, b, 0o644); err != nil {
			fail("json", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
	}
}
