// Command vmsh-bench regenerates every table and figure of the
// paper's evaluation (§6) and this repository's extensions as ledger
// rows (internal/ledger), printing each row with the paper's value
// where the paper reports one:
//
//	E1  xfstests robustness          (§6.1)
//	E2  hypervisor support           (Table 1, plus the paper's
//	                                  future work implemented and D4)
//	E3  kernel support               (Table 1)
//	E4  Phoronix relative slowdown   (Figure 5, plus D2)
//	E5  fio throughput + IOPS        (Figure 6a/6b)
//	E6  console latency              (Figure 7)
//	E7  image de-bloating            (Figure 8)
//	E7n virtio-net sweep             (network)
//	E8  single-fault attach sweep    (robustness)
//	E9  fleet storm                  (parallel engine: determinism
//	                                  digest compared at every count of
//	                                  the -fleet-workers sweep)
//	E10 record/replay determinism    (bit-identical vtime, RAM, metrics)
//	E11 live migration               (downtime and pages-on-wire vs
//	                                  dirty rate, stop-and-copy vs
//	                                  post-copy; RAM hash equality,
//	                                  session survival, record-verify
//	                                  across the migration)
//
// E4, E5 and E7n include the batched virtqueue fast path's comparison
// against the legacy per-chain service on the same workload.
//
// An experiment that fails prints the rows it measured, then vmsh-bench
// exits 1. E9's wall-clock throughput is host cost, not virtual time:
// it goes to stderr, one line per worker count, and never into a row.
// With -json PATH the rows of every selected experiment are also
// written to PATH; BENCH_vtime.json is the committed ledger that
// tools/benchdiff gates a fresh one against.
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
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"vmsh/internal/core"
	"vmsh/internal/debloat"
	"vmsh/internal/eval"
	"vmsh/internal/ledger"
	"vmsh/internal/obs"
)

var (
	faultSeed    = flag.Int64("fault-seed", 42, "seed for the E8 fault sweep")
	fleetVMs     = flag.Int("fleet-vms", 1000, "E9: total VM lifecycles in the fleet storm")
	fleetWorkers = flag.String("fleet-workers", "1,2,4,8,16", "E9: comma-separated worker-count sweep")
	fleetSeed    = flag.Int64("fleet-seed", 42, "E9: fleet storm seed")
	migrateSeed  = flag.Int64("migrate-seed", 42, "E11: migration sweep seed")
)

// experiment is one id -only accepts: what it regenerates, and how.
type experiment struct {
	id, title string
	run       func() ([]ledger.Row, error)
}

// experiments are every experiment, in run order.
var experiments = []experiment{
	{"e1", "§6.1 xfstests quick group (619 tests): classic trio and storage backends", func() ([]ledger.Row, error) {
		classic, err := eval.RunXfstests()
		if err != nil {
			return nil, err
		}
		backends, err := eval.RunXfstestsBackends()
		if err != nil {
			return nil, err
		}
		return eval.XfstestsRows(append(classic.Results(), backends...)), nil
	}},
	{"e2", "Table 1 hypervisor support, plus the paper's future work implemented and the memslot placement grid (D4)", func() ([]ledger.Row, error) {
		return eval.GeneralityRows("e2", slices.Concat(eval.RunHypervisorMatrix(), eval.RunExtensionMatrix(), eval.RunMemslotGrid())), nil
	}},
	{"e3", "Table 1 LTS kernel support", func() ([]ledger.Row, error) {
		return eval.GeneralityRows("e3", eval.RunKernelMatrix()), nil
	}},
	{"e4", "Figure 5 Phoronix disk suite: vmsh-blk slowdown vs qemu-blk (lower is better), vmsh-blk virtual time legacy vs fast path vs bounce copies (D2)", func() ([]ledger.Row, error) {
		legacy, err := eval.RunPhoronix()
		if err != nil {
			return nil, err
		}
		fast, err := eval.RunPhoronixOpts(core.Options{})
		if err != nil {
			return nil, err
		}
		bounce, err := eval.RunPhoronixOpts(core.Options{BounceCopy: true})
		if err != nil {
			return nil, err
		}
		return eval.PhoronixRows(legacy, fast, bounce), nil
	}},
	{"e5", "Figure 6 fio throughput (256 KiB) and IOPS (4 KiB); vmsh-blk fast path vs legacy (ioregionfd, QD 32)", func() ([]ledger.Row, error) {
		direct, err := eval.RunFioDirect()
		if err != nil {
			return nil, err
		}
		file, err := eval.RunFioFileIO()
		if err != nil {
			return nil, err
		}
		modes, err := eval.RunFioFastPath()
		if err != nil {
			return nil, err
		}
		return eval.FioRows(direct, file, modes), nil
	}},
	{"e6", "Figure 7 console echo round-trip latency", func() ([]ledger.Row, error) {
		lat, err := eval.RunConsoleLatency()
		if err != nil {
			return nil, err
		}
		return eval.ConsoleRows(lat), nil
	}},
	{"e7", "Figure 8 VM image size reduction", func() ([]ledger.Row, error) {
		rs, err := debloat.RunAll()
		if err != nil {
			return nil, err
		}
		return debloat.Rows(rs), nil
	}},
	{"e7n", "virtio-net goodput and RTT across the link cost model and on the legacy device path", func() ([]ledger.Row, error) {
		results, err := eval.RunNetwork(42)
		if err != nil {
			return nil, err
		}
		return eval.NetworkRows(results), nil
	}},
	{"e8", "single-fault attach sweep: rollback, retry and degradation", func() ([]ledger.Row, error) {
		return eval.RunFaultSweep(*faultSeed)
	}},
	{"e9", "fleet storm on the parallel engine, digest across the worker sweep", runFleetStorm},
	{"e10", "deterministic record/replay of host crossings", func() ([]ledger.Row, error) {
		return eval.RunRecordReplay(*faultSeed)
	}},
	{"e11", "snapshot/restore and live migration with post-copy streaming", func() ([]ledger.Row, error) {
		res, err := eval.RunMigration(*migrateSeed)
		return res.Rows(), err
	}},
}

// ids lists the experiment ids in run order.
func ids() []string {
	var out []string
	for _, e := range experiments {
		out = append(out, e.id)
	}
	return out
}

// parseOnly turns "e1,e5" into the selected ids. An empty spec selects
// none, and main then runs every experiment but e9.
func parseOnly(spec string) (map[string]bool, error) {
	want := map[string]bool{}
	if spec == "" {
		return want, nil
	}
	valid := ids()
	for _, id := range strings.Split(spec, ",") {
		id = strings.TrimSpace(strings.ToLower(id))
		if !slices.Contains(valid, id) {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", id, strings.Join(valid, ","))
		}
		want[id] = true
	}
	return want, nil
}

// runFleetStorm runs E9 over -fleet-workers and reports each run's
// wall-clock throughput on stderr. More workers than GOMAXPROCS cannot
// run in parallel, so a speedup there is scheduling and GC noise and
// is left out.
func runFleetStorm() ([]ledger.Row, error) {
	sweep, err := parseWorkerSweep(*fleetWorkers)
	if err != nil {
		return nil, err
	}
	res, err := eval.RunFleetStorm(*fleetVMs, sweep, *fleetSeed)
	if len(res.Runs) == 0 {
		return nil, err
	}
	procs := runtime.GOMAXPROCS(0)
	for _, run := range res.Runs {
		speedup := ""
		if run.Workers <= procs {
			speedup = fmt.Sprintf(", speedup %.2fx", res.Runs[0].WallMS/run.WallMS)
		}
		fmt.Fprintf(os.Stderr, "e9 workers=%d: wall %.0f ms, %.2f events/s, %.1f VMs/s%s, digest %s\n",
			run.Workers, run.WallMS, run.EventsPerSec, run.VMsPerSec, speedup, run.Digest)
	}
	return res.Rows(), err
}

// formatValue renders a row value: whole numbers without decimals,
// other numbers to two places, strings quoted and bools as they are.
func formatValue(v any) string {
	switch x := v.(type) {
	case float64:
		if x == math.Trunc(x) {
			return strconv.FormatFloat(x, 'f', 0, 64)
		}
		return strconv.FormatFloat(x, 'f', 2, 64)
	case string:
		return strconv.Quote(x)
	}
	return fmt.Sprint(v)
}

// printRows renders one experiment's rows as a text table: key, value
// and unit, and the paper's value where the row has one.
func printRows(w io.Writer, e experiment, rows []ledger.Row) {
	fmt.Fprintf(w, "== %s — %s ==\n", strings.ToUpper(e.id), e.title)
	for _, r := range rows {
		paper := ""
		if r.Paper != 0 {
			paper = "  [paper ~" + formatValue(r.Paper) + "]"
		}
		fmt.Fprintf(w, "  %-44s %12s %s%s\n", r.Key, formatValue(r.Value), r.Unit, paper)
	}
	fmt.Fprintln(w)
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
	only := flag.String("only", "", "comma-separated experiment ids ("+strings.Join(ids(), ",")+"); empty = all but e9")
	jsonPath := flag.String("json", "", "also write every selected experiment's ledger rows to this path (BENCH_vtime.json is the committed one)")
	tracePath := flag.String("trace", "", "write Chrome trace-event JSON (Perfetto) to this path: a traced E5 fast-path sweep, or with -only e9 the merged fleet trace")
	profilePath := flag.String("profile", "", "write a folded-stacks vtime profile (flamegraph input) to this path and print the top stacks; follows -trace's E5-or-fleet selection")
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
	for _, e := range experiments {
		if !sel(e.id) {
			continue
		}
		got, err := e.run()
		printRows(os.Stdout, e, got)
		if err != nil {
			fail(strings.ToUpper(e.id), err)
		}
		rows = append(rows, got...)
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
