// Command hostbench measures what the VMSH simulator costs to run on
// its host: wall-clock time and memory, end to end and per layer, for
// three seeded closed-loop workloads driven through the public entry
// points (vmsh.Lab, vmsh.Fleet, core, guestos, lifecycle, replay).
// Virtual time is not a result here; it only feeds a per-workload
// determinism digest, which a change that speeds up the simulator must
// leave alone.
//
//	go run . -workload attach_storm -seed 1 -seconds 10 -trace 0
//
// -trace 0 prints the end-to-end metrics; -trace 1 runs the workload
// once untraced and once with a span around every call the benchmark
// makes into a layer, and prints the per-layer metrics (see metrics.go
// for both lists). Every op's output is checked; an op that errs or
// returns wrong output counts as failed. The last line of standard
// output is one JSON object with the keys correct, attempted, failed
// and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"time"
)

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 5

func main() {
	var (
		cfg        config
		trace      int
		commit     string
		traceOut   string
		cpuProfile string
		memProfile string
	)
	flag.StringVar(&cfg.workload, "workload", "", "attach_storm, device_io or snapshot_migrate")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are drawn from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "host seconds to measure")
	flag.IntVar(&trace, "trace", 0, "1 runs untraced then traced and prints per-layer metrics")
	flag.StringVar(&commit, "commit", "unknown", "source revision, recorded in the run metadata")
	flag.StringVar(&traceOut, "trace-out", "", "write the traced run's spans here as Chrome trace-event JSON")
	flag.StringVar(&cpuProfile, "cpuprofile", "", "write a CPU profile (labelled by workload and boundary) here")
	flag.StringVar(&memProfile, "memprofile", "", "write a heap profile here at exit")
	flag.Parse()
	cfg.traced = trace == 1
	cfg.workers = runtime.NumCPU()
	if cfg.traced {
		cfg.workers = 1 // as run uses; printed in the metadata
	}
	if _, ok := workloads[cfg.workload]; !ok || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "hostbench: need -workload attach_storm|device_io|snapshot_migrate, -trace 0|1 and -seconds > 0")
		os.Exit(2)
	}

	printMeta(cfg, commit)
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	res, err := run(cfg)
	if err != nil {
		pprof.StopCPUProfile()
		fatal(err)
	}
	if traceOut != "" && res.spans != nil {
		if err := writeChrome(traceOut, res.spans); err != nil {
			fatal(err)
		}
		res.info = append(res.info, fmt.Sprintf("info trace: %d of %d spans written to %s",
			min(len(res.spans), maxChromeSpans), len(res.spans), traceOut))
	}
	if memProfile != "" {
		f, err := os.Create(memProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fatal(err)
		}
		f.Close()
	}
	res.print(os.Stdout)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hostbench:", err)
	os.Exit(1)
}

// metric is one printed number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one invocation prints.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	info      []string // human-readable lines printed before the JSON
	spans     []span
}

func (res *result) print(w io.Writer) {
	for _, line := range res.info {
		fmt.Fprintln(w, line)
	}
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.metrics[n]
		fmt.Fprintf(w, "metric %-42s %16.6f %s\n", n, m.Value, m.Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, res.metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(w, string(out))
}

// run executes one invocation: the end-to-end measurement, or with
// cfg.traced the untraced-then-traced pair.
func run(cfg config) (*result, error) {
	if cfg.traced {
		cfg.workers = 1 // so each allocation delta belongs to one call
	}
	w := workloads[cfg.workload](cfg)
	lb := newLabels(cfg.workload)
	pprof.SetGoroutineLabels(lb.base)
	d := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.traced {
		var setups []float64
		r := newRunner(cfg, lb, false)
		for i := 0; i < setupReps; i++ {
			// Collect the previous set-up's state and return it to the
			// OS first, so that peak RSS does not carry it and every
			// set-up faults in fresh memory, as the first one does.
			debug.FreeOSMemory()
			t0 := time.Now()
			if err := w.setup(r); err != nil {
				return nil, fmt.Errorf("%s setup: %w", cfg.workload, err)
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		runtime.GC()
		win := measure(w, r, d)
		return endToEnd(cfg, w, median(setups), win), nil
	}

	// Traced: the same configuration twice from a fresh setup, first
	// untraced (the tracing-overhead baseline), then traced. Equal
	// digests show tracing did not change the simulation.
	var wins [2]window
	for i, traced := range []bool{false, true} {
		r := newRunner(cfg, lb, traced)
		debug.FreeOSMemory()
		if err := w.setup(r); err != nil {
			return nil, fmt.Errorf("%s setup: %w", cfg.workload, err)
		}
		runtime.GC()
		wins[i] = measure(w, r, d/2)
	}
	return perLayer(cfg, w, wins[0], wins[1]), nil
}

// printMeta prints the run-metadata block: wall-clock numbers are
// comparable only between runs whose metadata matches.
func printMeta(cfg config, commit string) {
	meta := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds,
		"trace": cfg.traced, "workers": cfg.workers,
		"gomaxprocs": runtime.GOMAXPROCS(0), "num_cpu": runtime.NumCPU(),
		"go_version": runtime.Version(), "gogc": os.Getenv("GOGC"),
		"commit": commit,
	}
	if meta["gogc"] == "" {
		meta["gogc"] = "100"
	}
	b, _ := json.Marshal(meta)
	fmt.Printf("meta %s\n", b)
}
