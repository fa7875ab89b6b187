package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// benchmarkJSON is the subset of ../BENCHMARK.json the self-test checks
// the program against.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestBenchmarkJSONMatchesProgram pins BENCHMARK.json's workload and
// metric lists (names, units, order) to the program's.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		var g, w []string
		for _, m := range got {
			g = append(g, m.Name+" "+m.Unit)
		}
		for _, m := range want {
			w = append(w, m.name+" "+m.unit)
		}
		if strings.Join(g, "\n") != strings.Join(w, "\n") {
			t.Errorf("%s: BENCHMARK.json and the program disagree; the program prints:\n%s", kind, strings.Join(w, "\n"))
		}
	}
	check("end_to_end", bj.EndToEnd, endToEndMetrics)
	check("per_layer", bj.PerLayer, perLayerMetrics())
}

// printed is the JSON result on the last line of a run's output.
type printed struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runShort(t *testing.T, cfg config) (printed, string) {
	t.Helper()
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	var out bytes.Buffer
	res.print(&out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var p printed
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &p); err != nil {
		t.Fatalf("%s: last line is not the JSON result: %v", cfg.workload, err)
	}
	return p, out.String()
}

func shortConfig(workload string, traced bool) config {
	// A tiny window still runs each workload's whole digest prefix.
	return config{workload: workload, seed: 7, seconds: 0.01, workers: runtime.NumCPU(), traced: traced}
}

// TestShortRunsPrintEveryMetric runs each workload briefly, untraced
// and traced, and checks that every metric BENCHMARK.json names is
// printed with its unit, that every output checked, and that tracing
// left the digest alone.
func TestShortRunsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bj := loadBenchmarkJSON(t)
	for _, w := range bj.Workloads {
		for _, traced := range []bool{false, true} {
			want := bj.EndToEnd
			if traced {
				want = bj.PerLayer
			}
			p, out := runShort(t, shortConfig(w.Name, traced))
			if !p.Correct || p.Failed != 0 || p.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d\n%s", w.Name, traced, p.Correct, p.Failed, p.Attempted, out)
			}
			if len(p.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, want %d", w.Name, traced, len(p.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := p.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s: got %+v (printed %v), want unit %s", w.Name, traced, m.Name, got, ok, m.Unit)
				}
			}
			if !traced {
				for _, m := range want {
					if p.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.Name, m.Name, p.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}

// TestInjectedFaultsRaiseFailedRatio proves the output checks bite: a
// corrupted expected Exec output and a flipped byte in a block
// read-back must each fail ops instead of passing.
func TestInjectedFaultsRaiseFailedRatio(t *testing.T) {
	for _, inject := range []string{injectExpect, injectReadback} {
		cfg := shortConfig("device_io", false)
		cfg.inject = inject
		p, _ := runShort(t, cfg)
		if p.Correct || p.Failed == 0 {
			t.Errorf("inject %s: correct=%v failed=%d of %d, want failures", inject, p.Correct, p.Failed, p.Attempted)
		}
	}
}

// TestStormDigestAcrossWorkers checks that attach_storm's digest is the
// same at one worker as at several: worker count is pure mechanism.
func TestStormDigestAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs attach_storm twice")
	}
	digests := map[int]string{}
	for _, workers := range []int{1, max(2, runtime.NumCPU())} {
		cfg := shortConfig("attach_storm", false)
		cfg.workers = workers
		w := newAttachStorm(cfg)
		r := newRunner(cfg, newLabels(cfg.workload), false)
		if err := w.setup(r); err != nil {
			t.Fatal(err)
		}
		win := measure(w, r, 0)
		if win.failed != 0 || win.digest == "" {
			t.Fatalf("workers=%d: failed=%d digest=%q %v", workers, win.failed, win.digest, win.notes)
		}
		digests[workers] = win.digest
	}
	if len(digests) == 2 && digests[1] != digests[max(2, runtime.NumCPU())] {
		t.Errorf("attach_storm digest depends on the worker count: %v", digests)
	}
}
