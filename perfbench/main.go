// Command perfbench is the repository's end-to-end benchmark. It drives
// four workloads through the program's public APIs only — serving,
// on-line repair under live load, the paper's Fig. 2 fault-tolerant
// training and replicated failover — checks that their outputs are
// correct, and prints one JSON result as its last line of output.
//
//	python3 perfbench/run.py --workload serve-steady --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// the run is repeated with spans recorded around the benchmark's calls
// into each layer, and the result holds the per-layer metrics. README.md
// beside this file says why each workload exists and how to read the
// numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// metricSpec names one reported metric and its unit. The lists below are
// the ones BENCHMARK.json declares; the smoke test holds the two in step.
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"goodput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"ok_frac", "fraction"},
	{"accuracy", "fraction"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricSpec{
	{"mapping.read_us", "us"},
	{"mapping.read_share", "fraction"},
	{"mapping.apply_delta_us", "us"},
	{"mapping.restore_writes", "count"},
	{"mapping.remap_writes", "count"},
	{"tensor.matmul_us", "us"},
	{"tensor.im2col_us", "us"},
	{"tensor.col2im_us", "us"},
	{"nn.forward_b1_us", "us"},
	{"nn.forward_b8_us", "us"},
	{"nn.forward_b16_us", "us"},
	{"nn.backward_us", "us"},
	{"train.step_us", "us"},
	{"train.write_frac", "fraction"},
	{"rram.writes", "count"},
	{"rram.senses", "count"},
	{"rram.write_retries", "count"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"obs.trace_overhead_frac", "fraction"},
}

// options is one invocation's parsed arguments.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string
}

// report is what a workload hands back: operation counts, the outcome of
// every correctness check, and the metrics it measured. Workload-specific
// figures that are not in the declared lists go to info, printed before
// the result line.
type report struct {
	attempted, failed int
	checks            []check
	metrics           map[string]float64
	info              map[string]float64
	table             []string
}

type check struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Note string `json:"note,omitempty"`
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, info: map[string]float64{}}
}

// require records a correctness check.
func (r *report) require(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Note = fmt.Sprintf(format, args...)
	}
	r.checks = append(r.checks, c)
}

var workloads = map[string]func(*options) (*report, error){
	"serve-steady":     func(o *options) (*report, error) { return runServe(o, false) },
	"serve-repair":     func(o *options) (*report, error) { return runServe(o, true) },
	"train-ft":         runTrain,
	"cluster-failover": runCluster,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, runs one workload and prints its result. It returns the
// process exit code: 0 only when every check passed and every declared
// metric was measured.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 25, "measured length of one run")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the measured one")
	outDir := fs.String("out", ".bench_out", "directory the traced run writes its spans file to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (choose one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	env, err := pinRuntime(*seed)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	o := &options{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir}
	rep, err := wl(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	specs := endToEnd
	if o.trace {
		specs = perLayer
	}
	return emit(stdout, stderr, *name, env, rep, specs)
}

// emit prints the run record, the traced table, and the result line last.
func emit(stdout, stderr io.Writer, name string, env runEnv, rep *report, specs []metricSpec) int {
	out := map[string]any{}
	for _, s := range specs {
		v, ok := rep.metrics[s.name]
		rep.require("measured/"+s.name, ok && !math.IsNaN(v) && !math.IsInf(v, 0), "metric %s was not measured", s.name)
		if ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
			out[s.name] = map[string]any{"value": v, "unit": s.unit}
		}
	}
	correct := true
	for _, c := range rep.checks {
		if !c.OK {
			correct = false
			fmt.Fprintf(stderr, "perfbench: check %s failed: %s\n", c.Name, c.Note)
		}
	}
	for _, line := range rep.table {
		fmt.Fprintln(stdout, line)
	}
	record, _ := json.Marshal(map[string]any{"workload": name, "env": env, "info": finite(rep.info), "checks": rep.checks})
	fmt.Fprintln(stdout, string(record))
	result, _ := json.Marshal(map[string]any{
		"correct": correct, "attempted": rep.attempted, "failed": rep.failed, "metrics": out,
	})
	fmt.Fprintln(stdout, string(result))
	if !correct {
		return 1
	}
	return 0
}

// finite drops values JSON cannot carry.
func finite(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			out[k] = v
		}
	}
	return out
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
