// Command perfbench is the repository benchmark. It drives the simulator
// through its public entry points on one of three workloads, checks every
// output against an independent reference, and prints the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run). The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds this program and the macrosim and
// macrochipd binaries inside the checkout first:
//
//	bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 30 --trace 0
//
// See README.md for the workloads, the metrics and what each layer metric
// is expected to move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed whose rendered CSV digests are recorded in
// digests.go.
const defaultSeed = 1

// env is what every workload needs from the command line and the host.
type env struct {
	seed    int64
	seconds float64
	trace   bool
	nproc   int
	work    string // scratch directory inside the checkout, removed at exit
	bin     string // directory holding the macrosim and macrochipd binaries
	traces  string // directory the Chrome-trace files are written to
}

// outcome is one run's result: the operation tally, the metrics the final
// line carries, and a report line of everything else measured.
type outcome struct {
	attempted, failed int
	mismatch          []string // first few correctness failures, for stderr
	metrics           map[string]metric
	extra             map[string]metric // workload-specific metrics, report line only
	dists             map[string]dist
	traceFile         string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, extra: map[string]metric{}, dists: map[string]dist{}}
}

func (o *outcome) set(name, unit string, v float64)      { o.metrics[name] = metric{v, unit} }
func (o *outcome) setExtra(name, unit string, v float64) { o.extra[name] = metric{v, unit} }

// fail records n failed operations with a reason.
func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	if len(o.mismatch) < 8 {
		o.mismatch = append(o.mismatch, fmt.Sprintf(format, args...))
	}
}

// summarize sets an end-to-end metric to the median of its samples and
// keeps the distribution for the report line.
func (o *outcome) summarize(name, unit string, samples []float64) {
	d := describe(samples)
	d.Unit = unit
	o.dists[name] = d
	o.set(name, unit, d.Median)
}

var workloads = map[string]func(*env) (*outcome, error){
	"sweep-cold":  runSweep,
	"fleet-apps":  runFleet,
	"serve-mixed": runServe,
}

func main() {
	name := flag.String("workload", "", "workload: sweep-cold, fleet-apps or serve-mixed")
	seed := flag.Int64("seed", defaultSeed, "input seed")
	seconds := flag.Float64("seconds", 30, "measurement time of an untraced run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	e := &env{seed: *seed, seconds: *seconds, trace: *trace == 1, nproc: runtime.NumCPU()}
	if err := run(e, *name, fn); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// buildDir is where run.sh puts the binaries and the runs put their
// scratch files and traces, relative to the repository root.
const buildDir = ".bench_build"

func run(e *env, name string, fn func(*env) (*outcome, error)) error {
	e.traces = filepath.Join(buildDir, "traces")
	if err := os.MkdirAll(e.traces, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(buildDir, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	if e.work, err = filepath.Abs(work); err != nil {
		return err
	}
	if e.bin, err = filepath.Abs(filepath.Join(buildDir, "bin")); err != nil {
		return err
	}
	for _, b := range []string{"macrosim", "macrochipd"} {
		if _, err := os.Stat(filepath.Join(e.bin, b)); err != nil {
			return fmt.Errorf("missing %s binary (build with run.sh): %w", b, err)
		}
	}

	steal0, all0 := cpuTicks()
	out, err := fn(e)
	if err != nil {
		return err
	}
	// The share of the host's CPU time the hypervisor took from this VM
	// while the run measured: a high value marks a contended host.
	steal1, all1 := cpuTicks()
	out.setExtra("host.steal_share", "1", ratio(steal1-steal0, all1-all0))
	if out.attempted < 1 {
		return errors.New("no operation attempted")
	}
	for _, m := range out.mismatch {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", m)
	}
	out.setExtra("failed_ratio", "1", float64(out.failed)/float64(out.attempted))
	return report(e, name, out)
}

// report prints a human-readable table, a JSON report line with the
// distribution of every sampled metric and the host, and last the result
// line: correct, attempted, failed and the metrics of BENCHMARK.json.
func report(e *env, name string, o *outcome) error {
	host := hostInfo(e.nproc)
	mode := "untraced"
	if e.trace {
		mode = "traced"
	}
	fmt.Printf("# perfbench %s seed=%d %s; nproc=%d GOMAXPROCS=%d %s; cpu %q\n",
		name, e.seed, mode, e.nproc, runtime.GOMAXPROCS(0), runtime.Version(), host["cpu_model"])
	all := map[string]metric{}
	for k, v := range o.metrics {
		all[k] = v
	}
	for k, v := range o.extra {
		all[k] = v
	}
	names := make([]string, 0, len(all))
	for k := range all {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := all[k]
		line := fmt.Sprintf("%-40s %14.6g %-6s", k, m.Value, m.Unit)
		if d, ok := o.dists[k]; ok {
			line += fmt.Sprintf("  median of n=%d, q1=%.6g q3=%.6g", d.N, d.Q1, d.Q3)
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
	rep, err := json.Marshal(map[string]any{
		"report": map[string]any{
			"workload": name, "seed": e.seed, "traced": e.trace, "host": host,
			"distributions": o.dists, "metrics": all,
		},
	})
	if err != nil {
		return err
	}
	res, err := json.Marshal(map[string]any{
		"correct": o.failed == 0, "attempted": o.attempted, "failed": o.failed, "metrics": o.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(rep))
	if o.traceFile != "" {
		fmt.Println("# chrome trace:", o.traceFile)
	}
	fmt.Println(string(res))
	return nil
}

// hostInfo records what the numbers depend on: core count, scheduler
// width, toolchain and CPU model.
func hostInfo(nproc int) map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(l, "model name") {
				if i := strings.Index(l, ":"); i >= 0 {
					model = strings.TrimSpace(l[i+1:])
				}
				break
			}
		}
	}
	return map[string]any{
		"nproc": nproc, "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"cpu_model": model, "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"time": time.Now().UTC().Format(time.RFC3339),
	}
}

// loop runs iter at least minIters times, and more while another
// iteration as long as the last one still fits in the run's measurement
// time.
func loop(e *env, minIters int, iter func(i int) error) error {
	start := time.Now()
	var last time.Duration
	for i := 0; i < minIters || (time.Since(start)+last).Seconds() <= e.seconds; i++ {
		t0 := time.Now()
		if err := iter(i); err != nil {
			return err
		}
		last = time.Since(t0)
	}
	return nil
}
