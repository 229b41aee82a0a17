package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"

	"macrochip/internal/core"
	"macrochip/internal/cpu"
	"macrochip/internal/distrib"
	"macrochip/internal/expcache"
	"macrochip/internal/harness"
	"macrochip/internal/networks"
	"macrochip/internal/opgraph"
	"macrochip/internal/workload"
)

// fleetScale is the study's instruction-quota scale: the CLIs' -quick
// scale.
const fleetScale = 0.1

func inferenceConfig(seed int64) harness.InferenceConfig {
	cfg := harness.DefaultInferenceConfig()
	cfg.Seed = seed
	return cfg
}

// fleetPass is one figure 7–10 study plus the inference study through a
// coordinator with nproc spawned `macrosim -worker` processes over pipes,
// on a fresh cache directory.
type fleetPass struct {
	dir                  string
	setup, wall, cpu, mb float64
	csv                  [][]byte // study, inference
	cells                []int
	dist                 harness.DistStats
	cache                expcache.Stats
}

var fleetOutputs = []string{"study", "inference"}

// renderApps renders the two studies' CSVs and their cell counts.
func renderApps(rows []harness.StudyRow, points []harness.InferencePoint) ([][]byte, []int, error) {
	var s, i bytes.Buffer
	if err := harness.WriteStudyCSV(&s, rows); err != nil {
		return nil, nil, err
	}
	if err := harness.WriteInferenceCSV(&i, points); err != nil {
		return nil, nil, err
	}
	cells := 0
	for _, r := range rows {
		cells += len(r.Cells)
	}
	return [][]byte{s.Bytes(), i.Bytes()}, []int{cells, len(points)}, nil
}

// runApps runs both studies on r.
func runApps(r harness.Runner, seed int64) ([]harness.StudyRow, []harness.InferencePoint, error) {
	rows := harness.FullStudyWith(r, core.DefaultParams(), workload.Scale(fleetScale), seed)
	points, err := harness.InferenceStudyWith(r, inferenceConfig(seed))
	return rows, points, err
}

func runFleetPass(e *env, i int) (*fleetPass, error) {
	p := &fleetPass{dir: filepath.Join(e.work, fmt.Sprintf("fleet-%d", i))}
	runtime.GC()
	debug.FreeOSMemory()
	syscall.Sync()
	resetPeakRSS()
	// Set-up mirrors what -dist-workers N does: open the cache, spawn the
	// workers with the flag block's defaults, wait for every hello.
	t0 := time.Now()
	cache, err := expcache.Open(p.dir)
	if err != nil {
		return nil, err
	}
	coord, err := harness.NewCoordinator(harness.CoordinatorConfig{
		Workers:  e.nproc,
		Exec:     filepath.Join(e.bin, "macrosim"),
		Args:     []string{"-cache-dir", p.dir, "-dist-depth", strconv.Itoa(distrib.DefaultCredits)},
		MaxDepth: distrib.DefaultCredits,
		Seed:     e.seed,
		Log:      os.Stderr,
	})
	if err != nil {
		return nil, err
	}
	defer coord.Close()
	if err := coord.AwaitWorkers(e.nproc, time.Minute); err != nil {
		return nil, err
	}
	p.setup = time.Since(t0).Seconds()
	pids := coord.WorkerPIDs()
	fleetCPU := func() float64 {
		t := selfCPU()
		for _, pid := range pids {
			c, err := procCPU(pid)
			if err == nil {
				t += c
			}
		}
		return t
	}
	cpu0, w0 := fleetCPU(), time.Now()
	rows, points, err := runApps(harness.Runner{Cache: cache, Dist: coord}, e.seed)
	if err != nil {
		return nil, err
	}
	p.wall, p.cpu = time.Since(w0).Seconds(), fleetCPU()-cpu0
	kb, err := procMemKB(0, "VmHWM")
	if err != nil {
		return nil, err
	}
	for _, pid := range pids {
		w, err := procMemKB(pid, "VmHWM")
		if err != nil {
			return nil, fmt.Errorf("worker %d: %w", pid, err)
		}
		kb += w
	}
	p.mb = kb / 1024
	p.dist, p.cache = coord.Stats(), cache.Stats()
	p.csv, p.cells, err = renderApps(rows, points)
	return p, err
}

func runFleet(e *env) (*outcome, error) {
	o := newOutcome()
	var first [][]byte
	var setup, wall, cpu, rss []float64
	var last *fleetPass
	pass := func(i int) error {
		p, err := runFleetPass(e, i)
		if err != nil {
			return err
		}
		o.attempted += total(p.cells)
		if n := int(p.dist.LocalFallback); n > 0 {
			o.fail(n, "fleet-apps: %d cells handed back to local compute", n)
		}
		checkOutputs(o, e, "fleet-apps", fleetOutputs, p.csv, first, p.cells)
		if first == nil {
			first = p.csv
		}
		setup, wall = append(setup, p.setup), append(wall, p.wall)
		cpu, rss = append(cpu, p.cpu), append(rss, p.mb)
		last = p
		if e.trace {
			return nil // the traced pass reads this iteration's cache
		}
		return os.RemoveAll(p.dir)
	}
	if e.trace {
		if err := pass(0); err != nil {
			return nil, err
		}
		return o, traceFleet(e, o, last)
	}
	if err := loop(e, 3, pass); err != nil {
		return nil, err
	}
	o.summarize("wall_s", "s", wall)
	o.summarize("cpu_s", "s", cpu)
	o.summarize("peak_rss_mb", "MB", rss)
	o.summarize("setup_s", "s", setup)
	return o, nil
}

// appJob is one study cell or inference point, in the studies' own order.
type appJob struct {
	bench cpu.Benchmark // study cell when Name is set
	kind  networks.Kind
	graph string
	batch int
	seq   int
}

func appJobs(seed int64) []appJob {
	var jobs []appJob
	p := core.DefaultParams()
	for _, b := range workload.All(p.Grid, workload.Scale(fleetScale)) {
		for _, k := range networks.Six() {
			jobs = append(jobs, appJob{bench: b, kind: k})
		}
	}
	cfg := inferenceConfig(seed)
	for _, k := range networks.Six() {
		for _, g := range opgraph.PresetNames() {
			for _, b := range cfg.Batches {
				for _, s := range cfg.SeqLens {
					jobs = append(jobs, appJob{kind: k, graph: g, batch: b, seq: s})
				}
			}
		}
	}
	return jobs
}

// appResult is one traced cell's output and cost.
type appResult struct {
	bench harness.BenchResult
	point harness.InferencePoint
	count simCount
}

func runAppJob(j appJob, seed int64) (appResult, error) {
	if j.bench.Name != "" {
		r, c := tracedBenchCell(j.bench, j.kind, core.DefaultParams(), harness.CellSeed(seed, j.bench.Name, j.kind))
		return appResult{bench: r, count: c}, nil
	}
	pt, err := harness.RunInferencePoint(inferenceConfig(seed), j.kind, j.graph, j.batch, j.seq)
	return appResult{point: pt, count: simCount{events: pt.Events}}, err
}

// traceFleet prices the fleet against in-process compute on the same
// cells and cores, replays every cell in-process with spans (its bytes
// must equal the fleet's), and runs the layer probes.
func traceFleet(e *env, o *outcome, f *fleetPass) error {
	local, err := expcache.Open(filepath.Join(e.work, "fleet-local"))
	if err != nil {
		return err
	}
	t0 := time.Now()
	rows, points, err := runApps(harness.Runner{Cache: local}, e.seed)
	if err != nil {
		return err
	}
	localWall := time.Since(t0).Seconds()
	csv, cells, err := renderApps(rows, points)
	if err != nil {
		return err
	}
	o.attempted += total(cells)
	checkOutputs(o, e, "fleet-apps", fleetOutputs, csv, f.csv, cells)

	jobs := appJobs(e.seed)
	res := make([]appResult, len(jobs))
	errs := make([]error, len(jobs))
	tr := newTracer()
	var wall time.Duration
	shares, err := profiled(func() {
		wall = fanOut(e.nproc, len(jobs), func(lane, i int) {
			s0 := time.Now()
			res[i], errs[i] = runAppJob(jobs[i], e.seed)
			name := "cpu.cell"
			if jobs[i].bench.Name == "" {
				name = "opgraph.point"
			}
			tr.record(0, name, 0, int64(i), lane, s0, time.Now())
		})
	})
	if err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	o.setShares(shares)

	// Reassemble the studies from the traced cells in their own order.
	var tRows []harness.StudyRow
	var tPoints []harness.InferencePoint
	for i, j := range jobs {
		if j.bench.Name == "" {
			tPoints = append(tPoints, res[i].point)
			continue
		}
		if len(tRows) == 0 || tRows[len(tRows)-1].Benchmark != j.bench.Name {
			tRows = append(tRows, harness.StudyRow{Benchmark: j.bench.Name, Cells: map[networks.Kind]harness.BenchResult{}})
		}
		tRows[len(tRows)-1].Cells[j.kind] = res[i].bench
	}
	tcsv, tcells, err := renderApps(tRows, tPoints)
	if err != nil {
		return err
	}
	o.attempted += total(tcells)
	checkOutputs(o, e, "fleet-apps", fleetOutputs, tcsv, f.csv, tcells)

	tally := netTally{}
	var events uint64
	var heap, studyMS, infMS []float64
	var studyNS, studyOps, infNS, infEvents float64
	for _, s := range tr.spans {
		r, j, d := res[s.op], jobs[s.op], s.end.Sub(s.start)
		events += r.count.events
		if j.bench.Name == "" {
			infMS, infNS, infEvents = append(infMS, ms(d)), infNS+float64(d), infEvents+float64(r.count.events)
			continue
		}
		studyMS, studyNS, studyOps = append(studyMS, ms(d)), studyNS+float64(d), studyOps+float64(r.bench.Ops)
		heap = append(heap, r.count.heap...)
		tally.add(j.kind, d, r.count)
	}

	// Allocations need a quiet process: replay the first two benchmarks on
	// every network, and each operator graph at batch 1, seq 16 on every
	// network, serially.
	first := map[string]bool{jobs[0].bench.Name: true, jobs[len(networks.Six())].bench.Name: true}
	var studyAllocs, probeOps float64
	opAllocs := map[networks.Kind][2]float64{}
	for _, j := range jobs {
		if j.bench.Name != "" && !first[j.bench.Name] || j.bench.Name == "" && (j.batch != 1 || j.seq != 16) {
			continue
		}
		m0 := mallocs()
		r, err := runAppJob(j, e.seed)
		if err != nil {
			return err
		}
		a := mallocs() - m0
		if j.bench.Name == "" {
			v := opAllocs[j.kind]
			opAllocs[j.kind] = [2]float64{v[0] + float64(a), v[1] + float64(r.count.events)}
			continue
		}
		studyAllocs, probeOps = studyAllocs+float64(a), probeOps+float64(r.bench.Ops)
		tally.addAllocs(j.kind, a, r.count)
	}
	o.setNetworks(tally)
	o.setKernel(events, heap)
	o.setExtra("study.ms_per_cell_p50", "ms", pct(studyMS, 50))
	o.setExtra("study.ns_per_op", "ns", ratio(studyNS, studyOps))
	o.setExtra("study.allocs_per_op", "count", ratio(studyAllocs, probeOps))
	o.setExtra("inference.ms_per_point_p50", "ms", pct(infMS, 50))
	o.setExtra("inference.ns_per_event", "ns", ratio(infNS, infEvents))
	for _, k := range networks.Six() {
		v := opAllocs[k]
		o.setExtra("opgraph."+string(k)+".allocs_per_event", "count", ratio(v[0], v[1]))
	}

	n := float64(total(f.cells))
	o.setExtra("coordinator.tax_ratio", "1", f.wall/localWall)
	o.setExtra("coordinator.tax_ms_per_cell", "ms", (f.wall-localWall)*1e3/n)
	o.setExtra("coordinator.out_of_order", "count", float64(f.dist.OutOfOrder))
	o.setExtra("coordinator.retried", "count", float64(f.dist.Retried))
	o.setExtra("coordinator.local_fallback", "count", float64(f.dist.LocalFallback))

	all := append(studyMS, infMS...)
	o.set("harness.loadpoint_ms_p50", "ms", pct(all, 50))
	o.set("harness.loadpoint_ms_max", "ms", maxOf(all))
	o.set("harness.parallel_speedup", "1", sum(all)/1e3/wall.Seconds())
	o.set("harness.cpu_util", "1", f.cpu/(f.wall*float64(e.nproc)))
	o.set("bench.trace_overhead", "1", wall.Seconds()/localWall)
	o.setCacheRatios(f.cache)
	if err := fleetCacheTiers(e, o, f.dir); err != nil {
		return err
	}
	return tr.finish(e, o, "fleet-apps")
}

// fleetCacheTiers times the cache tiers on the fleet's own entries, each
// decoded as the result type it holds.
func fleetCacheTiers(e *env, o *outcome, dir string) error {
	entries, err := readEntries(dir)
	if err != nil {
		return err
	}
	var study, inference []entry
	for _, en := range entries {
		var probe struct{ Graph *string }
		if err := json.Unmarshal(en.data, &probe); err != nil {
			return err
		}
		if probe.Graph != nil {
			inference = append(inference, en)
		} else {
			study = append(study, en)
		}
	}
	p1, d1, h1, err := cacheTiers[harness.BenchResult](filepath.Join(e.work, "tiers-study"), study)
	if err != nil {
		return err
	}
	p2, d2, h2, err := cacheTiers[harness.InferencePoint](filepath.Join(e.work, "tiers-inference"), inference)
	if err != nil {
		return err
	}
	o.setTiers(append(p1, p2...), append(d1, d2...), append(h1, h2...))
	return nil
}
