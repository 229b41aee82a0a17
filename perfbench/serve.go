package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"macrochip/internal/expcache"
	"macrochip/internal/harness"
	"macrochip/internal/networks"
	"macrochip/internal/server"
	"macrochip/internal/sim"
	"macrochip/internal/traffic"
)

// serve-mixed shape. Every one of the nproc clients sends the same mix in
// its own seeded order, 750 requests:
//   - reads (73.6 %): each of the 24 read variants readRounds times, figure-6
//     panel requests on the warm set's windows that the cache answers;
//   - writes (8.8 %): writesPerClient one-point requests on tinier windows,
//     each with its own seed, so the daemon simulates and publishes them;
//   - rendezvous calls (17.6 %): what two sweep participants send through
//     expcache.HTTPRemote, recorded from the harness itself (recordParticipant):
//     one finds the whole figure-6 grid in the daemon's cache, one runs a new
//     uniform panel.
//
// The batch is a fixed request count, so daemon memory is comparable across
// commits.
const (
	readRounds      = 23
	writesPerClient = 66
	readWarmupNS    = 50
	readMeasureNS   = 150
	writeWarmupNS   = 20
	writeMeasureNS  = 60
	// traceRefBatches is how many untraced batches a traced run times
	// before its traced one.
	traceRefBatches = 3
)

// readShapes are the read requests made of each pattern's panel: how many
// of the five networks, and whether all loads or half of them.
var readShapes = []struct {
	networks  int
	halfLoads bool
}{{5, false}, {3, false}, {5, true}, {2, true}, {4, false}, {1, false}}

// figure6Patterns are the four figure-6 traffic patterns.
var figure6Patterns = []string{"uniform", "transpose", "neighbor", "butterfly"}

// serveOp is one generated request with its expected answer.
type serveOp struct {
	kind  string                  // read, write, get, batch or put
	body  []byte                  // experiment config (read, write)
	want  []byte                  // expected CSV (read, write)
	keys  []expcache.Key          // get, batch, put
	entry []byte                  // get: the expected entry, nil for a 404; put: the entry sent
	found map[expcache.Key][]byte // batch: the expected entries
}

// id identifies a request, to count repeats.
func (op serveOp) id() string {
	return op.kind + string(op.body) + fmt.Sprint(op.keys)
}

// serveInputs is everything a run generates from its seed.
type serveInputs struct {
	warm    []entry                   // the warm set, in key order
	lanes   [][]serveOp               // each client's requests, in sending order
	puts    []entry                   // every entry a put call publishes
	reads   [][]byte                  // the read variants' expected CSVs
	writes  []harness.LoadPointConfig // the write ops' points, for the traced replay
	wpoints []harness.LoadPoint       // their untraced results
	repeat  float64                   // share of requests that repeat another
}

// figure6Base is the load-point base the daemon builds for a figure-6
// request: seed 0 means 1, and the windows replace the defaults.
func figure6Base(seed int64, warmupNS, measureNS float64) harness.LoadPointConfig {
	base := harness.DefaultLoadPointConfig()
	base.Seed = seed
	if seed == 0 {
		base.Seed = 1
	}
	base.Warmup, base.Measure = sim.FromNanoseconds(warmupNS), sim.FromNanoseconds(measureNS)
	return base
}

// reference renders a figure-6 request in-process the way the daemon
// interprets it, on r.
func reference(q server.ExperimentConfig, r harness.Runner) ([]byte, harness.Figure6Panel, error) {
	var kinds []networks.Kind
	for _, n := range q.Networks {
		kinds = append(kinds, networks.Kind(n))
	}
	panel, err := harness.Figure6PanelWith(r, figure6Base(q.Seed, q.WarmupNS, q.MeasureNS), q.Pattern, kinds, q.Loads)
	if err != nil {
		return nil, panel, err
	}
	var b bytes.Buffer
	err = harness.WriteFigure6CSV(&b, panel)
	return b.Bytes(), panel, err
}

// recorder stands in for the daemon as the remote tier of a sweep run
// in-process: it answers from what the daemon holds and records every call,
// with its answer, for the batch to replay through expcache.HTTPRemote.
type recorder struct {
	mu    sync.Mutex
	held  map[expcache.Key][]byte
	calls []serveOp
}

func (r *recorder) Get(key expcache.Key) ([]byte, bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, ok := r.held[key]
	r.calls = append(r.calls, serveOp{kind: "get", keys: []expcache.Key{key}, entry: data})
	return data, ok, nil
}

// GetBatch records one call for the whole key list, as HTTPRemote.GetBatch
// takes it; HTTPRemote splits it into requests of at most 256 keys.
func (r *recorder) GetBatch(keys []expcache.Key) (map[expcache.Key][]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	found := map[expcache.Key][]byte{}
	for _, k := range keys {
		if data, ok := r.held[k]; ok {
			found[k] = data
		}
	}
	r.calls = append(r.calls, serveOp{kind: "batch", keys: append([]expcache.Key(nil), keys...), found: found})
	return found, nil
}

func (r *recorder) Put(key expcache.Key, data []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.held[key] = data
	r.calls = append(r.calls, serveOp{kind: "put", keys: []expcache.Key{key}, entry: data})
	return nil
}

// recordParticipant runs sweep the way `figures -cache-url` runs it: on a fresh
// local cache whose remote tier is the daemon, here a recorder holding the
// warm set. It returns the calls in a serial participant's order: the
// Prefetch GetBatch over the sweep's keys, then for each point the local
// cache misses a Get and, on a 404, the computed entry's Put.
func recordParticipant(dir string, warm []entry, sweep func(harness.Runner) error) ([]serveOp, error) {
	c, err := expcache.Open(dir)
	if err != nil {
		return nil, err
	}
	rec := &recorder{held: map[expcache.Key][]byte{}}
	for _, en := range warm {
		rec.held[en.key] = en.data
	}
	c.SetRemote(rec)
	if err := sweep(harness.Runner{Workers: 1, Cache: c}); err != nil {
		return nil, err
	}
	return rec.calls, nil
}

func genServe(e *env) (*serveInputs, error) {
	rng := rand.New(rand.NewSource(e.seed))
	in := &serveInputs{}
	warmDir := filepath.Join(e.work, "warm")
	warm, err := expcache.Open(warmDir)
	if err != nil {
		return nil, err
	}
	warmRunner := harness.Runner{Cache: warm}
	five := networks.Five()

	// Read variants: the full panel first (it fills the warm set), then
	// subsets of it answered by the same entries. The variant shapes are
	// fixed, so the seed picks which networks and loads but never how much
	// work a read is.
	var reads []serveOp
	for _, pat := range figure6Patterns {
		grid := harness.Figure6Loads(pat)
		for _, shape := range readShapes {
			q := server.ExperimentConfig{Kind: "figure6", Seed: e.seed, Pattern: pat, WarmupNS: readWarmupNS, MeasureNS: readMeasureNS}
			if shape.networks < len(five) {
				for _, i := range rng.Perm(len(five))[:shape.networks] {
					q.Networks = append(q.Networks, string(five[i]))
				}
			}
			if shape.halfLoads {
				for _, i := range rng.Perm(len(grid))[:len(grid)/2] {
					q.Loads = append(q.Loads, grid[i])
				}
			}
			want, _, err := reference(q, warmRunner)
			if err != nil {
				return nil, err
			}
			body, _ := json.Marshal(q)
			reads = append(reads, serveOp{kind: "read", body: body, want: want})
			in.reads = append(in.reads, want)
		}
	}
	if in.warm, err = readEntries(warmDir); err != nil {
		return nil, err
	}

	// Each client replays two sweep participants: one asks for the warm
	// figure-6 grid, which the daemon holds whole, and one runs a uniform
	// panel under a new seed, which the daemon has never seen.
	hit, err := recordParticipant(filepath.Join(e.work, "hit"), in.warm, func(r harness.Runner) error {
		harness.Figure6With(r, figure6Base(e.seed, readWarmupNS, readMeasureNS))
		return nil
	})
	if err != nil {
		return nil, err
	}
	seen, requests := map[string]bool{}, 0
	for c := 0; c < e.nproc; c++ {
		var ops []serveOp
		for r := 0; r < readRounds; r++ {
			ops = append(ops, reads...)
		}
		for i := 0; i < writesPerClient; i++ {
			// Every client writes the same cycle of pattern, network and
			// load position, so every seed and client does the same work;
			// the seed picks the point seeds.
			pat := figure6Patterns[i%len(figure6Patterns)]
			grid := harness.Figure6Loads(pat)
			q := server.ExperimentConfig{
				Kind: "figure6", Seed: rng.Int63(), Pattern: pat,
				Networks: []string{string(five[i%len(five)])}, Loads: []float64{grid[(i/len(five))%len(grid)]},
				WarmupNS: writeWarmupNS, MeasureNS: writeMeasureNS,
			}
			want, panel, err := reference(q, harness.Serial)
			if err != nil {
				return nil, err
			}
			body, _ := json.Marshal(q)
			ops = append(ops, serveOp{kind: "write", body: body, want: want})
			pattern, err := traffic.ByName(pat, harness.DefaultLoadPointConfig().Params.Grid)
			if err != nil {
				return nil, err
			}
			cfg := figure6Base(q.Seed, writeWarmupNS, writeMeasureNS)
			cfg.Network, cfg.Pattern, cfg.Load = five[i%len(five)], pattern, q.Loads[0]
			cfg.Seed = harness.PointSeed(cfg.Seed, cfg.Network, pat, cfg.Load)
			in.writes = append(in.writes, cfg)
			in.wpoints = append(in.wpoints, panel.Series[0].Points[0])
		}
		miss, err := recordParticipant(filepath.Join(e.work, fmt.Sprintf("miss-%d", c)), in.warm, func(r harness.Runner) error {
			_, err := harness.Figure6PanelWith(r, figure6Base(rng.Int63(), readWarmupNS, readMeasureNS), "uniform", nil, nil)
			return err
		})
		if err != nil {
			return nil, err
		}
		for _, op := range miss {
			if op.kind == "put" {
				in.puts = append(in.puts, entry{op.keys[0], op.entry})
			}
		}
		ops = interleave(rng, ops, hit, miss)
		for _, op := range ops {
			if seen[op.id()] {
				in.repeat++
			}
			seen[op.id()] = true
		}
		in.lanes = append(in.lanes, ops)
		requests += len(ops)
	}
	in.repeat /= float64(requests)
	return in, nil
}

// interleave shuffles ops and places each participant's calls among them at
// seeded positions, keeping every participant's own order.
func interleave(rng *rand.Rand, ops []serveOp, participants ...[]serveOp) []serveOp {
	type placed struct {
		at float64
		op serveOp
	}
	all := make([]placed, 0, len(ops))
	for _, op := range ops {
		all = append(all, placed{rng.Float64(), op})
	}
	for _, calls := range participants {
		at := make([]float64, len(calls))
		for i := range at {
			at[i] = rng.Float64()
		}
		sort.Float64s(at)
		for i, op := range calls {
			all = append(all, placed{at[i], op})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].at < all[j].at })
	out := make([]serveOp, len(all))
	for i, p := range all {
		out[i] = p.op
	}
	return out
}

// daemon is one macrochipd child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stdout chan struct{} // closed when its stdout reaches EOF
	log    string
	dir    string // its cache directory
}

// startDaemon execs macrochipd on a copy of the warm set and waits for
// /healthz; the returned duration is the set-up time.
func startDaemon(e *env, in *serveInputs, i int) (*daemon, time.Duration, error) {
	dir := filepath.Join(e.work, fmt.Sprintf("serve-%d", i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	for _, en := range in.warm {
		if err := os.WriteFile(filepath.Join(dir, en.key.Hex()+".json"), en.data, 0o644); err != nil {
			return nil, 0, err
		}
	}
	syscall.Sync()
	d := &daemon{log: filepath.Join(e.work, fmt.Sprintf("macrochipd-%d.log", i)), stdout: make(chan struct{}), dir: dir}
	logf, err := os.Create(d.log)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	// Defaults except the rate limit, which must sit above the offered load.
	d.cmd = exec.Command(filepath.Join(e.bin, "macrochipd"), "-addr", "127.0.0.1:0",
		"-cache-dir", dir, "-rate", "1e9", "-burst", "1e9")
	d.cmd.Stderr = logf
	out, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	r := bufio.NewReader(out)
	line, err := r.ReadString('\n')
	if err != nil {
		d.cmd.Process.Kill() //nolint:errcheck // it may already have exited
		d.cmd.Wait()         //nolint:errcheck // the failure is reported below
		return nil, 0, fmt.Errorf("macrochipd: no listening line: %v (log %s)", err, d.log)
	}
	go func() {
		io.Copy(io.Discard, r) //nolint:errcheck // drains until the daemon exits
		close(d.stdout)
	}()
	d.base = "http://" + strings.TrimSpace(strings.TrimPrefix(line, "macrochipd: listening on "))
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the status matters
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 30*time.Second {
			d.kill()
			return nil, 0, fmt.Errorf("macrochipd: /healthz not ready after 30s (log %s)", d.log)
		}
		time.Sleep(time.Millisecond)
	}
}

// kill stops a daemon that never became ready.
func (d *daemon) kill() {
	d.cmd.Process.Kill() //nolint:errcheck // the process may already be gone
	<-d.stdout
	d.cmd.Wait() //nolint:errcheck // killed on purpose
}

// stop drains the daemon with SIGTERM, as an operator would, and reaps it.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() {
		<-d.stdout
		done <- d.cmd.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("macrochipd exit: %v (log %s)", err, d.log)
		}
		return nil
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // drain overran
		<-done
		return fmt.Errorf("macrochipd did not drain within 60s (log %s)", d.log)
	}
}

func (d *daemon) getJSON(path string, v any) error {
	resp, err := http.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// opResult is one request's outcome.
type opResult struct {
	kind                string
	keys                int // keys a rendezvous call names
	start, submit, done time.Time
	id                  string // experiment job id
	err                 error
}

// doOp sends one request and checks its answer.
func doOp(d *daemon, remote *expcache.HTTPRemote, op serveOp) opResult {
	r := opResult{kind: op.kind, keys: len(op.keys), start: time.Now()}
	switch op.kind {
	case "read", "write":
		resp, err := http.Post(d.base+"/v1/experiments", "application/json", bytes.NewReader(op.body))
		if err != nil {
			r.err = err
			break
		}
		var view struct {
			ID string `json:"id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		r.submit = time.Now()
		if resp.StatusCode != http.StatusAccepted || err != nil {
			r.err = fmt.Errorf("submit: %s %v", resp.Status, err)
			break
		}
		r.id = view.ID
		resp, err = http.Get(d.base + "/v1/experiments/" + view.ID + "/result?wait=true&format=csv")
		if err != nil {
			r.err = err
			break
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case err != nil:
			r.err = err
		case resp.StatusCode != http.StatusOK:
			r.err = fmt.Errorf("result: %s", resp.Status)
		case !bytes.Equal(body, op.want):
			r.err = fmt.Errorf("%s %s: response differs from Figure6PanelWith in-process", op.kind, op.body)
		}
	case "get":
		got, ok, err := remote.Get(op.keys[0])
		if err != nil || ok != (op.entry != nil) || !bytes.Equal(got, op.entry) {
			r.err = fmt.Errorf("get %s: ok=%v err=%v, want ok=%v and the recorded bytes", op.keys[0].Hex(), ok, err, op.entry != nil)
		}
	case "batch":
		got, err := remote.GetBatch(op.keys)
		if err == nil && len(got) != len(op.found) {
			err = fmt.Errorf("%d of %d keys served, want %d", len(got), len(op.keys), len(op.found))
		}
		for k, want := range op.found {
			if err == nil && !bytes.Equal(got[k], want) {
				err = fmt.Errorf("entry %s differs", k.Hex())
			}
		}
		if err != nil {
			r.err = fmt.Errorf("batch: %v", err)
		}
	case "put":
		if err := remote.Put(op.keys[0], op.entry); err != nil {
			r.err = fmt.Errorf("put %s: %v", op.keys[0].Hex(), err)
		}
	}
	r.done = time.Now()
	return r
}

// servePass is one batch against a fresh daemon.
type servePass struct {
	setup, wall, cpu, mb float64
	rssKB                [2]float64 // VmRSS before and after the batch
	results              []opResult
	lanes                []int
	// putsLost counts put entries the daemon did not serve back
	// byte-identical after the batch.
	putsLost int
}

// serveHooks let the traced run act on the live daemon right before the
// batch and after it.
type serveHooks struct {
	before func(*daemon)
	after  func(*daemon) error
}

// runServeBatch drives the batch from nproc closed-loop clients, client c
// sending its lane in order.
func runServeBatch(e *env, in *serveInputs, i int, h serveHooks) (*servePass, error) {
	d, setup, err := startDaemon(e, in, i)
	if err != nil {
		return nil, err
	}
	defer http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	p := &servePass{setup: setup.Seconds()}
	pid := d.cmd.Process.Pid
	remote := expcache.NewHTTPRemote(d.base)
	p.rssKB[0], _ = procMemKB(pid, "VmRSS")
	p.cpu, _ = procCPU(pid)
	if h.before != nil {
		h.before(d)
	}
	results := make([][]opResult, len(in.lanes))
	t0 := time.Now()
	var wg sync.WaitGroup
	for c, lane := range in.lanes {
		wg.Add(1)
		go func(c int, lane []serveOp) {
			defer wg.Done()
			for _, op := range lane {
				results[c] = append(results[c], doOp(d, remote, op))
			}
		}(c, lane)
	}
	wg.Wait()
	p.wall = time.Since(t0).Seconds()
	for c, rs := range results {
		for _, r := range rs {
			p.results, p.lanes = append(p.results, r), append(p.lanes, c)
		}
	}
	ferr := p.measure(pid)
	// Every put must have published its exact bytes.
	keys := make([]expcache.Key, len(in.puts))
	for j, en := range in.puts {
		keys[j] = en.key
	}
	got, err := remote.GetBatch(keys)
	for _, en := range in.puts {
		if err != nil || !bytes.Equal(got[en.key], en.data) {
			p.putsLost++
		}
	}
	if h.after != nil {
		if err := h.after(d); err != nil && ferr == nil {
			ferr = err
		}
	}
	if err := d.stop(); err != nil && ferr == nil {
		ferr = err
	}
	if err := os.RemoveAll(d.dir); err != nil && ferr == nil {
		ferr = err
	}
	return p, ferr
}

// measure reads the daemon's CPU and memory once the batch is done.
func (p *servePass) measure(pid int) error {
	cpu1, err := procCPU(pid)
	if err != nil {
		return err
	}
	cpu0 := p.cpu
	hwm, err := procMemKB(pid, "VmHWM")
	if err != nil {
		return err
	}
	if p.rssKB[1], err = procMemKB(pid, "VmRSS"); err != nil {
		return err
	}
	p.cpu, p.mb = cpu1-cpu0, hwm/1024
	return nil
}

// tally counts a batch's requests and failures.
func (o *outcome) tally(p *servePass) {
	o.attempted += len(p.results)
	for _, r := range p.results {
		if r.err != nil {
			o.fail(1, "serve-mixed %s: %v", r.kind, r.err)
		}
	}
	if p.putsLost > 0 {
		o.fail(p.putsLost, "serve-mixed: %d put entries not served back byte-identical", p.putsLost)
	}
}

func runServe(e *env) (*outcome, error) {
	// Load comes from nproc clients; the pool holds one keep-alive
	// connection per client, and the rendezvous calls share it.
	http.DefaultTransport = &http.Transport{MaxConnsPerHost: e.nproc, MaxIdleConnsPerHost: e.nproc, IdleConnTimeout: time.Minute}
	in, err := genServe(e)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	o.setExtra("serve.repeat_share", "1", in.repeat)
	if e.seed == defaultSeed {
		checkOutputs(o, e, "serve-mixed", []string{"reads"}, [][]byte{bytes.Join(in.reads, nil)}, nil, []int{len(in.reads)})
	}
	var setup, wall, cpu, rss, rate, lat []float64
	var last *servePass
	pass := func(i int) error {
		p, err := runServeBatch(e, in, i, serveHooks{})
		if err != nil {
			return err
		}
		o.tally(p)
		if i == 0 {
			return nil // warms the client process; its numbers are not kept
		}
		for _, r := range p.results {
			lat = append(lat, ms(r.done.Sub(r.start)))
		}
		setup, wall, cpu, rss = append(setup, p.setup), append(wall, p.wall), append(cpu, p.cpu), append(rss, p.mb)
		rate = append(rate, float64(len(p.results))/p.wall)
		last = p
		return nil
	}
	if e.trace {
		// A warm-up batch, then the untraced batches; the one with the
		// median wall time is the reference the traced batch is priced
		// against.
		var ref []*servePass
		for i := 0; i < 1+traceRefBatches; i++ {
			if err := pass(i); err != nil {
				return nil, err
			}
			if i > 0 {
				ref = append(ref, last)
			}
		}
		sort.Slice(ref, func(a, b int) bool { return ref[a].wall < ref[b].wall })
		return o, traceServe(e, o, in, ref[len(ref)/2])
	}
	if err := loop(e, 4, pass); err != nil {
		return nil, err
	}
	o.summarize("wall_s", "s", wall)
	o.summarize("cpu_s", "s", cpu)
	o.summarize("peak_rss_mb", "MB", rss)
	o.summarize("setup_s", "s", setup)
	o.setExtra("req_p50_ms", "ms", pct(lat, 50))
	o.setExtra("req_p99_ms", "ms", pct(lat, 99))
	o.setExtra("req_samples", "count", float64(len(lat)))
	d := describe(rate)
	d.Unit = "1/s"
	o.dists["req_per_s"] = d
	o.setExtra("req_per_s", "1/s", d.Median)
	return o, nil
}

// traceServe repeats the batch on a fresh daemon with its own CPU profile
// running, reads its job list and cache counters afterwards, turns every
// request into spans, and replays the write points in-process.
func traceServe(e *env, o *outcome, in *serveInputs, u *servePass) error {
	var jobs struct {
		Experiments []server.JobView `json:"experiments"`
	}
	var cstats struct {
		Stats expcache.Stats `json:"stats"`
	}
	var prof []byte
	var profErr error
	profDone := make(chan struct{})
	secs := max(1, int(math.Ceil(u.wall)))
	tr := newTracer()
	p, err := runServeBatch(e, in, 1+traceRefBatches, serveHooks{
		// The profile request rides its own connection, outside the
		// clients' pool, so it never takes a client's slot.
		before: func(d *daemon) {
			go func() {
				defer close(profDone)
				c := &http.Client{Transport: &http.Transport{}}
				resp, err := c.Get(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", d.base, secs))
				if err != nil {
					profErr = err
					return
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					profErr = fmt.Errorf("GET /debug/pprof/profile: %s", resp.Status)
					return
				}
				prof, profErr = io.ReadAll(resp.Body)
			}()
		},
		after: func(d *daemon) error {
			<-profDone
			if profErr != nil {
				return profErr
			}
			if err := d.getJSON("/v1/experiments", &jobs); err != nil {
				return err
			}
			return d.getJSON("/v1/cache/stats", &cstats)
		},
	})
	if err != nil {
		return err
	}
	o.tally(p)
	shares, err := cpuShares(prof)
	if err != nil {
		return err
	}
	o.setShares(shares)
	simShare := 0.0
	for _, b := range simBuckets {
		simShare += shares[b]
	}

	byID := map[string]server.JobView{}
	for _, j := range jobs.Experiments {
		byID[j.ID] = j
	}
	var submit, queue, run, httpMS []float64
	lat := map[string][]float64{}
	var batchMS, batchKeys float64
	for j, r := range p.results {
		lat[r.kind] = append(lat[r.kind], ms(r.done.Sub(r.start)))
		if r.kind == "batch" {
			batchMS, batchKeys = batchMS+ms(r.done.Sub(r.start)), batchKeys+float64(r.keys)
		}
		root := tr.newID()
		if r.id != "" {
			submit = append(submit, ms(r.submit.Sub(r.start)))
			tr.record(0, "server.submit", root, int64(j), p.lanes[j], r.start, r.submit)
			res := tr.newID()
			if v, ok := byID[r.id]; ok && v.Started != nil && v.Finished != nil {
				queue = append(queue, ms(v.Started.Sub(v.Created)))
				run = append(run, ms(v.Finished.Sub(*v.Started)))
				httpMS = append(httpMS, ms(r.done.Sub(r.start)-v.Finished.Sub(v.Created)))
				clip := func(t time.Time) time.Time {
					if t.Before(r.submit) {
						return r.submit
					}
					if t.After(r.done) {
						return r.done
					}
					return t
				}
				tr.record(0, "server.queue", res, int64(j), p.lanes[j], clip(v.Created), clip(*v.Started))
				tr.record(0, "server.run", res, int64(j), p.lanes[j], clip(*v.Started), clip(*v.Finished))
			}
			tr.record(res, "server.result", root, int64(j), p.lanes[j], r.submit, r.done)
		}
		tr.record(root, "client."+r.kind, 0, int64(j), p.lanes[j], r.start, r.done)
	}
	n := float64(len(p.results))
	o.setExtra("server.submit_ms_p50", "ms", pct(submit, 50))
	o.setExtra("server.queue_wait_ms_p50", "ms", pct(queue, 50))
	o.setExtra("server.run_ms_p50", "ms", pct(run, 50))
	o.setExtra("server.http_ms_p50", "ms", pct(httpMS, 50))
	o.setExtra("server.cpu_ms_per_req", "ms", u.cpu*1e3/n)
	o.setExtra("server.rss_kb_per_1k_req", "kB", (u.rssKB[1]-u.rssKB[0])/n*1e3)
	o.setExtra("server.jobs_retained", "count", float64(len(jobs.Experiments)))
	o.setExtra("server.sim_share", "1", simShare)
	o.setExtra("expcache.remote_get_ms_p50", "ms", pct(lat["get"], 50))
	o.setExtra("expcache.remote_batch_us_per_key", "us", ratio(batchMS*1e3, batchKeys))
	o.setExtra("expcache.remote_put_ms_p50", "ms", pct(lat["put"], 50))
	o.setCacheRatios(cstats.Stats)
	o.set("bench.trace_overhead", "1", p.wall/u.wall)
	o.set("harness.parallel_speedup", "1", sum(run)/1e3/p.wall)
	o.set("harness.cpu_util", "1", u.cpu/(u.wall*float64(e.nproc)))

	// The write points, replayed in-process one at a time: their queue
	// samples, per-packet cost and allocations.
	tally := netTally{}
	var events uint64
	var heap, pointMS []float64
	for i, cfg := range in.writes {
		m0, s0 := mallocs(), time.Now()
		c := tracedLoadPoint(cfg)
		s1 := time.Now()
		tally.addAllocs(cfg.Network, mallocs()-m0, c)
		tally.add(cfg.Network, s1.Sub(s0), c)
		tr.record(0, "sim.loadpoint", 0, int64(len(p.results)+i), e.nproc, s0, s1)
		o.attempted++
		if c.events != in.wpoints[i].Events {
			o.fail(1, "write %d: traced %d events, LoadPoint.Events %d", i, c.events, in.wpoints[i].Events)
		}
		events += c.events
		heap = append(heap, c.heap...)
		pointMS = append(pointMS, ms(s1.Sub(s0)))
	}
	o.setNetworks(tally)
	o.setKernel(events, heap)
	o.set("harness.loadpoint_ms_p50", "ms", pct(pointMS, 50))
	o.set("harness.loadpoint_ms_max", "ms", maxOf(pointMS))
	pub, disk, hot, err := cacheTiers[harness.LoadPoint](filepath.Join(e.work, "tiers"), in.warm)
	if err != nil {
		return err
	}
	o.setTiers(pub, disk, hot)
	return tr.finish(e, o, "serve-mixed")
}
