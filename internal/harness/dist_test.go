package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"macrochip/internal/distrib"
	"macrochip/internal/fault"
	"macrochip/internal/networks"
	"macrochip/internal/opgraph"
	"macrochip/internal/traffic"
)

// pipeWorker is one in-process worker attached to a coordinator over
// io.Pipe transports — the unit-test stand-in for a spawned `macrosim
// -worker` process. crash severs both pipes abruptly, like a SIGKILL.
type pipeWorker struct {
	crash func()
}

// startPipeWorker runs ServeWorker in-process and attaches it to c. The
// connection is registered as remote so its capacity unit is surrendered on
// detach (matching a TCP worker's lifecycle, which has no respawn). depth
// is the credit window the worker advertises (<=0 means the default).
func startPipeWorker(tb testing.TB, c *Coordinator, name string, r Runner, depth int) *pipeWorker {
	tb.Helper()
	cellR, cellW := io.Pipe()     // coordinator → worker
	resultR, resultW := io.Pipe() // worker → coordinator
	quit := make(chan struct{})
	go func() {
		ServeWorker(cellR, resultW, r, name, depth, quit, io.Discard) //nolint:errcheck // pipe teardown errors are expected
		resultW.Close()
	}()
	kill := func() {
		cellW.Close()
		cellR.Close()
		resultW.Close()
		resultR.Close()
	}
	if !c.attach(name, resultR, cellW, kill, true, true) {
		tb.Fatalf("attach %s refused", name)
	}
	return &pipeWorker{crash: kill}
}

// pipeFleet builds a transport-free coordinator with n in-process workers,
// each advertising the default credit window.
func pipeFleet(tb testing.TB, n int, cfg CoordinatorConfig) (*Coordinator, []*pipeWorker) {
	tb.Helper()
	return pipeFleetDepth(tb, n, 0, cfg)
}

// pipeFleetDepth is pipeFleet with an explicit per-worker credit window.
func pipeFleetDepth(tb testing.TB, n, depth int, cfg CoordinatorConfig) (*Coordinator, []*pipeWorker) {
	tb.Helper()
	c := newCoordinator(cfg)
	workers := make([]*pipeWorker, n)
	for i := range workers {
		workers[i] = startPipeWorker(tb, c, fmt.Sprintf("pipe-%d", i), Runner{Workers: 1}, depth)
	}
	if err := c.AwaitWorkers(n, 10*time.Second); err != nil {
		tb.Fatal(err)
	}
	return c, workers
}

// testFleetConfig keeps unit-test fleets snappy without touching the
// production defaults.
func testFleetConfig() CoordinatorConfig {
	return CoordinatorConfig{CellTimeout: 30 * time.Second, Seed: 7}
}

// TestDistFigure6ByteIdentity pins the headline guarantee: a figure-6 panel
// swept through the distributed fleet is byte-identical to the serial sweep
// at 1, 2, and 4 workers.
func TestDistFigure6ByteIdentity(t *testing.T) {
	cfg := quickCfg()
	render := func(r Runner) string {
		panel, err := Figure6PanelWith(r, cfg, "uniform",
			[]networks.Kind{networks.PointToPoint}, []float64{0.01, 0.02})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := WriteFigure6CSV(&b, panel); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	serial := render(Serial)
	for _, n := range []int{1, 2, 4} {
		c, _ := pipeFleet(t, n, testFleetConfig())
		got := render(Runner{Dist: c})
		st := c.Stats()
		c.Close()
		if got != serial {
			t.Errorf("%d workers: distributed CSV differs from serial\nserial:\n%s\ndist:\n%s", n, serial, got)
		}
		if st.Completed == 0 {
			t.Errorf("%d workers: no cells executed remotely: %+v", n, st)
		}
		if st.LocalFallback != 0 || st.Failed != 0 {
			t.Errorf("%d workers: unexpected failures on a healthy fleet: %+v", n, st)
		}
	}
}

// TestDistResilienceByteIdentity extends the identity guarantee to the
// fault-injection sweep (a different cell kind with its own spec codec).
func TestDistResilienceByteIdentity(t *testing.T) {
	cfg := quickResilienceCfg()
	cfg.Networks = []networks.Kind{networks.PointToPoint}
	cfg.Classes = []fault.Class{fault.DarkLaser}
	render := func(r Runner) string {
		var b strings.Builder
		if err := WriteResilienceCSV(&b, ResilienceStudyWith(r, cfg)); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	serial := render(Serial)
	for _, n := range []int{1, 2, 4} {
		c, _ := pipeFleet(t, n, testFleetConfig())
		got := render(Runner{Dist: c})
		st := c.Stats()
		c.Close()
		if got != serial {
			t.Errorf("%d workers: distributed resilience CSV differs from serial", n)
		}
		if st.Completed == 0 {
			t.Errorf("%d workers: no cells executed remotely: %+v", n, st)
		}
	}
}

// TestDistInferenceByteIdentity extends the identity guarantee to the
// operator-graph replay sweep.
func TestDistInferenceByteIdentity(t *testing.T) {
	cfg := QuickInferenceConfig()
	cfg.Networks = []networks.Kind{networks.PointToPoint}
	cfg.Graphs = opgraph.PresetNames()[:1]
	render := func(r Runner) string {
		points, err := InferenceStudyWith(r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := WriteInferenceCSV(&b, points); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	serial := render(Serial)
	for _, n := range []int{1, 2, 4} {
		c, _ := pipeFleet(t, n, testFleetConfig())
		got := render(Runner{Dist: c})
		st := c.Stats()
		c.Close()
		if got != serial {
			t.Errorf("%d workers: distributed inference CSV differs from serial", n)
		}
		if st.Completed == 0 {
			t.Errorf("%d workers: no cells executed remotely: %+v", n, st)
		}
	}
}

// attachScripted attaches a raw-protocol peer that plays an arbitrary
// (usually misbehaving) script — the chaos half of the protocol tests.
func attachScripted(tb testing.TB, c *Coordinator, name string, script func(rd *distrib.Reader, w io.Writer)) {
	tb.Helper()
	cellR, cellW := io.Pipe()
	resultR, resultW := io.Pipe()
	go func() {
		defer resultW.Close()
		script(distrib.NewReader(cellR), resultW)
	}()
	kill := func() {
		cellW.Close()
		cellR.Close()
		resultW.Close()
		resultR.Close()
	}
	if !c.attach(name, resultR, cellW, kill, true, true) {
		tb.Fatalf("attach %s refused", name)
	}
}

// TestDistChaosMisbehavingWorkers pins the failure policy end to end: a
// fleet of protocol violators — garbage replies, stale IDs, version skew,
// missing hello, hangs — loses cells to reassignment but never loses them
// for good, and the sweep's results still match serial exactly.
func TestDistChaosMisbehavingWorkers(t *testing.T) {
	cfg := testFleetConfig()
	cfg.CellTimeout = 500 * time.Millisecond // the hang worker must trip it quickly
	c := newCoordinator(cfg)

	hello := func(w io.Writer) {
		distrib.Write(w, distrib.Msg{Type: distrib.TypeHello, Version: distrib.Version, Worker: "chaos", Credits: 1}) //nolint:errcheck
	}
	// Garbage: answers its first cell with a line that is not JSON.
	attachScripted(t, c, "garbage", func(rd *distrib.Reader, w io.Writer) {
		hello(w)
		if _, err := rd.Read(); err != nil {
			return
		}
		io.WriteString(w, "certainly not json\n") //nolint:errcheck
	})
	// Stale: answers its first cell with a result for a different ID —
	// impersonating an answer the coordinator never asked it for.
	attachScripted(t, c, "stale", func(rd *distrib.Reader, w io.Writer) {
		hello(w)
		m, err := rd.Read()
		if err != nil {
			return
		}
		distrib.Write(w, distrib.Msg{Type: distrib.TypeResult, ID: m.ID + 1000, Value: []byte(`{}`)}) //nolint:errcheck
	})
	// Skew: a well-formed hello from a foreign protocol version; must be
	// dropped before any cell.
	attachScripted(t, c, "skew", func(rd *distrib.Reader, w io.Writer) {
		distrib.Write(w, distrib.Msg{Type: distrib.TypeHello, Version: distrib.Version + 1, Worker: "skew", Credits: 1}) //nolint:errcheck
	})
	// Rude: skips the handshake entirely.
	attachScripted(t, c, "rude", func(rd *distrib.Reader, w io.Writer) {
		distrib.Write(w, distrib.Msg{Type: distrib.TypeResult, ID: 1, Value: []byte(`{}`)}) //nolint:errcheck
	})
	// Hang: accepts a cell and never answers; only the deadline saves it.
	attachScripted(t, c, "hang", func(rd *distrib.Reader, w io.Writer) {
		hello(w)
		rd.Read() //nolint:errcheck
		select {} //nolint:staticcheck // deliberately wedged
	})
	// One honest worker keeps the fleet alive.
	startPipeWorker(t, c, "honest", Runner{Workers: 1}, 0)

	cfgPt := quickCfg()
	cfgPt.Network = networks.PointToPoint
	cfgPt.Pattern = traffic.Uniform{Grid: cfgPt.Params.Grid}
	want := map[float64]LoadPoint{}
	for _, load := range []float64{0.01, 0.02, 0.04} {
		pc := cfgPt
		pc.Load = load
		pc.Seed = PointSeed(1, pc.Network, "uniform", load)
		want[load] = RunLoadPoint(pc)
	}
	for load, wantPt := range want {
		pc := cfgPt
		pc.Load = load
		pc.Seed = PointSeed(1, pc.Network, "uniform", load)
		got := cachedLoadPoint(Runner{Dist: c}, pc)
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(wantPt)
		if string(a) != string(b) {
			t.Errorf("load %v: dist result %s != serial %s", load, a, b)
		}
	}
	st := c.Stats()
	c.Close()
	if st.Retried == 0 {
		t.Errorf("chaos fleet produced no reassignments: %+v", st)
	}
	if st.Completed < 3 {
		t.Errorf("honest worker completed %d cells, want all 3: %+v", st.Completed, st)
	}
	for _, w := range st.Workers {
		if w.Name == "skew" {
			t.Errorf("foreign-version worker passed the handshake: %+v", w)
		}
	}
}

// TestDistWorkerCellErrorFallsBackLocally pins the permanent-failure arm: a
// worker-reported cell error is not retried remotely — the caller computes
// locally and the failure is counted.
func TestDistWorkerCellErrorFallsBackLocally(t *testing.T) {
	c, _ := pipeFleet(t, 1, testFleetConfig())
	defer c.Close()
	if v, ok := c.Exec("no-such-kind", []byte(`{}`)); ok {
		t.Fatalf("Exec of bogus kind succeeded: %s", v)
	}
	st := c.Stats()
	if st.Failed != 1 || st.Retried != 0 {
		t.Fatalf("want exactly one permanent failure, no retries: %+v", st)
	}
}

// TestDistDrainFallsBackLocally pins that a drained coordinator is inert
// but harmless: every cell computes locally and the sweep still completes.
func TestDistDrainFallsBackLocally(t *testing.T) {
	c, _ := pipeFleet(t, 2, testFleetConfig())
	c.Drain()
	if p := c.Parallelism(); p != 0 {
		t.Fatalf("Parallelism after drain = %d, want 0", p)
	}
	cfg := quickCfg()
	cfg.Network = networks.PointToPoint
	cfg.Pattern = traffic.Uniform{Grid: cfg.Params.Grid}
	cfg.Load = 0.02
	got := cachedLoadPoint(Runner{Dist: c}, cfg)
	want := RunLoadPoint(cfg)
	a, _ := json.Marshal(got)
	b, _ := json.Marshal(want)
	if string(a) != string(b) {
		t.Fatalf("post-drain result %s != serial %s", a, b)
	}
	c.Close()
}

// TestDistAllWorkersDeadAutoDrain pins the crash-storm endgame: when every
// worker connection dies, the coordinator drains itself and the sweep
// completes locally instead of queueing forever.
func TestDistAllWorkersDeadAutoDrain(t *testing.T) {
	c, workers := pipeFleet(t, 2, testFleetConfig())
	for _, w := range workers {
		w.crash()
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.Parallelism() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if p := c.Parallelism(); p != 0 {
		t.Fatalf("Parallelism = %d after all workers crashed, want 0 (auto-drain)", p)
	}
	cfg := quickCfg()
	cfg.Network = networks.PointToPoint
	cfg.Pattern = traffic.Uniform{Grid: cfg.Params.Grid}
	cfg.Load = 0.02
	got := cachedLoadPoint(Runner{Dist: c}, cfg)
	want := RunLoadPoint(cfg)
	a, _ := json.Marshal(got)
	b, _ := json.Marshal(want)
	if string(a) != string(b) {
		t.Fatalf("post-crash result %s != serial %s", a, b)
	}
	c.Close()
}

// TestDistDepthSweepByteIdentity pins byte-identity across the pipelining
// axis: every (workers, depth) combination — including depth 1, one cell
// at a time — renders the same CSV as serial.
func TestDistDepthSweepByteIdentity(t *testing.T) {
	cfg := quickCfg()
	loads := []float64{0.005, 0.01, 0.015, 0.02, 0.025, 0.03}
	render := func(r Runner) string {
		panel, err := Figure6PanelWith(r, cfg, "uniform",
			[]networks.Kind{networks.PointToPoint}, loads)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := WriteFigure6CSV(&b, panel); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	serial := render(Serial)
	for _, n := range []int{1, 2, 4} {
		for _, depth := range []int{1, 4, 8} {
			c, _ := pipeFleetDepth(t, n, depth, testFleetConfig())
			got := render(Runner{Dist: c})
			st := c.Stats()
			c.Close()
			if got != serial {
				t.Errorf("workers=%d depth=%d: distributed CSV differs from serial", n, depth)
			}
			if st.Completed == 0 || st.LocalFallback != 0 || st.Failed != 0 {
				t.Errorf("workers=%d depth=%d: unhealthy stats: %+v", n, depth, st)
			}
			for _, w := range st.Workers {
				if w.Depth != depth {
					t.Errorf("workers=%d depth=%d: worker %s negotiated depth %d", n, depth, w.Name, w.Depth)
				}
			}
		}
	}
}

// TestDistOutOfOrderResults pins the cell-ID correlator: a worker that
// holds a full window and answers in reverse dispatch order still resolves
// every cell to its own caller, and the inversions are counted.
func TestDistOutOfOrderResults(t *testing.T) {
	const window = 3
	c := newCoordinator(testFleetConfig())
	defer c.Close()
	attachScripted(t, c, "reverser", func(rd *distrib.Reader, w io.Writer) {
		distrib.Write(w, distrib.Msg{Type: distrib.TypeHello, Version: distrib.Version, Worker: "reverser", Credits: window}) //nolint:errcheck
		var cells []distrib.Msg
		for len(cells) < window {
			m, err := rd.Read()
			if err != nil {
				return
			}
			if m.Type == distrib.TypeCell {
				cells = append(cells, m)
			}
		}
		r := Runner{Workers: 1}
		for i := len(cells) - 1; i >= 0; i-- {
			distrib.Write(w, executeCell(r, cells[i])) //nolint:errcheck
		}
		for {
			if _, err := rd.Read(); err != nil {
				return
			}
		}
	})
	if err := c.AwaitWorkers(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	base := quickCfg()
	base.Network = networks.PointToPoint
	base.Pattern = traffic.Uniform{Grid: base.Params.Grid}
	loads := []float64{0.01, 0.02, 0.04}
	var wg sync.WaitGroup
	errs := make([]string, window)
	for i, load := range loads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := base
			cfg.Load = load
			cfg.Seed = PointSeed(1, cfg.Network, "uniform", load)
			value, ok := c.Exec(CellLoadPoint, mustMarshal(t, specForLoadPoint(cfg)))
			if !ok {
				errs[i] = fmt.Sprintf("load %v: cell fell back locally", load)
				return
			}
			want := mustMarshal(t, RunLoadPoint(cfg))
			if string(value) != string(want) {
				errs[i] = fmt.Sprintf("load %v: %s != %s", load, value, want)
			}
		}()
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			t.Error(e)
		}
	}
	st := c.Stats()
	if st.Completed != window {
		t.Fatalf("completed %d cells, want %d: %+v", st.Completed, window, st)
	}
	if st.OutOfOrder != window-1 {
		t.Errorf("OutOfOrder = %d, want %d (reverse order inverts all but the last reply): %+v",
			st.OutOfOrder, window-1, st)
	}
}

// TestDistUnknownCellIDTeardown pins the credit-overflow arm: a result for
// an ID the coordinator never dispatched tears the connection down and
// requeues every cell in its window exactly once — the answered cell stays
// answered, the orphaned one resolves without ever running twice.
func TestDistUnknownCellIDTeardown(t *testing.T) {
	cfg := testFleetConfig()
	c := newCoordinator(cfg)
	defer c.Close()
	attachScripted(t, c, "overflow", func(rd *distrib.Reader, w io.Writer) {
		distrib.Write(w, distrib.Msg{Type: distrib.TypeHello, Version: distrib.Version, Worker: "overflow", Credits: 4}) //nolint:errcheck
		var cells []distrib.Msg
		for len(cells) < 2 {
			m, err := rd.Read()
			if err != nil {
				return
			}
			if m.Type == distrib.TypeCell {
				cells = append(cells, m)
			}
		}
		r := Runner{Workers: 1}
		distrib.Write(w, executeCell(r, cells[0]))                                               //nolint:errcheck
		distrib.Write(w, distrib.Msg{Type: distrib.TypeResult, ID: 999999, Value: []byte(`{}`)}) //nolint:errcheck
		for {
			if _, err := rd.Read(); err != nil {
				return
			}
		}
	})
	if err := c.AwaitWorkers(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	base := quickCfg()
	base.Network = networks.PointToPoint
	base.Pattern = traffic.Uniform{Grid: base.Params.Grid}
	type outcome struct {
		ok    bool
		value string
		want  string
	}
	results := make([]outcome, 2)
	var wg sync.WaitGroup
	for i, load := range []float64{0.01, 0.02} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := base
			cfg.Load = load
			cfg.Seed = PointSeed(1, cfg.Network, "uniform", load)
			value, ok := c.Exec(CellLoadPoint, mustMarshal(t, specForLoadPoint(cfg)))
			results[i] = outcome{ok: ok, value: string(value), want: string(mustMarshal(t, RunLoadPoint(cfg)))}
		}()
	}
	wg.Wait()

	remote, local := 0, 0
	for i, r := range results {
		if r.ok {
			remote++
			if r.value != r.want {
				t.Errorf("cell %d: remote value %s != serial %s", i, r.value, r.want)
			}
		} else {
			local++
		}
	}
	// The answered cell came back remotely; the orphaned one resolved to
	// local compute after the teardown drained the lone-worker fleet.
	if remote != 1 || local != 1 {
		t.Errorf("want exactly 1 remote + 1 local resolution, got %d remote / %d local: %+v", remote, local, c.Stats())
	}
	st := c.Stats()
	if st.Completed != 1 {
		t.Errorf("Completed = %d, want 1: %+v", st.Completed, st)
	}
	if st.Deduped != 0 {
		t.Errorf("Deduped = %d, want 0 (no duplicate enqueue should ever fire): %+v", st.Deduped, st)
	}
}

// TestDistLocalStealing pins the phantom-worker arm: with LocalSlots
// configured and a slow fleet, local cores steal cells from the queue
// tail, the steals are counted separately from fallbacks, and the output
// stays byte-identical.
func TestDistLocalStealing(t *testing.T) {
	cfg := testFleetConfig()
	cfg.LocalSlots = 4
	c := newCoordinator(cfg)
	// One deliberately slow worker: correct answers, one credit, a pause
	// per cell — the backlog the steal slots exist to absorb.
	attachScripted(t, c, "slow", func(rd *distrib.Reader, w io.Writer) {
		distrib.Write(w, distrib.Msg{Type: distrib.TypeHello, Version: distrib.Version, Worker: "slow", Credits: 1}) //nolint:errcheck
		r := Runner{Workers: 1}
		for {
			m, err := rd.Read()
			if err != nil || m.Type == distrib.TypeShutdown {
				return
			}
			if m.Type == distrib.TypeCell {
				time.Sleep(30 * time.Millisecond)
				distrib.Write(w, executeCell(r, m)) //nolint:errcheck
			}
		}
	})
	if err := c.AwaitWorkers(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	cfgPt := quickCfg()
	render := func(r Runner) string {
		panel, err := Figure6PanelWith(r, cfgPt, "uniform",
			[]networks.Kind{networks.PointToPoint}, []float64{0.005, 0.01, 0.015, 0.02, 0.025, 0.03, 0.035, 0.04})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := WriteFigure6CSV(&b, panel); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	serial := render(Serial)
	got := render(Runner{Dist: c})
	st := c.Stats()
	c.Close()
	if got != serial {
		t.Errorf("stealing sweep CSV differs from serial\nserial:\n%s\ngot:\n%s", serial, got)
	}
	if st.Stolen == 0 {
		t.Errorf("no cells stolen despite 4 local slots against a slow worker: %+v", st)
	}
	if st.Failed != 0 || st.Retried != 0 {
		t.Errorf("stealing fleet should be failure-free: %+v", st)
	}
}

// mustMarshal is the test-local canonical encoder.
func mustMarshal(tb testing.TB, v any) []byte {
	tb.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestDistSpecUnknownFieldRejected pins the version-skew guard: a spec with
// a field this build does not know is a cell error, not a silent partial
// simulation.
func TestDistSpecUnknownFieldRejected(t *testing.T) {
	if _, err := RunCell(Serial, CellLoadPoint, []byte(unknownFieldSpec)); err == nil {
		t.Fatal("RunCell accepted a spec with an unknown field")
	}
}
