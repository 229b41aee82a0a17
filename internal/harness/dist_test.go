package harness

import (
	"bytes"
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
// is the credit window the worker advertises (<=0 means the default);
// delay is each direction's one-way latency (0: none, as over plain pipes).
func startPipeWorker(tb testing.TB, c *Coordinator, name string, r Runner, depth int, delay time.Duration) *pipeWorker {
	tb.Helper()
	cellR, cellW := delayPipe(delay)     // coordinator → worker
	resultR, resultW := delayPipe(delay) // worker → coordinator
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

// delayPipe is io.Pipe with a one-way latency: every write reaches the
// reader d after it was made, and the writer does not wait for it, as a
// frame on a network link. One each way gives a pipe worker a 2d round
// trip. d <= 0 returns a plain io.Pipe.
func delayPipe(d time.Duration) (*io.PipeReader, io.WriteCloser) {
	r, w := io.Pipe()
	if d <= 0 {
		return r, w
	}
	dw := &delayWriter{d: d}
	dw.ready = sync.NewCond(&dw.mu)
	go dw.deliver(w)
	return r, dw
}

type delayedFrame struct {
	at time.Time
	b  []byte
}

// delayWriter is delayPipe's write end: it stamps each write with its
// delivery time and queues it for deliver. The queue is unbounded; the
// protocol's credit window bounds it in practice.
type delayWriter struct {
	d      time.Duration
	mu     sync.Mutex
	ready  *sync.Cond
	queue  []delayedFrame
	closed bool
}

func (w *delayWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, io.ErrClosedPipe
	}
	w.queue = append(w.queue, delayedFrame{at: time.Now().Add(w.d), b: bytes.Clone(p)})
	w.ready.Signal()
	return len(p), nil
}

// Close refuses further writes; frames already written are still
// delivered before the pipe closes, as data sent ahead of a socket's FIN.
func (w *delayWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	w.ready.Signal()
	return nil
}

// deliver writes each frame into the pipe at its delivery time, in order,
// and closes the pipe after the last one once w is closed. A failed pipe
// write (the reader closed) ends delivery.
func (w *delayWriter) deliver(pw *io.PipeWriter) {
	defer pw.Close()
	for {
		w.mu.Lock()
		for len(w.queue) == 0 && !w.closed {
			w.ready.Wait()
		}
		if len(w.queue) == 0 {
			w.mu.Unlock()
			return
		}
		f := w.queue[0]
		w.queue = w.queue[1:]
		w.mu.Unlock()
		time.Sleep(time.Until(f.at))
		if _, err := pw.Write(f.b); err != nil {
			return
		}
	}
}

// pipeFleet builds a transport-free coordinator with n in-process workers,
// each advertising the default credit window.
func pipeFleet(tb testing.TB, n int, cfg CoordinatorConfig) (*Coordinator, []*pipeWorker) {
	tb.Helper()
	return pipeFleetDepth(tb, n, 0, 0, cfg)
}

// pipeFleetDepth is pipeFleet with an explicit per-worker credit window
// and one-way link delay.
func pipeFleetDepth(tb testing.TB, n, depth int, delay time.Duration, cfg CoordinatorConfig) (*Coordinator, []*pipeWorker) {
	tb.Helper()
	c := newCoordinator(cfg)
	workers := make([]*pipeWorker, n)
	for i := range workers {
		workers[i] = startPipeWorker(tb, c, fmt.Sprintf("pipe-%d", i), Runner{Workers: 1}, depth, delay)
	}
	if err := c.AwaitWorkers(n, 10*time.Second); err != nil {
		tb.Fatal(err)
	}
	return c, workers
}

// testFleetConfig keeps unit-test fleets snappy without touching the
// production defaults.
func testFleetConfig() CoordinatorConfig {
	return CoordinatorConfig{Seed: 7, cellTimeout: 30 * time.Second}
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
	cfg.cellTimeout = 500 * time.Millisecond // the hang worker must trip it quickly
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
	startPipeWorker(t, c, "honest", Runner{Workers: 1}, 0, 0)

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
			c, _ := pipeFleetDepth(t, n, depth, 0, testFleetConfig())
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

// TestDistOutOfOrderResults pins the dispatch-order rule: a peer that holds
// a full window and answers it in reverse order is torn down at its first
// reply and the violation is counted. Every caller still gets the serial
// bytes (from local compute, once the lone peer is gone), and no cell is
// enqueued twice.
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
			got, err1 := json.Marshal(cachedLoadPoint(Runner{Dist: c}, cfg))
			want, err2 := json.Marshal(RunLoadPoint(cfg))
			if err1 != nil || err2 != nil || string(got) != string(want) {
				errs[i] = fmt.Sprintf("load %v: %s != %s (%v, %v)", load, got, want, err1, err2)
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
	if st.Completed != 0 {
		t.Errorf("Completed = %d, want 0 (the first reply is for the newest cell and must tear the peer down): %+v", st.Completed, st)
	}
	if st.OutOfOrder < 1 {
		t.Errorf("OutOfOrder = %d, want at least 1: %+v", st.OutOfOrder, st)
	}
	if st.Deduped != 0 {
		t.Errorf("Deduped = %d, want 0 (no duplicate enqueue should ever fire): %+v", st.Deduped, st)
	}
}

// serveRaw runs ServeWorker with the given window and quit over io.Pipe,
// reads its hello, and returns the worker's cell input, a reader of its
// replies, and ServeWorker's result once it returns.
func serveRaw(t *testing.T, window int, quit <-chan struct{}) (io.WriteCloser, *distrib.Reader, <-chan error) {
	t.Helper()
	cellR, cellW := io.Pipe()
	resultR, resultW := io.Pipe()
	t.Cleanup(func() { cellW.Close(); resultR.Close() })
	done := make(chan error, 1)
	go func() {
		err := ServeWorker(cellR, resultW, Runner{Workers: 1}, "raw", window, quit, io.Discard)
		resultW.Close()
		done <- err
	}()
	rd := distrib.NewReader(resultR)
	if m, err := rd.Read(); err != nil || m.Type != distrib.TypeHello || m.Credits != window {
		t.Fatalf("hello = %+v, %v; want a hello advertising %d credits", m, err, window)
	}
	return cellW, rd, done
}

// windowCells builds n point-to-point load-point cells with IDs 1..n; the
// cell at index slow simulates a measure window 20× longer than the rest.
func windowCells(t *testing.T, n, slow int) ([]LoadPointConfig, []distrib.Msg) {
	t.Helper()
	base := quickCfg()
	base.Network = networks.PointToPoint
	base.Pattern = traffic.Uniform{Grid: base.Params.Grid}
	cfgs := make([]LoadPointConfig, n)
	cells := make([]distrib.Msg, n)
	for i := range cfgs {
		cfg := base
		cfg.Load = 0.01 * float64(i+1)
		cfg.Seed = PointSeed(1, cfg.Network, "uniform", cfg.Load)
		if i == slow {
			cfg.Measure *= 20
		}
		cfgs[i] = cfg
		cells[i] = distrib.Msg{Type: distrib.TypeCell, ID: int64(i + 1), Kind: CellLoadPoint, Spec: mustMarshal(t, specForLoadPoint(cfg))}
	}
	return cfgs, cells
}

// writeCells writes cells to w from its own goroutine, so a test can read
// replies while the window is still being sent, then closes w when eof is
// set. The returned channel closes once every write has returned.
func writeCells(w io.WriteCloser, cells []distrib.Msg, eof bool) <-chan struct{} {
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for _, m := range cells {
			if distrib.Write(w, m) != nil {
				return
			}
		}
		if eof {
			w.Close()
		}
	}()
	return sent
}

// TestWorkerAnswersInDispatchOrder pins the worker's one-cell-at-a-time
// contract: fed a full window whose first cell is by far the slowest,
// ServeWorker answers every cell in dispatch order, each with the value a
// local run computes. A worker that simulated its window concurrently
// would answer the fast cells first.
func TestWorkerAnswersInDispatchOrder(t *testing.T) {
	const window = 4
	cellW, rd, done := serveRaw(t, window, nil)
	cfgs, cells := windowCells(t, window, 0)
	writeCells(cellW, cells, true)
	for i, cfg := range cfgs {
		m, err := rd.Read()
		if err != nil {
			t.Fatalf("reply %d: %v", i+1, err)
		}
		if m.Type != distrib.TypeResult || m.ID != cells[i].ID {
			t.Fatalf("reply %d is a %s for cell %d, want the result for cell %d (dispatch order)", i+1, m.Type, m.ID, cells[i].ID)
		}
		if want := mustMarshal(t, RunLoadPoint(cfg)); string(m.Value) != string(want) {
			t.Errorf("cell %d: %s != %s", m.ID, m.Value, want)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("ServeWorker after EOF: %v", err)
	}
}

// TestWorkerQuitAnswersOnlyCurrentCell pins the worker's quit: with a
// window of cells queued, closing quit lets the cell being simulated
// finish and be answered, then ServeWorker returns nil without taking
// another queued cell (the coordinator requeues those, as on any worker
// exit). No reply is read before quit closes, so the worker cannot have
// moved past the first cell: at most that cell may be answered.
func TestWorkerQuitAnswersOnlyCurrentCell(t *testing.T) {
	const window = 4
	quit := make(chan struct{})
	cellW, rd, done := serveRaw(t, window, quit)
	_, cells := windowCells(t, window, 0)
	<-writeCells(cellW, cells, false)
	close(quit)
	var replies []int64
	for {
		m, err := rd.Read()
		if err != nil {
			break
		}
		replies = append(replies, m.ID)
	}
	if len(replies) > 1 || len(replies) == 1 && replies[0] != cells[0].ID {
		t.Fatalf("replies after quit = %v, want at most cell %d's", replies, cells[0].ID)
	}
	if err := <-done; err != nil {
		t.Fatalf("ServeWorker after quit: %v", err)
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

// TestDistMixedFleet pins how the coordinator's own cores join a remote
// fleet: as ordinary workers (-dist-workers N beside -dist-addr). A slow
// remote worker and an in-process pipe worker share a panel; the CSV is
// byte-identical to serial, the local worker completes cells, and no cell
// falls back to local compute.
func TestDistMixedFleet(t *testing.T) {
	c := newCoordinator(testFleetConfig())
	// One deliberately slow remote worker: correct answers, one credit, a
	// pause per cell.
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
	startPipeWorker(t, c, "local", Runner{Workers: 1}, 0, 0)
	if err := c.AwaitWorkers(2, 10*time.Second); err != nil {
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
		t.Errorf("mixed-fleet CSV differs from serial\nserial:\n%s\ngot:\n%s", serial, got)
	}
	var local uint64
	for _, w := range st.Workers {
		if w.Name == "local" {
			local = w.Completed
		}
	}
	if local == 0 {
		t.Errorf("the local pipe worker completed no cells: %+v", st)
	}
	if st.LocalFallback != 0 || st.Failed != 0 || st.Retried != 0 {
		t.Errorf("mixed fleet should serve every cell without failures: %+v", st)
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
