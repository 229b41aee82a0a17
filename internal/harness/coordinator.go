package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os/exec"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"macrochip/internal/distrib"
)

// Coordinator owns a fleet of `macrosim -worker` processes — spawned
// locally over stdin/stdout pipes, or connected over TCP from other
// machines — and dispatches experiment cells to them over the distrib
// protocol. It plugs into Runner.Dist: each cache-miss cell inside a
// cached* compute closure is offered to the fleet first, and simulated
// in-process only when no worker can take it. Because a cell is the same
// pure (config, derived seed) unit the cache addresses, and every result
// struct round-trips canonically through JSON, sweeps are byte-identical
// to serial at any worker count, any pipeline depth, any interleaving,
// and any failure pattern.
//
// Dispatch is pipelined: each connection holds a window of up to its
// hello-advertised credit count of unanswered cells, and a worker answers
// them in dispatch order, so every reply must be for the oldest cell in
// its window. Cells wait in a coordinator-owned pending queue that every
// connection takes from. The coordinator's own cores join a remote fleet
// the same way any worker does: spawn local workers (Workers) beside the
// listener (Addr).
//
// Failure policy, from least to most trusted signal:
//   - A protocol violation, transport error, reply for any cell but the
//     oldest in the window (out of order, credit overflow or stale
//     answer), or per-cell deadline tears the connection down; every cell
//     in its window is reassigned (with seeded backoff) up to cellRetries
//     times each, then falls back to local compute. Cells are never lost,
//     and a cell can never run twice: a job re-enters the queue only from
//     the torn-down window that owned it, and the enqueue guard refuses a
//     job that is already pending or in flight elsewhere.
//   - A worker-reported cell error is permanent — retrying the same pure
//     function elsewhere cannot help — so the cell falls back to local
//     compute, where the failure reproduces under the caller's own error
//     handling.
//   - A dead local worker process is respawned up to workerRestarts times
//     per slot. When every slot and connection is gone, the coordinator
//     drains itself and the rest of the sweep computes locally.
type Coordinator struct {
	cfg CoordinatorConfig

	// doorbell wakes one connection with window room when pending may be
	// non-empty; every pop that leaves work behind rings it again, so a
	// single buffered slot cannot lose a wakeup.
	doorbell chan struct{}
	// quit is closed when draining begins.
	quit chan struct{}

	mu sync.Mutex
	// pending is the cell queue: connections pop from the head (index 0),
	// and requeued cells re-enter at the head so retries are not starved
	// behind fresh work.
	pending    []*distJob
	nextID     int64
	draining   bool
	live       int // attached connections (pre- and post-hello)
	ready      int // connections past the hello handshake
	totalDepth int // sum of negotiated windows over ready connections
	capacity   int // live slots: respawnable proc slots + remote conns
	everAlive  bool
	rng        *rand.Rand
	workers    map[string]*workerStat

	drainOnce sync.Once
	execs     sync.WaitGroup // outstanding Exec calls
	conns     sync.WaitGroup // serve goroutines
	procs     sync.WaitGroup // process monitors, accept loop

	ln net.Listener

	pidMu sync.Mutex
	pids  map[int]bool // live local worker PIDs

	dispatched atomic.Uint64
	completed  atomic.Uint64
	retried    atomic.Uint64
	failed     atomic.Uint64
	fallbacks  atomic.Uint64
	badValues  atomic.Uint64
	outOfOrder atomic.Uint64
	deduped    atomic.Uint64
}

// CoordinatorConfig assembles a Coordinator; zero fields take the
// documented defaults. Workers and Addr combine: local workers beside a
// listener put this machine's cores into a remote fleet.
type CoordinatorConfig struct {
	// Workers is the number of local worker processes to spawn; each
	// simulates one cell at a time, so one per core keeps this machine
	// busy.
	Workers int
	// Exec is the worker binary (default "macrosim", resolved via PATH).
	Exec string
	// Args are extra arguments passed to every spawned worker after
	// -worker (cache and depth flags, typically).
	Args []string
	// Addr, when non-empty, listens for remote `macrosim -connect`
	// workers on this TCP address.
	Addr string
	// MaxDepth caps the in-flight window granted to any connection,
	// whatever its hello advertises (default distrib.DefaultCredits,
	// hard-capped at distrib.MaxCredits).
	MaxDepth int
	// Seed seeds the retry-backoff jitter, keeping even the failure path
	// reproducible under a fixed fault schedule.
	Seed int64
	// Log receives worker stderr and reassignment warnings (default
	// discard).
	Log io.Writer

	// cellTimeout is the per-cell deadline: a worker that holds a cell
	// longer is presumed hung, torn down, and every cell in its window
	// reassigned (default 2 minutes; tests shorten it).
	cellTimeout time.Duration
}

const (
	// cellRetries bounds reassignments per cell before local fallback.
	cellRetries = 3
	// workerRestarts bounds respawns per local worker slot.
	workerRestarts = 2
)

// workerStat is one worker's throughput accounting, read by Stats via
// atomics.
type workerStat struct {
	completed atomic.Uint64
	busyNanos atomic.Int64
	depth     atomic.Int64 // negotiated window (set at hello)
	inflight  atomic.Int64 // cells currently unanswered
}

// jobState tracks where a cell currently lives; transitions happen under
// the coordinator mutex so a job can never be in two places at once.
type jobState int

const (
	jobIdle     jobState = iota // with its Exec sender, or waiting out a retry backoff
	jobPending                  // in the pending queue
	jobInFlight                 // inside one connection's window
	jobResolved                 // outcome delivered
)

// distJob is one cell in flight through the coordinator.
type distJob struct {
	kind     string
	spec     json.RawMessage
	attempts int
	state    jobState // guarded by Coordinator.mu
	// done carries the terminal outcome exactly once: the remote result,
	// or nil when the caller must compute the cell locally.
	done chan json.RawMessage
}

// distConn is one worker connection: a writer the serve goroutine owns, a
// reader pump feeding incoming, and a kill hook that closes the transport.
type distConn struct {
	name     string
	remote   bool
	w        io.Writer
	kill     func()
	killOnce sync.Once
	incoming chan distrib.Msg
	readErr  chan error // buffered 1; the pump's terminal error
	gone     chan struct{}
	stat     *workerStat
	helloed  bool
	depth    int // negotiated in-flight window
}

func (cn *distConn) close() { cn.killOnce.Do(cn.kill) }

// newCoordinator builds the transport-free core (tests attach in-process
// pipes to it directly).
func newCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.Exec == "" {
		cfg.Exec = "macrosim"
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = distrib.DefaultCredits
	}
	if cfg.MaxDepth > distrib.MaxCredits {
		cfg.MaxDepth = distrib.MaxCredits
	}
	if cfg.cellTimeout <= 0 {
		cfg.cellTimeout = 2 * time.Minute
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	return &Coordinator{
		cfg:      cfg,
		doorbell: make(chan struct{}, 1),
		quit:     make(chan struct{}),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		workers:  map[string]*workerStat{},
		pids:     map[int]bool{},
	}
}

// NewCoordinator spawns the configured local workers and/or opens the
// remote listener. It fails only when no transport could be established at
// all; individual spawn failures degrade to a smaller fleet with a logged
// warning.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Workers <= 0 && cfg.Addr == "" {
		return nil, errors.New("harness: coordinator needs local workers (-dist-workers) or a listen address (-dist-addr)")
	}
	c := newCoordinator(cfg)
	spawned := 0
	for slot := 0; slot < cfg.Workers; slot++ {
		if err := c.spawnProc(slot, workerRestarts, true); err != nil {
			c.logf("spawning worker %d: %v", slot, err)
			continue
		}
		spawned++
	}
	if cfg.Addr != "" {
		ln, err := net.Listen("tcp", cfg.Addr)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("harness: coordinator listen: %w", err)
		}
		c.ln = ln
		c.logf("listening for workers on %s", ln.Addr())
		c.procs.Add(1)
		go c.acceptLoop(ln)
	}
	if spawned == 0 && c.ln == nil {
		c.Close()
		return nil, fmt.Errorf("harness: no worker could be spawned (exec %q)", cfg.Exec)
	}
	return c, nil
}

// spawnProc starts one local worker process on a slot and arranges respawn
// on death while restarts remain. fresh marks the slot's first spawn — the
// one that contributes fleet capacity; respawns reuse their slot's unit.
func (c *Coordinator) spawnProc(slot, restarts int, fresh bool) error {
	exe, err := exec.LookPath(c.cfg.Exec)
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, append([]string{"-worker"}, c.cfg.Args...)...)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	cmd.Stderr = c.cfg.Log
	if err := cmd.Start(); err != nil {
		return err
	}
	pid := cmd.Process.Pid
	c.pidMu.Lock()
	c.pids[pid] = true
	c.pidMu.Unlock()

	name := fmt.Sprintf("proc-%d", slot)
	kill := func() {
		// Graceful first: closing stdin is EOF-as-shutdown for a worker
		// between cells; SIGTERM covers one blocked elsewhere. The hard
		// kill only fires if the process is still alive after the grace
		// window (e.g. wedged mid-cell).
		stdin.Close()
		cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // best-effort
		time.AfterFunc(5*time.Second, func() {
			cmd.Process.Kill() //nolint:errcheck // already-dead is fine
		})
	}
	ok := c.attach(name, stdout, stdin, kill, false, fresh)
	c.procs.Add(1)
	go func() {
		defer c.procs.Done()
		cmd.Wait() //nolint:errcheck // exit status is not actionable here
		c.pidMu.Lock()
		delete(c.pids, pid)
		c.pidMu.Unlock()
		c.mu.Lock()
		draining := c.draining
		c.mu.Unlock()
		if draining {
			return
		}
		if restarts > 0 {
			c.logf("worker %s (pid %d) exited; respawning (%d restarts left)", name, pid, restarts)
			err := c.spawnProc(slot, restarts-1, false)
			if err == nil {
				return
			}
			c.logf("respawning worker %s: %v", name, err)
		} else {
			c.logf("worker %s (pid %d) exited; slot retired", name, pid)
		}
		c.slotDown()
	}()
	if !ok {
		// Attach refused (drain raced the spawn); the kill hook already ran.
		return errors.New("coordinator draining")
	}
	return nil
}

// acceptLoop admits remote workers until the listener closes at drain.
func (c *Coordinator) acceptLoop(ln net.Listener) {
	defer c.procs.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		name := "tcp-" + conn.RemoteAddr().String()
		if !c.attach(name, conn, conn, func() { conn.Close() }, true, true) {
			conn.Close()
			return
		}
	}
}

// attach registers one worker connection and starts its serve goroutine.
// addCap marks a connection that contributes a fresh unit of fleet
// capacity: every remote connection, and the first spawn of each local
// slot (respawns inherit their slot's unit).
func (c *Coordinator) attach(name string, r io.Reader, w io.Writer, kill func(), remote, addCap bool) bool {
	cn := &distConn{
		name:     name,
		remote:   remote,
		w:        w,
		kill:     kill,
		incoming: make(chan distrib.Msg),
		readErr:  make(chan error, 1),
		gone:     make(chan struct{}),
	}
	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		cn.close()
		return false
	}
	c.live++
	if addCap {
		c.capacity++
	}
	c.everAlive = true
	c.mu.Unlock()
	c.conns.Add(1)
	go func() {
		defer c.conns.Done()
		c.serve(cn, r)
	}()
	return true
}

// detach unregisters a connection, closing its transport. Remote
// connections surrender their capacity here; a local proc's capacity is
// settled by its monitor (which may respawn into the same slot).
func (c *Coordinator) detach(cn *distConn) {
	close(cn.gone)
	cn.close()
	c.mu.Lock()
	c.live--
	if cn.helloed {
		c.ready--
		c.totalDepth -= cn.depth
	}
	c.mu.Unlock()
	if cn.remote {
		c.slotDown()
	}
}

// slotDown retires one unit of fleet capacity; at zero the coordinator
// drains itself so every pending and future cell resolves to local
// compute instead of queueing for workers that can never come.
func (c *Coordinator) slotDown() {
	c.mu.Lock()
	c.capacity--
	drain := c.capacity <= 0 && c.everAlive && !c.draining
	c.mu.Unlock()
	if drain {
		c.logf("all workers gone; remaining cells run locally")
		go c.beginDrain()
	}
}

// ring wakes one queue consumer; the buffered slot coalesces bursts.
func (c *Coordinator) ring() {
	select {
	case c.doorbell <- struct{}{}:
	default:
	}
}

// enqueue admits a job to the pending queue (at the head for retries, the
// tail for fresh cells). It refuses — counting the refusal — a job that is
// already queued, in flight, or resolved: under single ownership that
// cannot happen, and the guard is what turns any future ownership bug into
// a counted no-op instead of a double execution. ok=false with a draining
// coordinator means the caller must resolve the job itself.
func (c *Coordinator) enqueue(j *distJob, atHead bool) (ok bool) {
	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		return false
	}
	if j.state == jobPending || j.state == jobInFlight || j.state == jobResolved {
		c.deduped.Add(1)
		c.mu.Unlock()
		c.logf("duplicate enqueue of a cell suppressed (state %d)", j.state)
		return true // another owner holds it; nothing for the caller to do
	}
	j.state = jobPending
	if atHead {
		c.pending = append(c.pending, nil)
		copy(c.pending[1:], c.pending)
		c.pending[0] = j
	} else {
		c.pending = append(c.pending, j)
	}
	c.mu.Unlock()
	c.ring()
	return true
}

// popHead takes the next cell for a connection, re-ringing the doorbell
// when work remains so every waiting connection eventually wakes.
func (c *Coordinator) popHead() *distJob {
	c.mu.Lock()
	if len(c.pending) == 0 {
		c.mu.Unlock()
		return nil
	}
	j := c.pending[0]
	c.pending = c.pending[1:]
	j.state = jobInFlight
	more := len(c.pending) > 0
	c.mu.Unlock()
	if more {
		c.ring()
	}
	return j
}

// resolve delivers a job's terminal outcome exactly once; a nil value
// sends the cell back to its caller for local compute.
func (c *Coordinator) resolve(j *distJob, value json.RawMessage) {
	c.mu.Lock()
	if j.state == jobResolved {
		c.mu.Unlock()
		return
	}
	j.state = jobResolved
	c.mu.Unlock()
	j.done <- value
}

// pump frames the connection's incoming stream. The terminal error lands
// in readErr (buffered); delivery stops when the conn is detached.
func (cn *distConn) pump(r io.Reader) {
	rd := distrib.NewReader(r)
	for {
		m, err := rd.Read()
		if err != nil {
			cn.readErr <- err
			return
		}
		select {
		case cn.incoming <- m:
		case <-cn.gone:
			return
		}
	}
}

// inflightCell is one dispatched, unanswered cell inside a connection's
// window.
type inflightCell struct {
	id       int64
	j        *distJob
	start    time.Time
	deadline time.Time
}

// serve runs one connection's dispatch loop: hello handshake, then a
// pipelined window of cells until drain or teardown. The window holds up
// to the negotiated credit count of unanswered cells in dispatch order.
// Workers answer in that order, so every reply must be for window[0], and
// the deadline watched is always window[0]'s, the earliest.
func (c *Coordinator) serve(cn *distConn, r io.Reader) {
	defer c.detach(cn)
	go cn.pump(r)
	if !c.awaitHello(cn) {
		return
	}

	window := make([]inflightCell, 0, cn.depth) // dispatch order; window[0] is oldest
	// teardown requeues every unanswered cell in dispatch order and ends
	// the connection; the serve loop returns right after calling it.
	teardown := func(reason string) {
		for _, fc := range window {
			c.requeue(fc.j, cn.name, reason)
		}
		window = nil
		cn.stat.inflight.Store(0)
	}

	quitC := c.quit
	quitSeen := false
	for {
		// Fill the window while credits and pending cells remain.
		for !quitSeen && len(window) < cn.depth {
			j := c.popHead()
			if j == nil {
				break
			}
			c.mu.Lock()
			c.nextID++
			id := c.nextID
			c.mu.Unlock()
			now := time.Now()
			fc := inflightCell{id: id, j: j, start: now, deadline: now.Add(c.cfg.cellTimeout)}
			if wd, ok := cn.w.(interface{ SetWriteDeadline(time.Time) error }); ok {
				wd.SetWriteDeadline(fc.deadline) //nolint:errcheck // best-effort
			}
			if err := distrib.Write(cn.w, distrib.Msg{Type: distrib.TypeCell, ID: id, Kind: j.kind, Spec: j.spec}); err != nil {
				c.requeue(j, cn.name, fmt.Sprintf("write: %v", err))
				teardown(fmt.Sprintf("connection lost mid-write: %v", err))
				return
			}
			c.dispatched.Add(1)
			window = append(window, fc)
			cn.stat.inflight.Store(int64(len(window)))
		}
		if quitSeen && len(window) == 0 {
			distrib.Write(cn.w, distrib.Msg{Type: distrib.TypeShutdown}) //nolint:errcheck // best-effort farewell
			return
		}

		// Wait for the next event: a reply, more work (only with window
		// room), the oldest cell's deadline, transport death, or drain.
		var deadlineC <-chan time.Time
		var deadlineTimer *time.Timer
		if len(window) > 0 {
			d := time.Until(window[0].deadline)
			if d <= 0 {
				teardown(fmt.Sprintf("cell deadline (%v) exceeded with %d in flight", c.cfg.cellTimeout, len(window)))
				return
			}
			deadlineTimer = time.NewTimer(d)
			deadlineC = deadlineTimer.C
		}
		var jobsC <-chan struct{}
		if !quitSeen && len(window) < cn.depth {
			jobsC = c.doorbell
		}
		stop := func() {
			if deadlineTimer != nil {
				deadlineTimer.Stop()
			}
		}

		select {
		case m := <-cn.incoming:
			stop()
			switch m.Type {
			case distrib.TypeResult, distrib.TypeError:
				if len(window) == 0 || m.ID != window[0].id {
					// Out of dispatch order, credit overflow, duplicate,
					// or invented answer: the peer's accounting can no
					// longer be trusted.
					c.outOfOrder.Add(1)
					teardown(fmt.Sprintf("%s for cell %d out of dispatch order (%d in flight)", m.Type, m.ID, len(window)))
					return
				}
				fc := window[0]
				window = append(window[:0], window[1:]...)
				cn.stat.inflight.Store(int64(len(window)))
				if m.Type == distrib.TypeResult {
					c.completed.Add(1)
					cn.stat.completed.Add(1)
					cn.stat.busyNanos.Add(time.Since(fc.start).Nanoseconds())
					c.resolve(fc.j, m.Value)
				} else {
					// Permanent: the cell itself failed. Rerunning the same
					// pure function on another worker cannot change the
					// outcome, so resolve to local compute and let the
					// caller's own error path surface it.
					c.failed.Add(1)
					c.logf("worker %s: cell %d failed remotely: %s; computing locally", cn.name, m.ID, m.Error)
					c.resolve(fc.j, nil)
				}
			default:
				teardown(fmt.Sprintf("unexpected %q message", m.Type))
				return
			}
		case err := <-cn.readErr:
			stop()
			if len(window) == 0 {
				// The transport died while the connection was idle.
				// Detaching now (rather than at the next dispatch) keeps
				// Parallelism honest and lets a fully-dead fleet
				// auto-drain promptly.
				c.logf("worker %s: %v while idle; dropping", cn.name, err)
				return
			}
			teardown(err.Error())
			return
		case <-deadlineC:
			// Re-check against the clock: the timer may have raced a
			// reply that already cleared the oldest cell this iteration.
			if len(window) > 0 && !time.Now().Before(window[0].deadline) {
				teardown(fmt.Sprintf("cell deadline (%v) exceeded with %d in flight", c.cfg.cellTimeout, len(window)))
				return
			}
		case <-jobsC:
			stop()
		case <-quitC:
			stop()
			quitSeen = true
			quitC = nil
		}
	}
}

// awaitHello enforces the handshake: exactly one hello before any cell is
// trusted to this connection. The reader has already checked its version
// and credits; the credits set the window, capped by MaxDepth.
func (c *Coordinator) awaitHello(cn *distConn) bool {
	timer := time.NewTimer(c.cfg.cellTimeout)
	defer timer.Stop()
	select {
	case m := <-cn.incoming:
		if m.Type != distrib.TypeHello {
			c.logf("worker %s: first message %q, want hello; dropping", cn.name, m.Type)
			return false
		}
		depth := min(m.Credits, c.cfg.MaxDepth)
		if cn.remote && m.Worker != "" {
			cn.name = m.Worker
		}
		c.mu.Lock()
		cn.helloed = true
		cn.depth = depth
		c.ready++
		c.totalDepth += depth
		st, ok := c.workers[cn.name]
		if !ok {
			st = &workerStat{}
			c.workers[cn.name] = st
		}
		c.mu.Unlock()
		st.depth.Store(int64(depth))
		cn.stat = st
		return true
	case err := <-cn.readErr:
		c.logf("worker %s: %v before hello; dropping", cn.name, err)
		return false
	case <-timer.C:
		c.logf("worker %s: no hello within %v; dropping", cn.name, c.cfg.cellTimeout)
		return false
	case <-c.quit:
		return false
	}
}

// requeue reassigns a cell after a transport or protocol failure, with
// seeded exponential backoff, until its retry budget runs out. Retried
// cells re-enter at the head of the queue so they are not starved behind
// the rest of the sweep.
func (c *Coordinator) requeue(j *distJob, worker, reason string) {
	c.logf("worker %s: %s; reassigning cell", worker, reason)
	j.attempts++
	if j.attempts > cellRetries {
		c.logf("cell out of retries (%d); computing locally", cellRetries)
		c.resolve(j, nil)
		return
	}
	c.retried.Add(1)
	c.mu.Lock()
	j.state = jobIdle
	c.mu.Unlock()
	delay := c.backoff(j.attempts)
	go func() {
		if delay > 0 {
			t := time.NewTimer(delay)
			select {
			case <-t.C:
			case <-c.quit:
				t.Stop()
				c.resolve(j, nil)
				return
			}
		}
		if !c.enqueue(j, true) {
			c.resolve(j, nil)
		}
	}()
}

// backoff is 5ms·2^(attempt−1) with seeded ±50% jitter, capped at 250ms —
// enough to let a respawning worker come back without stalling the sweep.
func (c *Coordinator) backoff(attempt int) time.Duration {
	base := 5 * time.Millisecond << (attempt - 1)
	if base > 250*time.Millisecond {
		base = 250 * time.Millisecond
	}
	c.mu.Lock()
	jitter := time.Duration(c.rng.Int63n(int64(base)+1)) - base/2
	c.mu.Unlock()
	return base + jitter
}

// Exec offers one cell to the fleet and blocks until it resolves, with
// the remote result or ok=false. ok=false means the caller must compute
// the cell in-process — the coordinator guarantees termination, not
// remote execution.
func (c *Coordinator) Exec(kind string, spec []byte) (value json.RawMessage, ok bool) {
	c.mu.Lock()
	if c.draining || c.live == 0 {
		c.mu.Unlock()
		return nil, false
	}
	c.execs.Add(1)
	c.mu.Unlock()
	defer c.execs.Done()
	j := &distJob{kind: kind, spec: spec, done: make(chan json.RawMessage, 1)}
	if c.enqueue(j, false) {
		value = <-j.done
	}
	if value == nil {
		c.fallbacks.Add(1)
		return nil, false
	}
	return value, true
}

// noteBadValue records a remote result that did not decode into the
// caller's type — counted like a failure, resolved like one (locally).
func (c *Coordinator) noteBadValue(kind string, err error) {
	c.badValues.Add(1)
	c.fallbacks.Add(1)
	c.logf("undecodable %s result: %v; computing locally", kind, err)
}

// AwaitWorkers blocks until n workers have completed their hello handshake
// (e.g. remote workers the operator starts in another terminal), failing
// after timeout.
func (c *Coordinator) AwaitWorkers(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		ready, draining := c.ready, c.draining
		c.mu.Unlock()
		if ready >= n {
			return nil
		}
		if draining {
			return errors.New("harness: coordinator drained while awaiting workers")
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("harness: %d of %d workers ready after %v", ready, n, timeout)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// Parallelism reports how many cells the fleet can hold concurrently —
// the sum of every ready connection's negotiated window, plus one for each
// connection still in its handshake. runIndexed widens its goroutine pool
// to at least this so no worker's window idles behind a narrow local -j.
func (c *Coordinator) Parallelism() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return 0
	}
	return c.totalDepth + (c.live - c.ready)
}

// WorkerPIDs snapshots the live local worker process IDs (fault-injection
// tests kill these).
func (c *Coordinator) WorkerPIDs() []int {
	c.pidMu.Lock()
	defer c.pidMu.Unlock()
	pids := make([]int, 0, len(c.pids))
	for pid := range c.pids {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	return pids
}

// beginDrain flips the coordinator into drain mode exactly once: no new
// cells are accepted, in-flight cells finish (or time out), and every
// queued cell resolves to local compute.
func (c *Coordinator) beginDrain() {
	c.drainOnce.Do(func() {
		c.mu.Lock()
		c.draining = true
		pending := c.pending
		c.pending = nil
		c.mu.Unlock()
		close(c.quit)
		// Queued cells go back to their callers as local compute; their
		// senders are blocked on done, so this is what unsticks them.
		for _, j := range pending {
			c.resolve(j, nil)
		}
		if c.ln != nil {
			c.ln.Close()
		}
	})
}

// Drain stops dispatch and blocks until every outstanding Exec has
// resolved — the graceful-shutdown entry point (SIGTERM handlers call
// this before exiting).
func (c *Coordinator) Drain() {
	if c == nil {
		return
	}
	c.beginDrain()
	c.execs.Wait()
}

// Close drains, dismisses every worker, and reaps all processes and
// goroutines. Safe to call more than once.
func (c *Coordinator) Close() {
	if c == nil {
		return
	}
	c.Drain()
	c.conns.Wait()
	c.procs.Wait()
}

// DistStats is a point-in-time snapshot of the distributed sweep counters.
type DistStats struct {
	// Dispatched counts cell transmissions (a reassigned cell counts once
	// per transmission); Completed counts remote results accepted.
	Dispatched, Completed uint64
	// Retried counts reassignments after transport/protocol failures;
	// Failed counts worker-reported cell errors; BadValues counts remote
	// results that did not decode.
	Retried, Failed, BadValues uint64
	// LocalFallback counts cells resolved by in-process compute after the
	// fleet could not serve them.
	LocalFallback uint64
	// OutOfOrder counts replies that broke the dispatch-order rule — a
	// result or error for any cell but the oldest in its connection's
	// window, unknown IDs included; each tore its connection down, so it
	// is zero against this tree's workers. Deduped counts suppressed
	// duplicate enqueues (always zero unless an ownership bug was caught).
	OutOfOrder, Deduped uint64
	Workers             []WorkerDistStats
}

// WorkerDistStats is one worker's share of the sweep.
type WorkerDistStats struct {
	Name      string  `json:"name"`
	Completed uint64  `json:"completed"`
	BusyMS    int64   `json:"busy_ms"`
	CellsPerS float64 `json:"cells_per_s"`
	// Depth is the negotiated in-flight window (credits), InFlight the
	// cells currently unanswered.
	Depth    int `json:"depth"`
	InFlight int `json:"in_flight"`
}

// Stats snapshots the counters (zero for a nil coordinator).
func (c *Coordinator) Stats() DistStats {
	if c == nil {
		return DistStats{}
	}
	s := DistStats{
		Dispatched:    c.dispatched.Load(),
		Completed:     c.completed.Load(),
		Retried:       c.retried.Load(),
		Failed:        c.failed.Load(),
		BadValues:     c.badValues.Load(),
		LocalFallback: c.fallbacks.Load(),
		OutOfOrder:    c.outOfOrder.Load(),
		Deduped:       c.deduped.Load(),
	}
	c.mu.Lock()
	names := make([]string, 0, len(c.workers))
	for name := range c.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := c.workers[name]
		w := WorkerDistStats{
			Name:      name,
			Completed: st.completed.Load(),
			BusyMS:    st.busyNanos.Load() / 1e6,
			Depth:     int(st.depth.Load()),
			InFlight:  int(st.inflight.Load()),
		}
		if busy := st.busyNanos.Load(); busy > 0 {
			w.CellsPerS = float64(w.Completed) / (float64(busy) / 1e9)
		}
		s.Workers = append(s.Workers, w)
	}
	c.mu.Unlock()
	return s
}

// Summary formats a one-line counter block for end-of-run stderr logging,
// in the same spirit as expcache.Summary.
func (c *Coordinator) Summary() string {
	if c == nil {
		return "distributed execution disabled"
	}
	s := c.Stats()
	line := fmt.Sprintf("dist: %d dispatched, %d completed, %d retried, %d failed, %d local",
		s.Dispatched, s.Completed, s.Retried, s.Failed, s.LocalFallback)
	if s.OutOfOrder > 0 {
		line += fmt.Sprintf(", %d out-of-order", s.OutOfOrder)
	}
	for _, w := range s.Workers {
		line += fmt.Sprintf("; %s %d cells (%.1f/s, depth %d)", w.Name, w.Completed, w.CellsPerS, w.Depth)
	}
	return line
}

func (c *Coordinator) logf(format string, args ...any) {
	fmt.Fprintf(c.cfg.Log, "dist: "+format+"\n", args...)
}
