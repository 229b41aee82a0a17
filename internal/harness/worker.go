package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"macrochip/internal/distrib"
)

// ServeWorker runs the worker side of the distributed-sweep protocol: read
// cells from in, execute each through RunCell on the worker's own cache
// (never redistributed), and write results to out —
// `macrosim -worker` over stdin/stdout, `macrosim -connect` over TCP.
//
// depth is the credit window the worker advertises in its hello: the
// coordinator may stream up to that many unanswered cells, and the worker
// computes them on a bounded pool of the same size, replying in completion
// order — results drain while later cells simulate, so the connection
// never sits idle across a protocol round trip. Any value below one means
// distrib.DefaultCredits; depth 1 is stop-and-wait, one cell at a time.
// Every reply goes through one serialized writer, so frames are never
// interleaved however the pool finishes.
//
// Results reach the rendezvous store only through the Runner's cache (the
// atomic temp-file+rename publish in expcache, plus its optional HTTP
// remote tier) and the result message back to the coordinator; the worker
// never writes an entry in place, so a worker killed mid-cell can leave at
// worst an orphaned temp file, never a torn entry (pinned by the
// kill-mid-cell regression test).
//
// A cell that fails — bad spec, unknown kind, or a panicking simulation —
// answers with an error message and the worker keeps serving; only a
// protocol violation from the coordinator (who is trusted) or a transport
// error ends the session. Closing quit drains gracefully: every in-flight
// cell finishes and is answered, then ServeWorker returns nil before
// taking another (the SIGTERM path of cmd/macrosim). A clean EOF or a
// shutdown message also drains the in-flight cells and returns nil.
func ServeWorker(in io.Reader, out io.Writer, r Runner, name string, depth int, quit <-chan struct{}, logw io.Writer) error {
	if depth <= 0 {
		depth = distrib.DefaultCredits
	}
	if logw == nil {
		logw = io.Discard
	}

	// One writer, many computing goroutines: replies are serialized by
	// writeMu and the first transport error is latched so the session can
	// end with it once the in-flight cells have settled. The latch lives
	// under its own mutex — never writeMu — because the serve loop polls
	// failed() between cells: if that poll had to wait for an in-flight
	// reply frame, a full window could close a blocking cycle through the
	// coordinator (reply write → pump → serve's cell write → reader →
	// this loop) and wedge both sides.
	var (
		writeMu  sync.Mutex
		errMu    sync.Mutex
		writeErr error
	)
	failed := func() error {
		errMu.Lock()
		defer errMu.Unlock()
		return writeErr
	}
	write := func(m distrib.Msg) {
		writeMu.Lock()
		defer writeMu.Unlock()
		if failed() != nil {
			return
		}
		if err := distrib.Write(out, m); err != nil {
			errMu.Lock()
			writeErr = err
			errMu.Unlock()
		}
	}

	if err := distrib.Write(out, distrib.Msg{Type: distrib.TypeHello, Version: distrib.Version, Worker: name, Credits: depth}); err != nil {
		return fmt.Errorf("harness: worker hello: %w", err)
	}

	type incoming struct {
		msg distrib.Msg
		err error
	}
	msgs := make(chan incoming)
	go func() {
		rd := distrib.NewReader(in)
		for {
			m, err := rd.Read()
			select {
			case msgs <- incoming{m, err}:
			case <-quit:
				return
			}
			if err != nil {
				return
			}
		}
	}()

	// pool bounds concurrent cell computes to the advertised window; the
	// coordinator should never exceed it, but a slot acquire here keeps a
	// miscounting peer from ballooning this process instead of erroring.
	pool := make(chan struct{}, depth)
	var inflight sync.WaitGroup
	drain := func() { inflight.Wait() }

	cells := 0
	for {
		select {
		case <-quit:
			drain()
			fmt.Fprintf(logw, "worker %s: draining after %d cells\n", name, cells)
			return nil
		case in := <-msgs:
			if in.err == io.EOF {
				drain()
				return nil
			}
			if in.err != nil {
				drain()
				return fmt.Errorf("harness: worker %s: %w", name, in.err)
			}
			m := in.msg
			switch m.Type {
			case distrib.TypeCell:
				pool <- struct{}{}
				inflight.Add(1)
				go func() {
					defer inflight.Done()
					defer func() { <-pool }()
					write(executeCell(r, m))
				}()
				cells++
			case distrib.TypeShutdown:
				drain()
				fmt.Fprintf(logw, "worker %s: shutdown after %d cells\n", name, cells)
				return nil
			default:
				drain()
				return fmt.Errorf("harness: worker %s: unexpected %q message from coordinator", name, m.Type)
			}
		}
		if err := failed(); err != nil {
			drain()
			return fmt.Errorf("harness: worker %s: writing reply: %w", name, err)
		}
	}
}

// executeCell runs one cell to a terminal reply: a result message with the
// canonical JSON value, or an error message carrying the failure (panics
// included — a worker must survive any single bad cell).
func executeCell(r Runner, m distrib.Msg) distrib.Msg {
	v, err := runCellSafe(r, m.Kind, m.Spec)
	if err != nil {
		return distrib.Msg{Type: distrib.TypeError, ID: m.ID, Error: err.Error()}
	}
	data, err := json.Marshal(v)
	if err != nil {
		return distrib.Msg{Type: distrib.TypeError, ID: m.ID, Error: fmt.Sprintf("encoding result: %v", err)}
	}
	return distrib.Msg{Type: distrib.TypeResult, ID: m.ID, Value: data}
}

// runCellSafe converts a panicking cell (e.g. a post-validation inference
// failure) into an error reply instead of a dead worker.
func runCellSafe(r Runner, kind string, spec []byte) (v any, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("cell panicked: %v", p)
		}
	}()
	return RunCell(r, kind, spec)
}
