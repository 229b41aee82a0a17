package harness

import (
	"encoding/json"
	"fmt"
	"io"

	"macrochip/internal/distrib"
)

// ServeWorker runs the worker side of the distributed-sweep protocol: read
// cells from in, execute each through RunCell on the worker's own cache
// (never redistributed), and write results to out —
// `macrosim -worker` over stdin/stdout, `macrosim -connect` over TCP.
//
// depth is the credit window the worker advertises in its hello: the
// coordinator may queue up to that many unanswered cells, so the next cell
// is already waiting here while a reply travels back and the connection
// never sits idle across a protocol round trip. Any value below one means
// distrib.DefaultCredits; depth 1 is stop-and-wait. The window queues
// cells, it does not run them: the worker simulates one cell at a time, in
// arrival order, and answers in dispatch order, so a worker uses one core
// and a many-core host runs one worker per core.
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
// error ends the session. Closing quit ends it gracefully: the current
// cell finishes and is answered, then ServeWorker returns nil before
// taking another, and the coordinator requeues the cells still queued, as
// on any worker exit (the SIGTERM path of cmd/macrosim). A clean EOF or a
// shutdown message also returns nil.
func ServeWorker(in io.Reader, out io.Writer, r Runner, name string, depth int, quit <-chan struct{}, logw io.Writer) error {
	if depth <= 0 {
		depth = distrib.DefaultCredits
	}
	if logw == nil {
		logw = io.Discard
	}

	if err := distrib.Write(out, distrib.Msg{Type: distrib.TypeHello, Version: distrib.Version, Worker: name, Credits: depth}); err != nil {
		return fmt.Errorf("harness: worker hello: %w", err)
	}

	// The reader buffers a full window. While this loop simulates or
	// writes a reply, the coordinator may still be writing queued cells;
	// over a synchronous transport (io.Pipe) an unbuffered hand-off would
	// block those writes, the coordinator would stop reading replies, and
	// both sides would wedge.
	type incoming struct {
		msg distrib.Msg
		err error
	}
	msgs := make(chan incoming, depth)
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

	cells := 0
	for {
		var in incoming
		select {
		case <-quit:
		case in = <-msgs:
		}
		// A closed quit wins over a queued cell.
		select {
		case <-quit:
			fmt.Fprintf(logw, "worker %s: quitting after %d cells\n", name, cells)
			return nil
		default:
		}
		if in.err == io.EOF {
			return nil
		}
		if in.err != nil {
			return fmt.Errorf("harness: worker %s: %w", name, in.err)
		}
		switch m := in.msg; m.Type {
		case distrib.TypeCell:
			if err := distrib.Write(out, executeCell(r, m)); err != nil {
				return fmt.Errorf("harness: worker %s: writing reply: %w", name, err)
			}
			cells++
		case distrib.TypeShutdown:
			fmt.Fprintf(logw, "worker %s: shutdown after %d cells\n", name, cells)
			return nil
		default:
			return fmt.Errorf("harness: worker %s: unexpected %q message from coordinator", name, m.Type)
		}
	}
}

// executeCell runs one cell to a terminal reply: a result message with the
// canonical JSON value, or an error message carrying the failure (RunCell
// turns panics into errors — a worker must survive any single bad cell).
func executeCell(r Runner, m distrib.Msg) distrib.Msg {
	v, err := RunCell(r, m.Kind, m.Spec)
	if err != nil {
		return distrib.Msg{Type: distrib.TypeError, ID: m.ID, Error: err.Error()}
	}
	data, err := json.Marshal(v)
	if err != nil {
		return distrib.Msg{Type: distrib.TypeError, ID: m.ID, Error: fmt.Sprintf("encoding result: %v", err)}
	}
	return distrib.Msg{Type: distrib.TypeResult, ID: m.ID, Value: data}
}
