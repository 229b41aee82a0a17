// Package msgpass implements bulk-synchronous message-passing workloads —
// the evaluation the paper defers to future work ("Future work will
// evaluate network architectures for message passing workloads", §8).
//
// Each site is one rank. An iteration is: compute for a fixed time, post
// the pattern's messages, and barrier until every message of the iteration
// has been delivered; then the next iteration begins. Unlike the
// cache-coherence study's 16–72 B messages, message-passing transfers are
// large, which inverts part of the paper's story: the circuit-switched
// torus amortizes its path-setup cost over kilobytes and closes much of its
// gap, while the static point-to-point network's narrow 5 GB/s channels
// become the bottleneck on one-to-one exchanges.
package msgpass

import (
	"fmt"

	"macrochip/internal/core"
	"macrochip/internal/geometry"
	"macrochip/internal/sim"
)

// Pattern selects the communication structure of one iteration.
type Pattern string

// The four message-passing patterns.
const (
	// HaloExchange sends one message to each of the four grid neighbors
	// (toroidal) — the stencil-code staple.
	HaloExchange Pattern = "halo"
	// AllToAll sends one personalized message to every other rank — the
	// FFT/transpose staple.
	AllToAll Pattern = "alltoall"
	// AllReduce performs recursive doubling: log2(ranks) stages of pairwise
	// exchanges, with a stage barrier between them.
	AllReduce Pattern = "allreduce"
	// Ring sends one message to the next rank in row-major order — the
	// pipeline staple.
	Ring Pattern = "ring"
)

// Patterns lists all message-passing patterns.
func Patterns() []Pattern { return []Pattern{HaloExchange, AllToAll, AllReduce, Ring} }

// Config describes one run.
type Config struct {
	Pattern Pattern
	// MessageBytes is the payload per message.
	MessageBytes int
	// ComputeNS is the per-iteration compute phase.
	ComputeNS float64
	// Iterations is the number of compute+exchange rounds.
	Iterations int
}

// Result summarizes a run.
type Result struct {
	Pattern Pattern
	Network string
	Runtime sim.Time
	// BytesMoved is the total payload delivered.
	BytesMoved uint64
	// ExchangeNS is the mean communication time per iteration (runtime
	// minus compute, per iteration).
	ExchangeNS float64
	// EffectiveGBs is aggregate delivered bandwidth during the exchanges.
	EffectiveGBs float64
}

// Runner executes a message-passing workload on a network. Only one
// barrier is open at a time, so the runner itself is the handler of every
// compute phase's end and the delivery handler of every message.
type Runner struct {
	eng   *sim.Engine
	p     core.Params
	net   core.Network
	cfg   Config
	bytes uint64

	// iter is the current iteration; stride is the current all-reduce
	// stage's XOR stride; remaining counts the open barrier's undelivered
	// messages.
	iter, stride, remaining int
}

// NewRunner builds a runner; the network must share the engine.
func NewRunner(eng *sim.Engine, p core.Params, net core.Network, cfg Config) (*Runner, error) {
	if cfg.MessageBytes <= 0 || cfg.Iterations <= 0 {
		return nil, fmt.Errorf("msgpass: bad config %+v", cfg)
	}
	switch cfg.Pattern {
	case HaloExchange, AllToAll, AllReduce, Ring:
	default:
		return nil, fmt.Errorf("msgpass: unknown pattern %q", cfg.Pattern)
	}
	return &Runner{eng: eng, p: p, net: net, cfg: cfg}, nil
}

// Run executes the workload to completion.
func (r *Runner) Run() Result {
	start := r.eng.Now()
	r.iteration(0)
	r.eng.Run()
	runtime := r.eng.Now() - start
	iters := float64(r.cfg.Iterations)
	exchange := runtime.Nanoseconds() - r.cfg.ComputeNS*iters
	if exchange < 0 {
		exchange = 0
	}
	res := Result{
		Pattern:    r.cfg.Pattern,
		Network:    r.net.Name(),
		Runtime:    runtime,
		BytesMoved: r.bytes,
		ExchangeNS: exchange / iters,
	}
	if exchange > 0 {
		res.EffectiveGBs = float64(r.bytes) / exchange // B/ns == GB/s
	}
	return res
}

// iteration schedules compute then the exchange for round i.
func (r *Runner) iteration(i int) {
	if i >= r.cfg.Iterations {
		return
	}
	r.iter = i
	r.eng.ScheduleCall(sim.FromNanoseconds(r.cfg.ComputeNS), r, sim.EventArg{})
}

// OnEvent ends the current iteration's compute phase and starts its exchange.
func (r *Runner) OnEvent(*sim.Engine, sim.EventArg) {
	switch r.cfg.Pattern {
	case AllReduce:
		r.allReduceStage(1)
	default:
		r.exchange()
	}
}

// OnDeliver counts one message into the open barrier; the last one closes
// it and moves on to the next all-reduce stage or iteration.
func (r *Runner) OnDeliver(*core.Packet, sim.Time) {
	r.remaining--
	if r.remaining > 0 {
		return
	}
	if r.cfg.Pattern == AllReduce {
		r.allReduceStage(r.stride * 2)
	} else {
		r.iteration(r.iter + 1)
	}
}

// exchange posts the iteration's messages and barriers on their delivery.
func (r *Runner) exchange() {
	pairs := r.pairs()
	r.remaining = len(pairs)
	if r.remaining == 0 {
		r.iteration(r.iter + 1)
		return
	}
	for _, pr := range pairs {
		r.bytes += uint64(r.cfg.MessageBytes)
		r.net.Inject(&core.Packet{
			Src: pr[0], Dst: pr[1],
			Bytes: r.cfg.MessageBytes, Class: core.ClassData, Deliver: r,
		})
	}
}

// allReduceStage runs recursive-doubling stage with the given XOR stride.
func (r *Runner) allReduceStage(stride int) {
	sites := r.p.Grid.Sites()
	if stride >= sites {
		r.iteration(r.iter + 1)
		return
	}
	r.stride, r.remaining = stride, sites
	for s := 0; s < sites; s++ {
		r.bytes += uint64(r.cfg.MessageBytes)
		r.net.Inject(&core.Packet{
			Src: geometry.SiteID(s), Dst: geometry.SiteID(s ^ stride),
			Bytes: r.cfg.MessageBytes, Class: core.ClassData, Deliver: r,
		})
	}
}

// pairs enumerates the iteration's (src, dst) messages.
func (r *Runner) pairs() [][2]geometry.SiteID {
	g := r.p.Grid
	sites := g.Sites()
	var out [][2]geometry.SiteID
	switch r.cfg.Pattern {
	case HaloExchange:
		for s := 0; s < sites; s++ {
			row, col := g.Row(geometry.SiteID(s)), g.Col(geometry.SiteID(s))
			for _, d := range []geometry.SiteID{
				g.Site((row+1)%g.N, col), g.Site((row+g.N-1)%g.N, col),
				g.Site(row, (col+1)%g.N), g.Site(row, (col+g.N-1)%g.N),
			} {
				out = append(out, [2]geometry.SiteID{geometry.SiteID(s), d})
			}
		}
	case AllToAll:
		for s := 0; s < sites; s++ {
			for d := 0; d < sites; d++ {
				if s != d {
					out = append(out, [2]geometry.SiteID{geometry.SiteID(s), geometry.SiteID(d)})
				}
			}
		}
	case Ring:
		for s := 0; s < sites; s++ {
			out = append(out, [2]geometry.SiteID{geometry.SiteID(s), geometry.SiteID((s + 1) % sites)})
		}
	}
	return out
}
