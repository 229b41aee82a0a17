package opgraph

import (
	"fmt"

	"macrochip/internal/core"
	"macrochip/internal/geometry"
	"macrochip/internal/metrics"
	"macrochip/internal/sim"
	"macrochip/internal/traffic"
)

// DefaultMTU is the tensor-transfer packet size when Replay.PacketBytes is
// zero: transfers are segmented into 4 KiB packets, a typical maximum
// transfer unit for inter-chip links (the figure-6 study's 64 B packets
// model coherence traffic, not bulk tensors).
const DefaultMTU = 4096

// Replay executes one operator graph on one network: a dependency
// scheduler in which an operator starts once every inbound edge has
// finished transferring, occupies its site's compute window, and then
// launches its outbound edges as segmented packet transfers. The replay is
// deterministic: event order is fixed by the engine's (time, seq) contract,
// and the only random streams (compute jitter, retry backoff) derive from
// Seed via sim.DeriveSeed.
type Replay struct {
	Eng    *sim.Engine
	Params core.Params
	// Net receives every cross-op transfer; wrap it in fault.Network to
	// replay under failures (the decorator is transparent at zero faults).
	Net   core.Network
	Graph *Graph
	// PacketBytes is the transfer MTU: an edge of B bytes becomes
	// ceil(B/MTU) packets. Zero falls back to the graph's own MTU, then to
	// DefaultMTU; a negative value is a configuration error Start reports
	// (it used to be silently replaced by the default, which hid mis-parsed
	// flags and JSON).
	PacketBytes int
	// Seed selects the derived random streams.
	Seed int64
	// Retry, when enabled, retransmits transfer packets the network loses,
	// with the same timeout/backoff shape as traffic.OpenLoop. A packet
	// that exhausts its budget is abandoned (counted in Stats.Aborts) and
	// settled so the graph does not deadlock — the model for giving up and
	// recomputing from a checkpoint.
	Retry traffic.RetryPolicy
	// JitterFrac, when positive, scales each compute window by a seeded
	// uniform factor in [1−JitterFrac, 1+JitterFrac] — straggler modeling.
	// Zero draws nothing.
	JitterFrac float64

	jitterRNG *sim.RNG
	retryRNG  *sim.RNG

	// Per-op scheduling state.
	waiting  []int32 // unfinished inbound edges
	done     []bool
	outEdges [][]int32
	siteFree []sim.Time

	// Per-edge transfer state, indexed like Graph.Edges.
	transfers []transfer

	opsDone        int
	doneByKind     [numKinds]int
	transfersTotal int
	transfersDone  int
	inflight       int
	bytesMoved     uint64
	finish         sim.Time
	started        bool

	// free recycles delivered packets (retry-free runs only, exactly like
	// traffic.OpenLoop's list: retry bookkeeping may retain packets past
	// delivery, so recycling would alias live flights).
	free []*core.Packet
}

// transfer tracks one edge's in-flight packets; it is the closure-free
// core.DeliverHandler for every packet of the edge.
type transfer struct {
	r         *Replay
	to        int32
	remaining int32
	src, dst  geometry.SiteID
	class     core.MsgClass
}

// OnDeliver implements core.DeliverHandler: one packet of the edge landed.
func (t *transfer) OnDeliver(p *core.Packet, at sim.Time) {
	t.r.bytesMoved += uint64(p.Bytes)
	t.r.recycle(p)
	t.settle(at)
}

// settle retires one packet (delivered or abandoned); the last one
// completes the edge and may unblock the destination op.
func (t *transfer) settle(at sim.Time) {
	t.remaining--
	if t.remaining > 0 {
		return
	}
	r := t.r
	r.transfersDone++
	r.inflight--
	r.edgeDone(int(t.to), at)
}

// Result summarizes one finished replay.
type Result struct {
	// Makespan is the completion time of the last operator. When Stalled,
	// it is the time the graph stopped making progress instead.
	Makespan sim.Time
	// OpsDone of OpsTotal operators completed; they differ only when
	// packets were lost without a retry policy to recover them.
	OpsDone, OpsTotal int
	// TransfersDone of TransfersTotal cross-op network transfers finished.
	TransfersDone, TransfersTotal int
	// BytesMoved is the payload actually delivered by the network.
	BytesMoved uint64
	// Stalled reports a deadlocked replay: dependencies lost to faults
	// with no (or an exhausted) retry policy.
	Stalled bool
}

// Start validates the graph and schedules every source operator. Call
// before Engine.Run; the replay then drives itself to completion.
func (r *Replay) Start() error {
	if r.started {
		return fmt.Errorf("opgraph: Replay started twice")
	}
	if err := r.Graph.Validate(r.Params.Grid); err != nil {
		return err
	}
	if r.PacketBytes < 0 {
		return fmt.Errorf("opgraph: graph %q: negative transfer MTU %d (use 0 for the %d-byte default)",
			r.Graph.Name, r.PacketBytes, DefaultMTU)
	}
	if r.PacketBytes == 0 {
		if r.Graph.MTU > 0 {
			r.PacketBytes = r.Graph.MTU
		} else {
			r.PacketBytes = DefaultMTU
		}
	}
	if r.JitterFrac > 0 {
		r.jitterRNG = sim.NewRNG(sim.DeriveSeed(r.Seed, sim.StringLabel("opgraph-jitter")))
	}
	if r.Retry.Enabled() {
		r.retryRNG = sim.NewRNG(sim.DeriveSeed(r.Seed, sim.StringLabel("opgraph-retry")))
	}
	g := r.Graph
	r.started = true
	r.waiting = make([]int32, len(g.Ops))
	r.done = make([]bool, len(g.Ops))
	r.outEdges = make([][]int32, len(g.Ops))
	r.siteFree = make([]sim.Time, r.Params.Grid.Sites())
	r.transfers = make([]transfer, len(g.Edges))
	for i, e := range g.Edges {
		r.waiting[e.To]++
		r.outEdges[e.From] = append(r.outEdges[e.From], int32(i))
		if e.Bytes > 0 {
			r.transfersTotal++
		}
	}
	// Sources become ready in op order at t=0; same-site sources serialize
	// through the site window in that same deterministic order.
	for i := range g.Ops {
		if r.waiting[i] == 0 {
			r.ready(i)
		}
	}
	return nil
}

// ready schedules op i's compute window: it starts when its site frees up
// and finishes compute after its (possibly jittered) window.
func (r *Replay) ready(i int) {
	op := &r.Graph.Ops[i]
	dur := op.Compute
	if r.jitterRNG != nil {
		f := 1 + r.JitterFrac*(2*r.jitterRNG.Float64()-1)
		if f < 0 {
			f = 0
		}
		dur = sim.Duration(float64(dur) * f)
	}
	start := r.Eng.Now()
	if r.siteFree[op.Site] > start {
		start = r.siteFree[op.Site]
	}
	r.siteFree[op.Site] = start + dur
	r.Eng.CallAt(start+dur, (*opDoneH)(r), sim.EventArg{A: uint64(i)})
}

// opDoneH dispatches operator completions without a closure; EventArg.A
// carries the op index.
type opDoneH Replay

func (h *opDoneH) OnEvent(e *sim.Engine, arg sim.EventArg) {
	(*Replay)(h).opDone(int(arg.A), e.Now())
}

func (r *Replay) opDone(i int, at sim.Time) {
	r.done[i] = true
	r.opsDone++
	r.doneByKind[r.Graph.Ops[i].Kind]++
	r.finish = at
	for _, ei := range r.outEdges[i] {
		e := r.Graph.Edges[ei]
		if e.Bytes == 0 {
			r.edgeDone(e.To, at)
			continue
		}
		t := &r.transfers[ei]
		t.r = r
		t.to = int32(e.To)
		t.src = r.Graph.Ops[e.From].Site
		t.dst = r.Graph.Ops[e.To].Site
		t.class = core.ClassTensor
		if r.Graph.Ops[e.From].Kind.Collective() || r.Graph.Ops[e.To].Kind.Collective() {
			t.class = core.ClassCollective
		}
		t.remaining = int32((e.Bytes + r.PacketBytes - 1) / r.PacketBytes)
		r.inflight++
		rem := e.Bytes
		for rem > 0 {
			sz := r.PacketBytes
			if rem < sz {
				sz = rem
			}
			r.sendPacket(t, sz, 0, nil)
			rem -= sz
		}
	}
}

// edgeDone retires one inbound dependency of op `to`.
func (r *Replay) edgeDone(to int, _ sim.Time) {
	r.waiting[to]--
	if r.waiting[to] == 0 {
		r.ready(to)
	}
}

// sendPacket injects one segment of a transfer, arming the delivery-
// timeout/retransmit chain when a retry policy is set — the same shape as
// traffic.OpenLoop.send. Unlike OpenLoop, the replay must settle each
// logical segment exactly once (a double settle would unblock the DAG
// twice), so every attempt of a segment shares one settled flag: a slow
// original arriving after its retransmit settles first and the duplicate
// is ignored.
func (r *Replay) sendPacket(t *transfer, bytes, attempt int, settled *bool) {
	if !r.Retry.Enabled() {
		p := r.getPacket()
		p.Src, p.Dst = t.src, t.dst
		p.Bytes = bytes
		p.Class = t.class
		p.Deliver = t
		r.Net.Inject(p)
		return
	}
	if settled == nil {
		settled = new(bool)
	}
	p := &core.Packet{Src: t.src, Dst: t.dst, Bytes: bytes, Class: t.class}
	p.Deliver = core.DeliverFunc(func(p *core.Packet, at sim.Time) {
		if *settled {
			return
		}
		*settled = true
		r.bytesMoved += uint64(p.Bytes)
		t.settle(at)
	})
	r.Net.Inject(p)
	r.Eng.Schedule(r.backoff(attempt), func() {
		if *settled {
			return
		}
		st := r.Net.Stats()
		if attempt >= r.Retry.MaxRetries {
			st.AddAbort()
			*settled = true
			t.settle(r.Eng.Now())
			return
		}
		st.AddRetry()
		r.sendPacket(t, bytes, attempt+1, settled)
	})
}

// backoff returns attempt k's timeout: Timeout × 2^k plus up to one Timeout
// of seeded jitter (traffic.OpenLoop's schedule).
func (r *Replay) backoff(attempt int) sim.Duration {
	if attempt > 20 {
		attempt = 20
	}
	d := r.Retry.Timeout << attempt
	d += sim.Time(r.retryRNG.Float64() * float64(r.Retry.Timeout))
	return d
}

// getPacket pops a recycled packet (cleared to zero) or allocates.
func (r *Replay) getPacket() *core.Packet {
	if n := len(r.free); n > 0 {
		p := r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
		*p = core.Packet{}
		return p
	}
	return &core.Packet{}
}

// recycle returns a delivered packet to the free list (retry-free runs;
// the transfer handler is the packet's last holder under the delivery
// contract).
func (r *Replay) recycle(p *core.Packet) {
	p.Deliver = nil
	r.free = append(r.free, p)
}

// Result summarizes the replay after Engine.Run has drained.
func (r *Replay) Result() Result {
	return Result{
		Makespan:       r.finish,
		OpsDone:        r.opsDone,
		OpsTotal:       len(r.Graph.Ops),
		TransfersDone:  r.transfersDone,
		TransfersTotal: r.transfersTotal,
		BytesMoved:     r.bytesMoved,
		Stalled:        r.opsDone < len(r.Graph.Ops),
	}
}

// Instrument implements metrics.Instrumentable: replay progress gauges —
// completed operators (total and per kind), transfer progress, in-flight
// transfer count, and delivered payload bytes.
func (r *Replay) Instrument(ob metrics.Observer) {
	if ob.Reg == nil {
		return
	}
	ob.Reg.Gauge("opgraph/ops_done", func(sim.Time) float64 {
		return float64(r.opsDone)
	})
	for _, k := range Kinds() {
		k := k
		ob.Reg.Gauge("opgraph/ops_done/"+k.String(), func(sim.Time) float64 {
			return float64(r.doneByKind[k])
		})
	}
	ob.Reg.Gauge("opgraph/transfers_done", func(sim.Time) float64 {
		return float64(r.transfersDone)
	})
	ob.Reg.Gauge("opgraph/transfers_inflight", func(sim.Time) float64 {
		return float64(r.inflight)
	})
	ob.Reg.Gauge("opgraph/bytes_moved", func(sim.Time) float64 {
		return float64(r.bytesMoved)
	})
}
