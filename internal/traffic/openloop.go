package traffic

import (
	"macrochip/internal/core"
	"macrochip/internal/geometry"
	"macrochip/internal/metrics"
	"macrochip/internal/sim"
)

// RetryPolicy enables end-to-end recovery on an open-loop generator: each
// packet gets a delivery timeout, and undelivered packets are retransmitted
// with exponential backoff (plus seeded jitter) up to MaxRetries times
// before being abandoned. Retries and aborts are counted on the network's
// Stats sink. The zero policy is disabled.
type RetryPolicy struct {
	// Timeout is the base delivery timeout for the first attempt; attempt
	// k waits Timeout × 2^k.
	Timeout sim.Duration
	// MaxRetries bounds retransmissions per packet.
	MaxRetries int
}

// Enabled reports whether the policy does anything.
func (r RetryPolicy) Enabled() bool { return r.Timeout > 0 }

// OpenLoop drives a network with independent per-site Poisson packet
// sources, the load model behind the paper's figure-6 latency-vs-offered-
// load study: "the input driver for these simulations probabilistically
// generates data packets in a specific communication pattern".
type OpenLoop struct {
	Eng     *sim.Engine
	Params  core.Params
	Net     core.Network
	Pattern Pattern
	// Load is the offered load per site as a fraction of the 320 GB/s site
	// bandwidth (figure 6's x axis).
	Load float64
	// PacketBytes is the fixed packet size (64 B in the paper's tests).
	PacketBytes int
	// Until stops generation at this simulated time.
	Until sim.Time
	// Seed selects the random streams.
	Seed int64
	// Retry, when enabled, retransmits packets the network loses — the
	// recovery layer exercised by the resilience study. Leave zero for the
	// paper's loss-free experiments (no timeout events are scheduled, so
	// runs are identical to the pre-fault-subsystem generator).
	Retry RetryPolicy

	// retryRNG jitters retransmission backoff; derived from Seed at Start.
	retryRNG *sim.RNG

	// free recycles delivered packets for retry-free runs: the recycler
	// handler (the packet's last holder under the delivery contract) pushes
	// each delivered packet here and send pops instead of allocating, so
	// the steady-state inject→deliver cycle allocates nothing. Disabled
	// automatically when Retry is enabled — a timed-out packet may be
	// retained past delivery by the retransmit bookkeeping, so recycling
	// would alias live packets. Packets lost to injected faults simply
	// never return to the list; correctness never depends on its size.
	free []*core.Packet
}

// Start schedules the first injection for every site. Call before Engine.Run.
func (o *OpenLoop) Start() {
	if o.Load <= 0 {
		return
	}
	if o.Retry.Enabled() {
		o.retryRNG = sim.NewRNG(sim.DeriveSeed(o.Seed, sim.StringLabel("openloop-retry")))
	}
	bytesPerPS := o.Load * o.Params.SiteBandwidthGBs * 1e-3 // GB/s → B/ps
	// A load so small that the mean gap passes the time axis saturates
	// there, past every run's horizon, so its sites inject nothing.
	mean := sim.FromPicoseconds(float64(o.PacketBytes) / bytesPerPS)
	root := sim.NewRNG(o.Seed)
	for s := 0; s < o.Params.Grid.Sites(); s++ {
		src := &source{
			o:    o,
			site: geometry.SiteID(s),
			rng:  root.Derive(int64(s)),
			mean: mean,
		}
		o.Eng.ScheduleCall(src.rng.ExpDuration(mean), src, sim.EventArg{})
	}
}

// source is one site's Poisson injector: a sim.Handler allocated once per
// site at Start, so the steady-state inject→reschedule cycle creates no
// per-packet closures. The RNG draw order (destination, then next gap)
// matches the original closure-based generator exactly — runs are
// stream-for-stream identical.
type source struct {
	o    *OpenLoop
	site geometry.SiteID
	rng  *sim.RNG
	mean sim.Time
}

func (s *source) OnEvent(e *sim.Engine, _ sim.EventArg) {
	o := s.o
	if e.Now() > o.Until {
		return
	}
	o.send(s.site, o.Pattern.Dest(s.site, s.rng), 0)
	// A gap past the end of the time axis would never fire.
	if gap := s.rng.ExpDuration(s.mean); gap <= sim.MaxTime-e.Now() {
		e.ScheduleCall(gap, s, sim.EventArg{})
	}
}

// send injects one packet, arming the delivery-timeout/retransmit chain
// when a retry policy is set.
func (o *OpenLoop) send(src, dst geometry.SiteID, attempt int) {
	if !o.Retry.Enabled() {
		p := o.getPacket()
		p.Src, p.Dst = src, dst
		p.Bytes = o.PacketBytes
		p.Class = core.ClassData
		p.Deliver = (*recycler)(o)
		o.Net.Inject(p)
		return
	}
	t := &transmission{o: o, src: src, dst: dst, attempt: attempt}
	o.Net.Inject(&core.Packet{Src: src, Dst: dst, Bytes: o.PacketBytes, Class: core.ClassData, Deliver: t})
	o.Eng.ScheduleCall(o.backoff(attempt), t, sim.EventArg{})
}

// transmission is one attempt of a retried packet: the packet's delivery
// handler and the attempt's timeout event.
type transmission struct {
	o         *OpenLoop
	src, dst  geometry.SiteID
	attempt   int
	delivered bool
}

func (t *transmission) OnDeliver(*core.Packet, sim.Time) { t.delivered = true }

// OnEvent fires at the timeout: an undelivered packet is sent again, or
// abandoned once its retries are spent.
func (t *transmission) OnEvent(*sim.Engine, sim.EventArg) {
	if t.delivered {
		return
	}
	st := t.o.Net.Stats()
	if t.attempt >= t.o.Retry.MaxRetries {
		st.AddAbort()
		return
	}
	st.AddRetry()
	t.o.send(t.src, t.dst, t.attempt+1)
}

// Instrument implements metrics.Instrumentable: progress gauges derived
// from the network's Stats sink — injected/delivered/in-flight totals,
// per-class in-flight occupancy, and the recovery and arbitration counters.
func (o *OpenLoop) Instrument(ob metrics.Observer) {
	if ob.Reg == nil {
		return
	}
	st := o.Net.Stats()
	ob.Reg.Gauge("traffic/injected", func(sim.Time) float64 {
		return float64(st.Injected)
	})
	ob.Reg.Gauge("traffic/delivered", func(sim.Time) float64 {
		return float64(st.Delivered)
	})
	ob.Reg.Gauge("traffic/inflight", func(sim.Time) float64 {
		return float64(st.InFlight())
	})
	for _, c := range core.MsgClasses() {
		c := c
		ob.Reg.Gauge("traffic/inflight/"+c.String(), func(sim.Time) float64 {
			return float64(st.ClassInFlight(c))
		})
	}
	ob.Reg.Gauge("traffic/dropped", func(sim.Time) float64 {
		return float64(st.Dropped)
	})
	ob.Reg.Gauge("traffic/retries", func(sim.Time) float64 {
		return float64(st.Retries)
	})
	ob.Reg.Gauge("traffic/aborts", func(sim.Time) float64 {
		return float64(st.Aborts)
	})
	ob.Reg.Gauge("traffic/arb_messages", func(sim.Time) float64 {
		return float64(st.ArbMessages)
	})
}

// getPacket pops a recycled packet from the free list (cleared to the zero
// state, so stale IDs/timestamps/hop counts can never leak into a new
// flight) or allocates when the list is empty.
func (o *OpenLoop) getPacket() *core.Packet {
	if n := len(o.free); n > 0 {
		p := o.free[n-1]
		o.free[n-1] = nil
		o.free = o.free[:n-1]
		*p = core.Packet{}
		return p
	}
	return &core.Packet{}
}

// recycler is the free list's pointer-shaped core.DeliverHandler: delivery
// hands the packet over (the networks retain nothing past dispatch), so it
// goes straight back on the list. The simulation is single-threaded, so no
// locking is needed.
type recycler OpenLoop

func (r *recycler) OnDeliver(p *core.Packet, _ sim.Time) {
	o := (*OpenLoop)(r)
	p.Deliver = nil
	o.free = append(o.free, p)
}

// backoff returns attempt k's timeout: Timeout × 2^k plus up to one
// Timeout of seeded jitter, so correlated losses do not resynchronize
// their retries.
func (o *OpenLoop) backoff(attempt int) sim.Duration {
	if attempt > 20 {
		attempt = 20
	}
	d := o.Retry.Timeout << attempt
	d += sim.Time(o.retryRNG.Float64() * float64(o.Retry.Timeout))
	return d
}
