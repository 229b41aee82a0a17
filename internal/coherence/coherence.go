// Package coherence models the directory-based MOESI coherence traffic of
// the paper's CPU simulator (§5). The paper's network study does not model
// "the intricate details of the cache coherency protocol"; it generates,
// for every L2 miss, the full set of network messages the protocol needs to
// satisfy the request, with finite MSHRs throttling concurrency. This
// package does exactly that.
//
// A coherence operation (one L2 miss) unfolds as:
//
//  1. The requesting site sends a 16 B request to the block's home site.
//  2. The home performs a directory/L2 lookup (DirectoryLookupCycles).
//  3. Depending on the directory state:
//     a. No sharers: the home returns a 72 B data message. (2 messages)
//     b. Dirty owner, read miss: the home forwards a 16 B intervention to
//     the owner, which sends the 72 B data directly to the requester.
//     (3 messages)
//     c. Shared copies, write miss: the home returns data and sends a 16 B
//     invalidation to each of the k sharers; every sharer acknowledges
//     directly to the requester with a 16 B ack. The operation completes
//     when the data and all k acks have arrived. (2 + 2k messages)
//
// Latency per coherence operation — figure 8's metric — is measured from
// request issue (after MSHR acquisition) to operation completion.
package coherence

import (
	"slices"

	"macrochip/internal/core"
	"macrochip/internal/geometry"
	"macrochip/internal/sim"
)

// Op describes one coherence operation to perform. Engine.Issue takes it by
// value and copies the sharers, so the caller may reuse its Sharers buffer
// as soon as Issue returns.
type Op struct {
	// Requester is the missing site.
	Requester geometry.SiteID
	// Home is the directory site for the block.
	Home geometry.SiteID
	// Sharers are the sites holding copies (empty for an unshared miss).
	Sharers []geometry.SiteID
	// Write marks a write miss: sharers are invalidated and must ack. A
	// read miss with a non-empty Sharers list is a dirty-owner forward
	// (only Sharers[0] is consulted).
	Write bool
	// OnIssued runs when the operation acquires an MSHR and its request
	// enters the network. The CPU model resumes the core's trace here.
	OnIssued func()
	// OnComplete runs when the operation finishes; latency is measured
	// from issue (MSHR acquisition), matching figure 8.
	OnComplete func(latency sim.Time)
}

// Messages returns the total network messages this operation will generate
// — useful for tests and traffic estimates.
func (o *Op) Messages() int {
	switch {
	case len(o.Sharers) == 0:
		return 2
	case o.Write:
		return 2 + 2*len(o.Sharers)
	default:
		return 3
	}
}

// MemoryBackend resolves home-site data fetches that miss the on-package
// memory (see internal/memory). Access runs h.OnEvent with arg once the data
// is available at the home: at once, or as an event after the fetch. A nil
// backend means data is always on package — the paper's §5 baseline.
type MemoryBackend interface {
	Access(site, bytes int, h sim.Handler, arg sim.EventArg)
}

// Engine drives coherence operations over a network, enforcing the per-site
// MSHR limit. It recycles its per-operation objects: each operation runs in
// a tracker from a free list, and its packets come from a packet free list
// that each delivery handler refills, so a steady-state miss allocates
// nothing (TestCoherenceSteadyStateAllocs).
type Engine struct {
	eng *sim.Engine
	p   core.Params
	net core.Network
	mem MemoryBackend

	// mshrFree[s] is the number of free MSHRs at site s; waiting[s] queues,
	// in issue order, the operations that could not allocate one.
	mshrFree []int
	waiting  [][]*tracker

	// Completed counts finished operations; LatencySum accumulates their
	// latencies for the figure-8 metric.
	Completed  uint64
	LatencySum sim.Time
	MaxLatency sim.Time

	// trackers and packets are the free lists. A tracker returns when its
	// operation finishes; a packet returns in its delivery handler, the
	// packet's last holder under the core.DeliverHandler contract.
	trackers sim.Pool[tracker]
	packets  sim.Pool[core.Packet]
}

// NewEngine returns a coherence engine bound to the network.
func NewEngine(eng *sim.Engine, p core.Params, net core.Network) *Engine {
	sites := p.Grid.Sites()
	e := &Engine{eng: eng, p: p, net: net,
		mshrFree: make([]int, sites), waiting: make([][]*tracker, sites)}
	for s := range e.mshrFree {
		e.mshrFree[s] = p.MSHRsPerSite
	}
	return e
}

// SetMemory attaches an off-package memory backend. Home sites consult it
// whenever they must supply data that no cache owns.
func (e *Engine) SetMemory(m MemoryBackend) { e.mem = m }

// Issue starts an operation, queueing for an MSHR if none is free.
func (e *Engine) Issue(op Op) {
	t := e.track(op)
	s := int(op.Requester)
	if e.mshrFree[s] > 0 {
		e.mshrFree[s]--
		e.start(t)
		return
	}
	e.waiting[s] = append(e.waiting[s], t)
}

// OutstandingAt reports the used MSHRs at a site (tests).
func (e *Engine) OutstandingAt(s geometry.SiteID) int {
	return e.p.MSHRsPerSite - e.mshrFree[s]
}

// QueuedAt reports operations waiting for an MSHR at a site (tests).
func (e *Engine) QueuedAt(s geometry.SiteID) int { return len(e.waiting[s]) }

// MeanLatency returns the average latency per completed coherence operation
// (figure 8's y-axis).
func (e *Engine) MeanLatency() sim.Time {
	if e.Completed == 0 {
		return 0
	}
	return e.LatencySum / sim.Time(e.Completed)
}

// tracker follows one operation's outstanding responses: pending counts the
// data reply plus, for an invalidating write, one ack per sharer, and the
// last arrival finishes the operation.
//
// The tracker carries its engine so the per-packet delivery handlers
// (reqArrival, dataDone — pointer conversions of the tracker itself) reach
// protocol state without capturing anything. Trackers are recycled, and
// each keeps its sharers slice across operations, so the whole chain
// allocates nothing once the free lists have grown to the peak load.
type tracker struct {
	e       *Engine
	op      Op // Sharers is nil: the sites are in sharers
	issued  sim.Time
	pending int
	// sharers holds one ackChain per sharer site: the invalidate→ack leg an
	// invalidating write runs through it. A dirty-owner forward reads only
	// sharers[0].sh, the owner.
	sharers []ackChain
}

// track loads op into a tracker from the free list, or a new one, copying
// the sharer sites into the tracker's own slice.
func (e *Engine) track(op Op) *tracker {
	t := e.trackers.Get()
	t.e = e
	t.sharers = slices.Grow(t.sharers[:0], len(op.Sharers))
	for _, sh := range op.Sharers {
		t.sharers = append(t.sharers, ackChain{t: t, sh: sh})
	}
	op.Sharers = nil
	t.op = op
	return t
}

// arrive retires one response; the last one finishes the operation.
func (t *tracker) arrive(at sim.Time) {
	t.pending--
	if t.pending == 0 {
		t.e.finish(t, at)
	}
}

// start launches the request→lookup→response chain. The request packet's
// delivery handler is the tracker itself (pointer-shaped).
func (e *Engine) start(t *tracker) {
	if t.op.OnIssued != nil {
		t.op.OnIssued()
	}
	t.issued = e.eng.Now()
	t.pending = 1
	if t.op.Write {
		t.pending += len(t.sharers)
	}
	e.send(t.op.Requester, t.op.Home, e.p.CtrlMsgBytes, core.ClassRequest, (*reqArrival)(t))
}

// reqArrival fires when the request reaches the home site: it schedules the
// directory lookup, with the tracker riding the event arg so the per-request
// lookup delay schedules no closure either.
type reqArrival tracker

func (h *reqArrival) OnDeliver(p *core.Packet, _ sim.Time) {
	t := (*tracker)(h)
	e := t.e
	e.packets.Put(p)
	e.eng.ScheduleCall(e.p.Cycles(e.p.DirectoryLookupCycles), (*lookupH)(e), sim.EventArg{Ptr: t})
}

// dataDone fires when the operation's data reply lands at the requester.
type dataDone tracker

func (h *dataDone) OnDeliver(p *core.Packet, at sim.Time) {
	t := (*tracker)(h)
	t.e.packets.Put(p)
	t.arrive(at)
}

// fwdArrival fires when a dirty-owner intervention reaches the owner, which
// then supplies the data directly to the requester.
type fwdArrival tracker

func (h *fwdArrival) OnDeliver(p *core.Packet, _ sim.Time) {
	t := (*tracker)(h)
	t.e.packets.Put(p)
	t.e.send(t.sharers[0].sh, t.op.Requester, t.e.p.DataMsgBytes, core.ClassData, (*dataDone)(t))
}

// ackChain carries one sharer's invalidate→ack leg: invArrival fires at the
// sharer (inject the ack), ackArrival fires at the requester (count it).
// Both handler shapes are free pointer conversions of an element of the
// tracker's sharers slice, which keeps its capacity across operations.
type ackChain struct {
	t  *tracker
	sh geometry.SiteID // the sharer site
}

type invArrival ackChain

func (h *invArrival) OnDeliver(p *core.Packet, _ sim.Time) {
	c := (*ackChain)(h)
	e := c.t.e
	e.packets.Put(p)
	e.send(c.sh, c.t.op.Requester, e.p.CtrlMsgBytes, core.ClassAck, (*ackArrival)(c))
}

type ackArrival ackChain

func (h *ackArrival) OnDeliver(p *core.Packet, at sim.Time) {
	c := (*ackChain)(h)
	c.t.e.packets.Put(p)
	c.t.arrive(at)
}

// lookupH fires when the home's directory lookup completes for the tracker
// in arg.Ptr: a named pointer type over Engine, keeping the per-operation
// event chain closure-free.
type lookupH Engine

func (h *lookupH) OnEvent(_ *sim.Engine, arg sim.EventArg) {
	(*Engine)(h).homeAction(arg.Ptr.(*tracker))
}

// fetchedH sends the home's data reply for the tracker in arg.Ptr once the
// memory backend has the data.
type fetchedH Engine

func (h *fetchedH) OnEvent(_ *sim.Engine, arg sim.EventArg) {
	(*Engine)(h).sendHomeData(arg.Ptr.(*tracker))
}

// finish records a completed operation the moment its last response lands,
// then returns its tracker to the free list.
func (e *Engine) finish(t *tracker, at sim.Time) {
	lat := at - t.issued
	e.Completed++
	e.LatencySum += lat
	if lat > e.MaxLatency {
		e.MaxLatency = lat
	}
	e.releaseMSHR(int(t.op.Requester))
	if t.op.OnComplete != nil {
		t.op.OnComplete(lat)
	}
	e.trackers.Put(t)
}

// homeAction emits the directory's response messages. Every response packet
// carries a pointer-shaped delivery handler over the tracker (or one of its
// ackChains), so the whole response fan-out allocates no closures.
func (e *Engine) homeAction(t *tracker) {
	op := &t.op
	switch {
	case len(t.sharers) == 0:
		// Unshared: the home supplies data — from its on-package memory,
		// or after an off-package fetch when a memory backend is attached.
		if e.mem != nil {
			e.mem.Access(int(op.Home), e.p.DataMsgBytes, (*fetchedH)(e), sim.EventArg{Ptr: t})
		} else {
			e.sendHomeData(t)
		}
	case !op.Write:
		// Dirty owner: forward the intervention; the owner supplies data.
		e.send(op.Home, t.sharers[0].sh, e.p.CtrlMsgBytes, core.ClassInvalidate, (*fwdArrival)(t))
	default:
		// Write to shared data: data from home plus invalidations fanned
		// out to every sharer, each acknowledged to the requester.
		e.sendHomeData(t)
		for i := range t.sharers {
			c := &t.sharers[i]
			e.send(op.Home, c.sh, e.p.CtrlMsgBytes, core.ClassInvalidate, (*invArrival)(c))
		}
	}
}

// sendHomeData injects the home→requester data reply.
func (e *Engine) sendHomeData(t *tracker) {
	e.send(t.op.Home, t.op.Requester, e.p.DataMsgBytes, core.ClassData, (*dataDone)(t))
}

// send injects one protocol message in a packet from the free list, or a
// new one.
func (e *Engine) send(src, dst geometry.SiteID, bytes int, class core.MsgClass, h core.DeliverHandler) {
	p := e.packets.Get()
	*p = core.Packet{Src: src, Dst: dst, Bytes: bytes, Class: class, Deliver: h}
	e.net.Inject(p)
}

// Writeback sends a fire-and-forget dirty-eviction data message to the
// evicted line's home site. It consumes no MSHR: victim writebacks drain
// through a dedicated buffer in the L2 (the usual design), so only the
// network bandwidth is charged.
func (e *Engine) Writeback(from, home geometry.SiteID) {
	e.net.Inject(&core.Packet{
		Src: from, Dst: home,
		Bytes: e.p.DataMsgBytes, Class: core.ClassData,
	})
}

// releaseMSHR hands a freed MSHR to the oldest waiting operation at site s,
// or frees it. The queue shifts down in place, so it never reallocates; it
// is short (the CPU model queues at most one operation per core).
func (e *Engine) releaseMSHR(s int) {
	q := e.waiting[s]
	if len(q) == 0 {
		e.mshrFree[s]++
		return
	}
	next := q[0]
	copy(q, q[1:])
	q[len(q)-1] = nil
	e.waiting[s] = q[:len(q)-1]
	e.start(next)
}
