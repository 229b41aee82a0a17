package sim

import (
	"fmt"
	"math/bits"
)

// Handler is what an event runs: models implement OnEvent on a (usually
// pointer-shaped) type and schedule it with ScheduleCall, passing per-event
// state through the EventArg instead of capturing it in a closure.
// Converting a pointer to a Handler allocates nothing, so steady-state
// ScheduleCall dispatch runs allocation-free (pinned by a benchmark guard).
//
// Contract: OnEvent runs exactly once, at the event's timestamp, inside the
// engine's single dispatch thread. A handler must not retain arg.Ptr past
// the call unless it owns the pointed-to value (for delivery events the
// packet is handed over and may be reused or dropped afterwards).
type Handler interface {
	OnEvent(e *Engine, arg EventArg)
}

// EventArg carries an event's payload without a closure: one pointer slot
// (typically a *core.Packet) and two scalar slots for small state such as a
// site index, a deadline, or a generation counter. Storing a pointer in Ptr
// does not allocate; storing non-pointer values may, so scalars belong in
// A/B.
type EventArg struct {
	Ptr  any
	A, B uint64
}

// Queue key packing: a key's id holds the event's sequence number in the
// high seqBits and its payload slot in the low slotBits. Comparing ids
// compares sequence numbers first, and those are unique, so ordering keys
// by (at, id) is exactly the (time, seq) dispatch order.
const (
	slotBits = 28
	seqBits  = 64 - slotBits
	slotMask = 1<<slotBits - 1
)

// key is one queue entry. It holds no pointers, so bucket arrays are
// allocated without pointer bitmaps: the garbage collector never scans them
// and moving keys costs no write barriers.
type key struct {
	at Time
	id uint64
}

// less reports whether a dispatches ahead of b. It compares (at, id) as one
// 128-bit unsigned number — at is never negative — with a borrow chain
// rather than a branch on at.
func (a key) less(b key) bool {
	_, borrow := bits.Sub64(a.id, b.id, 0)
	_, borrow = bits.Sub64(uint64(a.at), uint64(b.at), borrow)
	return borrow != 0
}

// numBuckets covers every 128-bit key: bucket 1+i holds the keys whose
// highest bit differing from the last dispatched key is bit i, and bucket 0
// (a key equal to the last one) stays empty because keys are unique.
const numBuckets = 129

// bucket returns k's radix-heap bucket relative to last.
func bucket(k, last key) int {
	if d := uint64(k.at ^ last.at); d != 0 {
		return 64 + bits.Len64(d)
	}
	return bits.Len64(k.id ^ last.id)
}

// packID combines a sequence number and a slab slot into a key id. A value
// that does not fit its field panics: wrapping would silently reorder
// dispatch.
func packID(seq, slot uint64) uint64 {
	if seq>>seqBits|slot>>slotBits != 0 {
		panic(fmt.Sprintf("sim: event queue overflow (seq %d, slot %d; limits %d events per engine, %d pending)",
			seq, slot, uint64(1)<<seqBits-1, uint64(1)<<slotBits))
	}
	return seq<<slotBits | slot
}

// payload is what an event runs. It stays at one slab slot from push to
// dispatch while its key moves between buckets.
type payload struct {
	h   Handler
	arg EventArg
}

// Engine is a single-threaded discrete-event simulator. The zero value is
// not usable; create one with NewEngine.
//
// The engine is deliberately minimal: models schedule handlers through
// ScheduleCall, the one entry point, and the engine runs them in (time,
// sequence) order and exposes the current simulated time. There is no process
// abstraction — every model in this repository is written in event-handler
// style, which keeps runs fast and deterministic.
//
// The queue is a radix heap (Ahuja, Mehlhorn, Orlin and Tarjan, JACM 1990)
// of 16-byte pointer-free keys over a slab of payloads (handler and argument)
// with a free-slot stack. It rests on one invariant: every queued key is
// greater than last, the key most recently dispatched. ScheduleCall refuses a
// negative delay and one that overflows the time axis, sequence numbers
// strictly increase, and RunUntil only moves now forward, so no push can
// break it. A key waits in the bucket numbered one
// plus the highest bit in which it differs from last, and a 3-word mask marks
// the non-empty buckets. A push appends to one bucket. A dispatch takes the
// minimum of the lowest non-empty bucket, makes it last, and refiles that
// bucket's other keys into lower buckets, so a key moves at most 128 times
// however long it waits. A payload is written once on push and zeroed once on
// dispatch. Buckets keep their capacity across dispatches, so the
// steady-state schedule/dispatch cycle allocates nothing.
type Engine struct {
	now     Time
	seq     uint64
	last    key
	pending int
	mask    [(numBuckets + 63) / 64]uint64
	buckets [numBuckets][]key
	slab    []payload
	free    []uint32 // vacated slab slots, reused last-in first-out
	// executed counts events dispatched since construction; useful both in
	// tests and for reporting simulation effort.
	executed uint64
	// hook, when set, observes every dispatched event (after the clock
	// advances, before the callback runs). It exists for the observability
	// layer (event-rate tracing); a nil hook costs one predictable branch
	// per dispatch and no allocation.
	hook func(at Time)
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of events waiting to run.
func (e *Engine) Pending() int { return e.pending }

// Executed returns the number of events dispatched so far.
func (e *Engine) Executed() uint64 { return e.executed }

// ScheduleCall runs h.OnEvent(e, arg) after delay; an event at an absolute
// time t is scheduled with delay t-Now(). A negative delay panics, because
// the kernel never travels backwards in time, and so does a delay that
// overflows the time axis, which would otherwise wrap negative.
func (e *Engine) ScheduleCall(delay Duration, h Handler, arg EventArg) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	t := e.now + delay
	if t < e.now {
		panic(fmt.Sprintf("sim: delay %d ps overflows the time axis (now %v)", int64(delay), e.now))
	}
	var slot uint64
	if n := len(e.free); n > 0 {
		slot = uint64(e.free[n-1])
		e.free = e.free[:n-1]
	} else {
		slot = uint64(len(e.slab))
		e.slab = append(e.slab, payload{})
	}
	// Field-wise stores take the inline write barrier for each pointer; a
	// whole-struct store would take the slower bulk barrier.
	p := &e.slab[slot]
	p.h, p.arg = h, arg
	e.seq++
	e.file(key{at: t, id: packID(e.seq, slot)})
	e.pending++
}

// file appends k to its bucket relative to last.
func (e *Engine) file(k key) {
	b := bucket(k, e.last)
	e.buckets[b] = append(e.buckets[b], k)
	e.mask[b/64] |= 1 << (b % 64)
}

// head locates the minimum key: its bucket, the lowest non-empty one, and
// its index there. The queue must not be empty.
func (e *Engine) head() (b, i int) {
	w := 0
	for e.mask[w] == 0 {
		w++
	}
	b = 64*w + bits.TrailingZeros64(e.mask[w])
	ks := e.buckets[b]
	for j := 1; j < len(ks); j++ {
		if ks[j].less(ks[i]) {
			i = j
		}
	}
	return b, i
}

// popMin removes key i of bucket b, the minimum found by head, and makes it
// last. The bucket's other keys agree with it above their bucket's bit, so
// each refiles into a lower bucket. It frees the key's slab slot and
// returns its time and payload.
func (e *Engine) popMin(b, i int) (Time, Handler, EventArg) {
	ks := e.buckets[b]
	min := ks[i]
	e.last = min
	e.pending--
	e.buckets[b] = ks[:0]
	e.mask[b/64] &^= 1 << (b % 64)
	for j, k := range ks {
		if j != i {
			e.file(k)
		}
	}
	slot := min.id & slotMask
	p := &e.slab[slot]
	h, arg := p.h, p.arg
	// Zero the vacated slot so its handler and argument pointers do not pin
	// dead objects until the slot is reused.
	p.h, p.arg = nil, EventArg{}
	e.free = append(e.free, uint32(slot))
	return min.at, h, arg
}

// SetDispatchHook installs (or, with nil, removes) an observer invoked for
// every dispatched event at its timestamp. The hook must not schedule or
// otherwise drive the engine — it is a read-only probe; the observability
// layer uses it to trace simulation effort over time.
func (e *Engine) SetDispatchHook(fn func(at Time)) { e.hook = fn }

// Run executes events until the queue is empty. It returns the time of the
// last executed event (or the current time if none ran).
func (e *Engine) Run() Time {
	for e.pending > 0 {
		e.step(e.head())
	}
	return e.now
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline (if the deadline is in the future) and returns. The
// loop peeks the minimum before dispatching it, so an event scheduled past
// the deadline stays queued untouched and last stays at or before now.
func (e *Engine) RunUntil(deadline Time) Time {
	for e.pending > 0 {
		b, i := e.head()
		if e.buckets[b][i].at > deadline {
			break
		}
		e.step(b, i)
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

func (e *Engine) step(b, i int) {
	at, h, arg := e.popMin(b, i)
	e.now = at
	e.executed++
	if e.hook != nil {
		e.hook(e.now)
	}
	h.OnEvent(e, arg)
}
