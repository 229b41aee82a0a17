package sim

import (
	"math/rand"
	"sort"
	"strconv"
	"testing"
)

// --- (time, seq) dispatch-order property ---------------------------------

// refEvent is the sort-based reference model: the queue must dispatch any
// schedule in exactly ascending (time, seq) order.
type refEvent struct {
	at  Time
	seq int
}

// TestQueueDispatchOrderProperty drives randomized schedules — duplicate
// timestamps included — through the engine and checks the dispatch sequence
// against a stable sort on (time, insertion order). Roughly half the events
// also schedule a follow-up from inside their own dispatch, covering the
// schedule-during-dispatch path where pushes interleave with the bucket
// refiling of pops.
func TestQueueDispatchOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		e := NewEngine()
		var want []refEvent
		var got []refEvent
		seq := 0
		// record returns the callback for reference event id, optionally
		// scheduling a child event when it runs.
		var add func(at Time, nested bool)
		add = func(at Time, nested bool) {
			id := seq
			seq++
			want = append(want, refEvent{at: at, seq: id})
			e.ScheduleCall(at-e.Now(), call(func() {
				got = append(got, refEvent{at: e.Now(), seq: id})
				if nested {
					// Child at a delay drawn from the same small range so
					// it collides with already-queued timestamps.
					add(e.Now()+Time(rng.Intn(4)), false)
				}
			}), EventArg{})
		}
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			// Small timestamp range forces many exact ties.
			add(Time(rng.Intn(8)), rng.Intn(2) == 0)
		}
		e.Run()
		// The engine assigns seq in ScheduleCall order, and nested adds
		// happen in dispatch order, so insertion order in `want` matches
		// engine sequence order. Stable-sort by time only: ties stay in
		// insertion order, which is exactly the (time, seq) contract.
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if len(got) != len(want) {
			t.Fatalf("trial %d: dispatched %d events, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: dispatch[%d] = %+v, want %+v (full got=%v want=%v)",
					trial, i, got[i], want[i], got, want)
			}
		}
	}
	t.Run("300K-pending", testDispatchOrderAtSweepScale)
	t.Run("wide-keys", testDispatchOrderWideKeys)
}

// orderProbe schedules events whose arguments name them — A is the event's
// id, B its complement, Ptr its own cell — and records every dispatch, so a
// payload delivered from the wrong or a stale slab slot shows up as a wrong
// id or a mismatched argument.
type orderProbe struct {
	rng   *rand.Rand
	cells []int // Ptr targets, one per event id
	want  []refEvent
	got   []refEvent
	bad   int                   // dispatches whose argument fields disagree
	spawn int                   // children still to schedule from inside dispatches
	delay func(*rand.Rand) Time // a child's delay after its parent
}

func (p *orderProbe) add(e *Engine, at Time) {
	id := len(p.want)
	p.want = append(p.want, refEvent{at: at, seq: id})
	e.ScheduleCall(at-e.Now(), p, EventArg{Ptr: &p.cells[id], A: uint64(id), B: ^uint64(id)})
}

func (p *orderProbe) OnEvent(e *Engine, arg EventArg) {
	id := int(arg.A)
	if id >= len(p.want) || arg.B != ^arg.A || arg.Ptr != any(&p.cells[id]) {
		p.bad++
	}
	p.got = append(p.got, refEvent{at: e.Now(), seq: id})
	if p.spawn > 0 && p.rng.Intn(2) == 0 {
		// A child scheduled from inside a dispatch takes the slot that
		// dispatch just freed.
		p.spawn--
		p.add(e, e.Now()+p.delay(p.rng))
	}
}

// testDispatchOrderAtSweepScale repeats the dispatch-order property at the
// queue sizes saturated figure-6 points build: 300,000 pending events with
// heavy timestamp ties, then pops interleaved with pushes from inside
// dispatches and from outside between RunUntil windows, so slab slots are
// freed and reused throughout. Every dispatch must come in (time, seq)
// order and carry its own argument.
func testDispatchOrderAtSweepScale(t *testing.T) {
	const pending = 300_000
	const spawn = 200_000
	const outside = 100_000
	e := NewEngine()
	p := &orderProbe{rng: rand.New(rand.NewSource(2)), cells: make([]int, pending+spawn+outside), spawn: spawn,
		delay: func(r *rand.Rand) Time { return Time(r.Intn(64)) }}
	for i := 0; i < pending; i++ {
		p.add(e, Time(p.rng.Intn(1<<18)))
	}
	if e.Pending() != pending {
		t.Fatalf("Pending = %d, want %d", e.Pending(), pending)
	}
	for left := outside; left > 0; left -= 1000 {
		e.RunUntil(e.Now() + 512)
		for i := 0; i < 1000; i++ {
			p.add(e, e.Now()+Time(p.rng.Intn(1<<12)))
		}
	}
	e.Run()
	if p.bad != 0 {
		t.Fatalf("%d dispatches carried another event's argument", p.bad)
	}
	if len(e.slab) >= len(p.want) {
		t.Fatalf("slab grew to %d slots for %d events: freed slots were never reused", len(e.slab), len(p.want))
	}
	sort.SliceStable(p.want, func(i, j int) bool { return p.want[i].at < p.want[j].at })
	if len(p.got) != len(p.want) {
		t.Fatalf("dispatched %d events, want %d", len(p.got), len(p.want))
	}
	for i := range p.want {
		if p.got[i] != p.want[i] {
			t.Fatalf("dispatch[%d] = %+v, want %+v", i, p.got[i], p.want[i])
		}
	}
}

// testDispatchOrderWideKeys repeats the dispatch-order property over the
// radix heap's whole key range: delays of every magnitude up to 2^61 ps, so
// keys land in buckets for every bit of at; long runs of equal at, which
// order by sequence number alone; and RunUntil deadlines chosen inside the
// lowest non-empty bucket, so each window stops with that bucket's keys on
// both sides of the deadline and the next pushes are filed against a last
// key from the middle of a bucket.
func testDispatchOrderWideKeys(t *testing.T) {
	const initial, outside, spawn = 30_000, 20_000, 10_000
	e := NewEngine()
	p := &orderProbe{rng: rand.New(rand.NewSource(3)), cells: make([]int, initial+outside+spawn), spawn: spawn, delay: wideDelay}
	schedule := func(n int) {
		for n > 0 {
			at := e.Now() + wideDelay(p.rng)
			run := 1 + p.rng.Intn(8)
			if p.rng.Intn(16) == 0 {
				run = 1 + p.rng.Intn(2000)
			}
			for ; run > 0 && n > 0; run-- {
				p.add(e, at)
				n--
			}
		}
	}
	schedule(initial)
	left := outside
	for window := 0; e.Pending() > 0; window++ {
		if window%64 == 0 {
			checkQueue(t, e)
		}
		b, _ := e.head()
		lo, hi := e.buckets[b][0].at, e.buckets[b][0].at
		for _, k := range e.buckets[b] {
			lo, hi = min(lo, k.at), max(hi, k.at)
		}
		deadline := lo + (hi-lo)/2
		e.RunUntil(deadline)
		if n := len(p.got); n == 0 || p.got[n-1].at > deadline {
			t.Fatalf("window %d: RunUntil(%d) dispatched through %+v", window, deadline, p.got[max(n-1, 0):])
		}
		if e.Pending() > 0 {
			if b, i := e.head(); e.buckets[b][i].at <= deadline {
				t.Fatalf("window %d: RunUntil(%d) left %+v queued", window, deadline, e.buckets[b][i])
			}
		}
		if left > 0 {
			schedule(min(left, 500))
			left -= 500
		}
	}
	if p.bad != 0 {
		t.Fatalf("%d dispatches carried another event's argument", p.bad)
	}
	sort.SliceStable(p.want, func(i, j int) bool { return p.want[i].at < p.want[j].at })
	if len(p.got) != len(p.want) {
		t.Fatalf("dispatched %d events, want %d", len(p.got), len(p.want))
	}
	for i := range p.want {
		if p.got[i] != p.want[i] {
			t.Fatalf("dispatch[%d] = %+v, want %+v", i, p.got[i], p.want[i])
		}
	}
}

// wideDelay draws a delay below 2^k ps for k uniform over 0..61 (k = 0
// gives zero), so delays of every magnitude are equally common.
func wideDelay(r *rand.Rand) Time { return Time(r.Int63n(1 << r.Intn(62))) }

// checkQueue verifies the radix-heap invariant: every queued key exceeds
// last and sits in the bucket its highest bit differing from last names,
// the mask marks exactly the non-empty buckets, and the buckets hold
// Pending keys.
func checkQueue(t *testing.T, e *Engine) {
	t.Helper()
	n := 0
	for b, ks := range e.buckets {
		if marked := e.mask[b/64]>>(b%64)&1 == 1; marked != (len(ks) > 0) {
			t.Fatalf("bucket %d holds %d keys but its mask bit is %v", b, len(ks), marked)
		}
		for _, k := range ks {
			if !e.last.less(k) || bucket(k, e.last) != b {
				t.Fatalf("key %+v in bucket %d (last %+v): want a key above last, in bucket %d", k, b, e.last, bucket(k, e.last))
			}
		}
		n += len(ks)
	}
	if n != e.Pending() {
		t.Fatalf("buckets hold %d keys, Pending = %d", n, e.Pending())
	}
}

// TestEventQueueOverflowPanics: a sequence number or slab slot that does not
// fit its field of the packed key must panic rather than wrap, because a
// wrapped key would dispatch out of (time, seq) order.
func TestEventQueueOverflowPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	const maxSeq = 1<<seqBits - 1
	if id := packID(maxSeq, slotMask); id>>slotBits != maxSeq || id&slotMask != slotMask {
		t.Fatalf("packID(max, max) = %#x does not round-trip", id)
	}
	mustPanic("seq overflow", func() { packID(maxSeq+1, 0) })
	mustPanic("slot overflow", func() { packID(1, slotMask+1) })

	// Wired through scheduling: the last sequence number still dispatches,
	// the one after it panics.
	e := NewEngine()
	e.seq = maxSeq - 1
	var h countHandler
	e.ScheduleCall(1, &h, EventArg{})
	e.Run()
	if h != 1 {
		t.Fatalf("event with the last sequence number ran %d times, want 1", h)
	}
	mustPanic("scheduling past the last sequence number", func() { e.ScheduleCall(1, &h, EventArg{}) })
}

// --- RunUntil peek contract ----------------------------------------------

func TestRunUntilEmptyQueue(t *testing.T) {
	// Peeking an empty queue must not panic, and the clock must advance to
	// the deadline.
	e := NewEngine()
	if end := e.RunUntil(100); end != 100 || e.Now() != 100 {
		t.Fatalf("RunUntil(100) on empty queue = %v (Now %v), want 100", end, e.Now())
	}
	// A second call with an earlier deadline is a no-op.
	if end := e.RunUntil(50); end != 100 {
		t.Fatalf("RunUntil(50) after advancing to 100 = %v, want 100", end)
	}
}

func TestRunUntilLeavesFutureEventsQueued(t *testing.T) {
	// The head peek must stop the loop at the first event past the deadline
	// without popping it.
	e := NewEngine()
	ran := 0
	e.ScheduleCall(10, call(func() { ran++ }), EventArg{})
	e.ScheduleCall(200, call(func() { ran++ }), EventArg{})
	e.RunUntil(100)
	if ran != 1 || e.Pending() != 1 {
		t.Fatalf("ran=%d pending=%d after RunUntil(100), want 1/1", ran, e.Pending())
	}
	if b, i := e.head(); e.buckets[b][i].at != 200 {
		t.Fatalf("queue head at %v, want 200 (future event must stay queued)", e.buckets[b][i].at)
	}
	e.RunUntil(300)
	if ran != 2 || e.Pending() != 0 {
		t.Fatalf("ran=%d pending=%d after RunUntil(300), want 2/0", ran, e.Pending())
	}
}

// --- ScheduleCall ----------------------------------------------------------

type recordingHandler struct {
	calls []EventArg
	times []Time
}

func (h *recordingHandler) OnEvent(e *Engine, arg EventArg) {
	h.calls = append(h.calls, arg)
	h.times = append(h.times, e.Now())
}

func TestScheduleCallDelivery(t *testing.T) {
	e := NewEngine()
	h := &recordingHandler{}
	payload := &struct{ v int }{v: 7}
	e.ScheduleCall(5, h, EventArg{Ptr: payload, A: 42, B: 99})
	e.Run()
	if len(h.calls) != 1 {
		t.Fatalf("handler ran %d times, want 1", len(h.calls))
	}
	got := h.calls[0]
	if got.Ptr != payload || got.A != 42 || got.B != 99 {
		t.Fatalf("arg = %+v, want Ptr=payload A=42 B=99", got)
	}
	if h.times[0] != 5 {
		t.Fatalf("handler ran at %v, want 5", h.times[0])
	}
}

func TestScheduleCallNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleCall(-1) did not panic")
		}
	}()
	NewEngine().ScheduleCall(-1, new(countHandler), EventArg{})
}

// countHandler is pointer-shaped: converting it to Handler never allocates,
// which is what keeps the steady-state ScheduleCall cycle at 0 allocs/op.
type countHandler uint64

func (h *countHandler) OnEvent(*Engine, EventArg) { *h++ }

func TestScheduleCallAllocationFree(t *testing.T) {
	e := NewEngine()
	var h countHandler
	payload := &struct{ v int }{}
	burst := func() {
		for i := 0; i < 8; i++ {
			e.ScheduleCall(Time(i), &h, EventArg{Ptr: payload, A: uint64(i)})
		}
		e.Run()
	}
	burst() // prime the queue capacity
	if allocs := testing.AllocsPerRun(100, burst); allocs > 0 {
		t.Fatalf("ScheduleCall burst allocated %.1f per iteration, want 0", allocs)
	}
	if h == 0 {
		t.Fatal("handler never fired")
	}
}

// BenchmarkEngineScheduleCall measures the steady-state schedule/dispatch
// cycle on a primed engine; it must report 0 allocs/op (the perf-guard
// companion to TestScheduleCallAllocationFree).
func BenchmarkEngineScheduleCall(b *testing.B) {
	e := NewEngine()
	var h countHandler
	for i := 0; i < 64; i++ {
		e.ScheduleCall(Time(i), &h, EventArg{})
	}
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleCall(Time(i%17), &h, EventArg{A: uint64(i)})
		if i%64 == 63 {
			e.Run()
		}
	}
	e.Run()
}

// holdHandler keeps the queue at a fixed size: every dispatch schedules one
// successor a pseudo-random delay ahead (the classic hold model).
type holdHandler struct {
	x    uint64 // xorshift state
	mean uint64 // mean delay, ps
}

func (h *holdHandler) OnEvent(e *Engine, arg EventArg) {
	h.x ^= h.x << 13
	h.x ^= h.x >> 7
	h.x ^= h.x << 17
	e.ScheduleCall(Duration(1+h.x%(2*h.mean)), h, arg)
}

// BenchmarkEngineHold times the kernel alone — ScheduleCall plus dispatch
// through RunUntil — with the queue held at the pending-event counts a
// traced figure-6 quick sweep (seed 1) measures: 975 at its median sample
// and 278,545 at its 99th percentile. One op is one dispatched event.
func BenchmarkEngineHold(b *testing.B) {
	for _, size := range []int{975, 278545} {
		b.Run(strconv.Itoa(size), func(b *testing.B) {
			const mean = 1000
			e := NewEngine()
			h := &holdHandler{x: 0x9e3779b97f4a7c15, mean: mean}
			for i := 0; i < size; i++ {
				h.OnEvent(e, EventArg{})
			}
			// Each RunUntil advances the clock by about 64 events' worth.
			step := Time(max(1, 64*mean/size))
			b.ReportAllocs()
			b.ResetTimer()
			for e.Executed() < uint64(b.N) {
				e.RunUntil(e.Now() + step)
			}
		})
	}
}
