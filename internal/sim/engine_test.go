package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// call adapts a test closure to Handler.
type call func()

func (f call) OnEvent(*Engine, EventArg) { f() }

func TestTimeUnits(t *testing.T) {
	if Nanosecond != 1000 {
		t.Fatalf("Nanosecond = %d, want 1000", int64(Nanosecond))
	}
	if Microsecond != 1000*Nanosecond || Millisecond != 1000*Microsecond || Second != 1000*Millisecond {
		t.Fatal("unit ladder broken")
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{12800 * Picosecond, "12.800ns"},
		{1500 * Nanosecond, "1.500us"},
		{2500 * Microsecond, "2.500ms"},
		{3 * Second, "3.000s"},
		{-500 * Picosecond, "-500ps"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestFromNanoseconds(t *testing.T) {
	if got := FromNanoseconds(12.8); got != 12800*Picosecond {
		t.Errorf("FromNanoseconds(12.8) = %d, want 12800", int64(got))
	}
	if got := FromNanoseconds(-1.0); got != -1000 {
		t.Errorf("FromNanoseconds(-1) = %d, want -1000", int64(got))
	}
	if got := FromSeconds(1e-9); got != Nanosecond {
		t.Errorf("FromSeconds(1ns) = %d, want %d", int64(got), int64(Nanosecond))
	}
}

func TestNanosecondsRoundTrip(t *testing.T) {
	f := func(ns uint32) bool {
		tm := Time(ns) * Nanosecond
		return FromNanoseconds(tm.Nanoseconds()) == tm
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.ScheduleCall(30, call(func() { order = append(order, 3) }), EventArg{})
	e.ScheduleCall(10, call(func() { order = append(order, 1) }), EventArg{})
	e.ScheduleCall(20, call(func() { order = append(order, 2) }), EventArg{})
	// Same timestamp: insertion order must win.
	e.ScheduleCall(20, call(func() { order = append(order, 4) }), EventArg{})
	end := e.Run()
	if end != 30 {
		t.Fatalf("Run returned %v, want 30ps", end)
	}
	want := []int{1, 2, 4, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			e.ScheduleCall(5, call(tick), EventArg{})
		}
	}
	e.ScheduleCall(0, call(tick), EventArg{})
	e.Run()
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
	if e.Now() != 99*5 {
		t.Fatalf("Now = %v, want 495ps", e.Now())
	}
	if e.Executed() != 100 {
		t.Fatalf("Executed = %d, want 100", e.Executed())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, d := range []Time{10, 20, 30, 40} {
		d := d
		e.ScheduleCall(d, call(func() { fired = append(fired, d) }), EventArg{})
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %d events by t=25, want 2", len(fired))
	}
	if e.Now() != 25 {
		t.Fatalf("Now = %v, want 25ps", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("fired %d events total, want 4", len(fired))
	}
	if e.Now() != 100 {
		t.Fatalf("Now = %v, want 100ps", e.Now())
	}
}

func TestEngineQueueReusesCapacity(t *testing.T) {
	// White-box: dispatching must shrink the live queue without releasing
	// its bucket arrays or payload slab, every vacated payload slot must be
	// zeroed so it cannot pin dead handlers or arguments, and a freed slot
	// must be the next one reused.
	e := NewEngine()
	h := &recordingHandler{}
	e.ScheduleCall(0, call(func() {}), EventArg{})
	e.ScheduleCall(1, h, EventArg{Ptr: &struct{ v int }{}, A: 7, B: 9})
	e.ScheduleCall(2, call(func() {}), EventArg{})
	_, capacity := queuedKeys(e)
	e.RunUntil(1)
	keys, after := queuedKeys(e)
	if len(keys) != 1 || e.Pending() != 1 || len(e.slab) != 3 || len(e.free) != 2 {
		t.Fatalf("after 2 of 3 dispatches: %d keys (Pending %d), %d slab slots, %d free, want 1/1/3/2",
			len(keys), e.Pending(), len(e.slab), len(e.free))
	}
	if after < capacity {
		t.Fatalf("bucket capacity fell from %d to %d keys during dispatch, want it retained", capacity, after)
	}
	for _, slot := range e.free {
		if e.slab[slot] != (payload{}) {
			t.Fatalf("vacated payload slot %d = %+v, want zero", slot, e.slab[slot])
		}
	}
	if live := e.slab[keys[0].id&slotMask]; live.h == nil {
		t.Fatal("the pending event's payload slot is empty")
	}
	reuse := e.free[len(e.free)-1]
	e.ScheduleCall(5, h, EventArg{A: 11})
	keys, capacity = queuedKeys(e)
	newest := keys[0]
	for _, k := range keys {
		if newest.id < k.id {
			newest = k
		}
	}
	if got := newest.id & slotMask; len(e.slab) != 3 || got != uint64(reuse) {
		t.Fatalf("new event took slot %d of a %d-slot slab, want freed slot %d", got, len(e.slab), reuse)
	}
	e.Run()
	keys, after = queuedKeys(e)
	if len(keys) != 0 || e.Pending() != 0 || e.mask != [len(e.mask)]uint64{} {
		t.Fatalf("after Run: %d keys, Pending %d, mask %x, want an empty queue", len(keys), e.Pending(), e.mask)
	}
	if after < capacity || len(e.slab) != 3 || len(e.free) != 3 {
		t.Fatalf("after Run: bucket capacity %d (was %d), %d slab slots, %d free, want >= %d/3/3 (arrays retained)",
			after, capacity, len(e.slab), len(e.free), capacity)
	}
	for i, p := range e.slab {
		if p != (payload{}) {
			t.Fatalf("vacated payload slot %d = %+v, want zero", i, p)
		}
	}
}

// queuedKeys returns the keys waiting in e's buckets and the buckets' total
// capacity in keys.
func queuedKeys(e *Engine) (keys []key, capacity int) {
	for _, b := range e.buckets {
		keys = append(keys, b...)
		capacity += cap(b)
	}
	return keys, capacity
}

// TestEngineNegativeDelayPanics: once the clock has advanced, a delay that
// lands before now, though after time zero, must still panic — the kernel
// never travels backwards in time.
func TestEngineNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	e.ScheduleCall(100, new(countHandler), EventArg{})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleCall(-1) at 100 ps did not panic")
		}
	}()
	e.ScheduleCall(-1, new(countHandler), EventArg{})
}

// TestScheduleOverflowPanicsExplicitly is the regression test for the
// ScheduleCall overflow bug: a delay that wraps e.now+delay past MaxInt64
// used to surface as a misleading "schedule at -… before now" panic. It
// must name the overflow.
func TestScheduleOverflowPanicsExplicitly(t *testing.T) {
	e := NewEngine()
	// Advance the clock so now+MaxInt64 wraps.
	e.ScheduleCall(10, new(countHandler), EventArg{})
	e.Run()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("overflowing delay did not panic")
		}
		msg := fmt.Sprint(r)
		if want := "overflows the time axis"; !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not mention %q", msg, want)
		}
	}()
	e.ScheduleCall(Duration(math.MaxInt64), new(countHandler), EventArg{})
}

// The queue must stay consistent under arbitrary interleavings of schedule
// times: events always run in non-decreasing time order.
func TestEngineMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var seen []Time
		for _, d := range delays {
			e.ScheduleCall(Time(d), call(func() { seen = append(seen, e.Now()) }), EventArg{})
		}
		e.Run()
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same-seed streams diverged")
		}
	}
}

func TestRNGDeriveIndependence(t *testing.T) {
	// Derived streams with different labels must differ from each other and
	// from the parent.
	parent := NewRNG(7)
	c1 := parent.Derive(1)
	c2 := parent.Derive(2)
	same12, sameP := 0, 0
	p := NewRNG(7)
	for i := 0; i < 100; i++ {
		v1, v2 := c1.Int63(), c2.Int63()
		if v1 == v2 {
			same12++
		}
		if v1 == p.Int63() {
			sameP++
		}
	}
	if same12 > 2 || sameP > 2 {
		t.Fatalf("derived streams look correlated: same12=%d sameP=%d", same12, sameP)
	}
}

func TestRNGDerivePure(t *testing.T) {
	// Deriving must not perturb the parent stream: a parent that derived a
	// thousand children stays byte-identical to one that derived none, and
	// the derived seed depends only on (parent seed, label) — never on
	// derivation order or count.
	a, b := NewRNG(7), NewRNG(7)
	for label := int64(0); label < 1000; label++ {
		a.Derive(label)
	}
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("Derive consumed state from the parent stream")
		}
	}
	first := NewRNG(7).Derive(42).Seed()
	busy := NewRNG(7)
	busy.Int63()
	busy.Derive(1)
	busy.Derive(9)
	if got := busy.Derive(42).Seed(); got != first {
		t.Fatalf("Derive(42) seed depends on parent history: %d vs %d", got, first)
	}
}

func TestRNGDeriveGolden(t *testing.T) {
	// Pin the derivation scheme so it cannot drift silently: the harness's
	// seed schedules (and therefore every figure) depend on these values.
	got := []int64{
		NewRNG(1).Derive(0).Seed(),
		NewRNG(1).Derive(1).Seed(),
		NewRNG(2).Derive(0).Seed(),
		DeriveSeed(1),
		DeriveSeed(1, StringLabel("point-to-point"), StringLabel("uniform")),
	}
	for i := range got {
		if got[i] != deriveGolden[i] {
			t.Errorf("golden derivation %d = %d, want %d", i, got[i], deriveGolden[i])
		}
	}
}

// deriveGolden holds TestRNGDeriveGolden's pinned seeds; the source tests
// also draw from them.
var deriveGolden = []int64{
	6755974106381971767, // NewRNG(1).Derive(0)
	6800373970341813976, // NewRNG(1).Derive(1)
	7235116703822611636, // NewRNG(2).Derive(0)
	7266964230113668128, // DeriveSeed(1)
	8059924241067611892, // DeriveSeed(1, "point-to-point", "uniform")
}

func TestRNGExpDuration(t *testing.T) {
	g := NewRNG(1)
	const mean = 1000 * Picosecond
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		d := g.ExpDuration(mean)
		if d < 1 {
			t.Fatalf("ExpDuration returned %d < 1", int64(d))
		}
		sum += float64(d)
	}
	got := sum / n
	if got < 950 || got > 1050 {
		t.Fatalf("mean of ExpDuration = %.1f, want ~1000", got)
	}
}

// TestRNGExpDurationSaturates draws with a mean at the end of the time
// axis: a gap past MaxTime saturates there instead of wrapping negative and
// clamping to one picosecond.
func TestRNGExpDurationSaturates(t *testing.T) {
	g, ref := NewRNG(1), NewRNG(1)
	saturated := 0
	for i := 0; i < 100; i++ {
		d := g.ExpDuration(MaxTime)
		x := ref.r.ExpFloat64() * float64(MaxTime)
		switch {
		case x >= float64(MaxTime):
			saturated++
			if d != MaxTime {
				t.Fatalf("draw %d: gap %g ps = %d, want MaxTime", i, x, int64(d))
			}
		case math.Abs(float64(d)-x) > 1e-9*x:
			t.Fatalf("draw %d: gap %g ps = %d", i, x, int64(d))
		}
	}
	if saturated == 0 {
		t.Fatal("no draw reached MaxTime; the test checks nothing")
	}
}

func TestRNGBool(t *testing.T) {
	g := NewRNG(3)
	hits := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if g.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.27 || frac > 0.33 {
		t.Fatalf("Bool(0.3) frequency = %.3f", frac)
	}
}

// BenchmarkEngineScheduleRun times a fresh engine's warm-up: 1,000 events,
// one pending at a time, each scheduling the next, so every bucket grows
// its slice on first use.
func BenchmarkEngineScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		e.ScheduleCall(0, new(chainHandler), EventArg{})
		e.Run()
	}
}

// chainHandler schedules its next event until it has run 1,000 times.
type chainHandler int

func (h *chainHandler) OnEvent(e *Engine, _ EventArg) {
	*h++
	if *h < 1000 {
		e.ScheduleCall(Duration(*h%17), h, EventArg{})
	}
}
