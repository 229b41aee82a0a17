package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// FuzzEngineOrder decodes its input into a schedule and checks the engine
// against the stable-sort reference of TestQueueDispatchOrderProperty:
// events dispatch in (at, insertion order), each receives its own EventArg,
// Pending matches the reference count throughout, and RunUntil(d) stops with
// exactly the events at or before d dispatched.
//
// The input is a sequence of two-byte ops. The first byte's low two bits
// pick the op and its high six bits a magnitude m; the second byte v fills
// in the bits below the delay's leading bit (see fuzzDelay), so delays span
// every magnitude from zero to the time-axis limit:
//
//	0  schedule an event at now + delay
//	1  schedule an event that runs the next op from inside its dispatch
//	2  RunUntil(now + delay); from inside a dispatch, schedule instead
//	3  schedule a run of v%32+1 events at one timestamp
func FuzzEngineOrder(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		r := &fuzzRun{t: t, e: NewEngine(), prog: prog}
		for r.pc < len(r.prog) {
			r.step(false)
			r.checkPending()
		}
		r.e.Run()
		r.checkPending()
		sort.SliceStable(r.want, func(i, j int) bool { return r.want[i].at < r.want[j].at })
		if len(r.got) != len(r.want) {
			t.Fatalf("dispatched %d events, want %d", len(r.got), len(r.want))
		}
		for i := range r.want {
			if r.got[i] != r.want[i] {
				t.Fatalf("dispatch[%d] = %+v, want %+v", i, r.got[i], r.want[i])
			}
		}
	})
}

// fuzzRun interprets one FuzzEngineOrder input. It is the handler of plain
// events; fuzzNest is the handler of events that run an op when dispatched.
type fuzzRun struct {
	t    *testing.T
	e    *Engine
	prog []byte
	pc   int
	want []refEvent
	got  []refEvent
}

type fuzzNest fuzzRun

// fuzzDelay returns the delay for magnitude m and fill byte v: zero for
// m = 0, otherwise the m-bit number with its leading bit set and v in the
// eight bits below, clamped so now + delay stays on the time axis.
func fuzzDelay(now Time, m int, v byte) Time {
	if m == 0 {
		return 0
	}
	d := (1<<63 | uint64(v)<<55) >> (64 - m)
	return Time(min(d, uint64(math.MaxInt64-now)))
}

// step decodes and runs the op at pc.
func (r *fuzzRun) step(inside bool) {
	if r.pc >= len(r.prog) {
		return
	}
	op, v := r.prog[r.pc], byte(0)
	if r.pc+1 < len(r.prog) {
		v = r.prog[r.pc+1]
	}
	r.pc += 2
	now := r.e.Now()
	at := now + fuzzDelay(now, int(op>>2), v)
	switch op & 3 {
	case 0:
		r.add(at, r)
	case 1:
		r.add(at, (*fuzzNest)(r))
	case 2:
		if inside {
			r.add(at, r)
			return
		}
		r.e.RunUntil(at)
		ran := 0
		for _, w := range r.want {
			if w.at <= at {
				ran++
			}
		}
		if len(r.got) != ran {
			r.t.Fatalf("RunUntil(%d) dispatched %d events, want the %d at or before it", at, len(r.got), ran)
		}
	case 3:
		for i := 0; i <= int(v%32); i++ {
			r.add(at, r)
		}
	}
}

// add schedules reference event len(want) at at. Its argument names it:
// A is its id, B the complement, and Ptr a cell holding the id.
func (r *fuzzRun) add(at Time, h Handler) {
	id := len(r.want)
	r.want = append(r.want, refEvent{at: at, seq: id})
	cell := new(int)
	*cell = id
	r.e.ScheduleCall(at-r.e.Now(), h, EventArg{Ptr: cell, A: uint64(id), B: ^uint64(id)})
}

func (r *fuzzRun) OnEvent(e *Engine, arg EventArg) {
	cell, ok := arg.Ptr.(*int)
	if !ok || uint64(*cell) != arg.A || arg.B != ^arg.A {
		r.t.Fatalf("dispatch %d at %d carried a mismatched argument %+v", len(r.got), e.Now(), arg)
	}
	r.got = append(r.got, refEvent{at: e.Now(), seq: *cell})
	r.checkPending()
}

func (h *fuzzNest) OnEvent(e *Engine, arg EventArg) {
	r := (*fuzzRun)(h)
	r.OnEvent(e, arg)
	r.step(true)
}

func (r *fuzzRun) checkPending() {
	if want := len(r.want) - len(r.got); r.e.Pending() != want {
		r.t.Fatalf("Pending = %d after %d of %d events ran, want %d", r.e.Pending(), len(r.got), len(r.want), want)
	}
}

// fuzzSeeds encodes the property tests' shapes as FuzzEngineOrder inputs:
// small tied timestamps with nested children (TestQueueDispatchOrderProperty),
// a burst drained by RunUntil windows with pushes between them (the
// 300K-pending case, scaled down), and keys across the whole time axis with
// runs of equal timestamps (the wide-keys case).
func fuzzSeeds() [][]byte {
	rng := rand.New(rand.NewSource(1))
	op := func(kind, m int) []byte { return []byte{byte(m<<2 | kind), byte(rng.Intn(256))} }
	var ties, sweep, wide []byte
	for i := 0; i < 40; i++ {
		ties = append(ties, op(rng.Intn(2), rng.Intn(4))...)
	}
	ties = append(ties, op(2, 3)...)
	for i := 0; i < 20; i++ {
		ties = append(ties, op(0, rng.Intn(3))...)
	}
	for i := 0; i < 200; i++ {
		sweep = append(sweep, op(rng.Intn(2), rng.Intn(19))...)
	}
	for w := 0; w < 10; w++ {
		sweep = append(sweep, op(2, 10)...)
		for i := 0; i < 10; i++ {
			sweep = append(sweep, op(rng.Intn(2), rng.Intn(13))...)
		}
	}
	for i := 0; i < 120; i++ {
		wide = append(wide, op(rng.Intn(4), rng.Intn(64))...)
		if i%12 == 11 {
			wide = append(wide, op(2, 40+rng.Intn(24))...)
		}
	}
	return [][]byte{nil, ties, sweep, wide}
}

// FuzzRNGMatchesMathRand checks a stream against math/rand's for the same
// seed under any sequence of calls. Each op byte picks one of rngMethods
// with its low three bits and calls it 1+4·(op>>3) times, 1 to 125, so
// short inputs cross draw 273, where the register is built, and draw 607.
// A run stops after fuzzRNGCalls calls.
func FuzzRNGMatchesMathRand(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, seed := range rngEdgeSeeds() {
		ops := make([]byte, 24)
		rng.Read(ops)
		f.Add(seed, ops)
	}
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		got, want := NewRNG(seed), mathRandRNG(seed)
		calls := 0
		for _, op := range ops {
			for r := 0; r <= 4*int(op>>3) && calls < fuzzRNGCalls; r++ {
				sameCall(t, got, want, int(op&7), calls)
				calls++
			}
		}
	})
}

// fuzzRNGCalls bounds one FuzzRNGMatchesMathRand run: a few times past
// draw 607, and short enough to keep the fuzzer's throughput up.
const fuzzRNGCalls = 4000
