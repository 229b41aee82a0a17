package sim

import "testing"

func TestDispatchHook(t *testing.T) {
	e := NewEngine()
	var hooked []Time
	var ran []Time
	e.SetDispatchHook(func(at Time) { hooked = append(hooked, at) })
	for _, d := range []Time{10, 20, 30} {
		e.ScheduleCall(d, call(func() { ran = append(ran, e.Now()) }), EventArg{})
	}
	e.Run()
	if len(hooked) != 3 {
		t.Fatalf("hook fired %d times, want 3", len(hooked))
	}
	for i, want := range []Time{10, 20, 30} {
		if hooked[i] != want {
			t.Fatalf("hooked[%d] = %v, want %v", i, hooked[i], want)
		}
		if ran[i] != want {
			t.Fatalf("ran[%d] = %v, want %v", i, ran[i], want)
		}
	}
	// Detach: no further callbacks.
	e.SetDispatchHook(nil)
	e.ScheduleCall(5, call(func() {}), EventArg{})
	e.Run()
	if len(hooked) != 3 {
		t.Fatalf("hook fired after detach: %d calls", len(hooked))
	}
}

// TestDispatchHookAllocationFree: the hook path must stay on the engine's
// zero-allocation dispatch cycle.
func TestDispatchHookAllocationFree(t *testing.T) {
	e := NewEngine()
	var n uint64
	e.SetDispatchHook(func(Time) { n++ })
	fn := func() {}
	burst := func() {
		for i := 0; i < 8; i++ {
			e.ScheduleCall(Time(i), call(fn), EventArg{})
		}
		e.Run()
	}
	burst()
	if allocs := testing.AllocsPerRun(100, burst); allocs > 0 {
		t.Fatalf("hooked schedule/run burst allocated %.1f per iteration, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("hook never fired")
	}
}
