package tokenring

import (
	"math/rand"
	"testing"

	"macrochip/internal/core"
	"macrochip/internal/geometry"
	"macrochip/internal/sim"
)

// call adapts a test closure to sim.Handler.
type call func()

func (f call) OnEvent(*sim.Engine, sim.EventArg) { f() }

// TestNextWaiterMatchesRingScan checks the bitmask pick against the
// brute-force scan it replaced — the waiter with the least RingDist from the
// releasing position, that position itself counting as a full circulation —
// on random occupancy sets, on the paper's 8×8 grid and on a 16×16 grid
// whose 256 positions span four mask words.
func TestNextWaiterMatchesRingScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, g := range []geometry.Grid{geometry.Default8x8(), {N: 16, PitchCM: 2.25}} {
		sites := g.Sites()
		busy := make([]uint64, (sites+63)/64)
		for trial := 0; trial < 20000; trial++ {
			clear(busy)
			// Densities from empty to full, so single waiters, sparse
			// sets and the wrap past the last word all occur.
			density := rng.Float64() * rng.Float64()
			for w := 0; w < sites; w++ {
				if rng.Float64() < density {
					busy[w/64] |= 1 << (w % 64)
				}
			}
			pos := rng.Intn(sites)
			want, bestDist := -1, sites+1
			for w := 0; w < sites; w++ {
				if busy[w/64]>>(w%64)&1 == 0 {
					continue
				}
				k := g.RingDist(pos, w)
				if k == 0 {
					k = sites
				}
				if k < bestDist {
					want, bestDist = w, k
				}
			}
			if got := nextWaiter(busy, pos); got != want {
				t.Fatalf("%d×%d grid, pos %d, busy %x: nextWaiter = %d, want %d", g.N, g.N, pos, busy, got, want)
			}
		}
	}
}

// TestLargeGridDrainsEveryWaiter runs the fabric on a 16×16 grid: every
// site queues a packet for one destination, and the token must serve each
// waiter, including those whose ring positions lie beyond the first mask
// word.
func TestLargeGridDrainsEveryWaiter(t *testing.T) {
	p := core.DefaultParams()
	p.Grid = geometry.Grid{N: 16, PitchCM: 2.25}
	eng := sim.NewEngine()
	st := core.NewStats(0)
	n := New(eng, p, st)
	const dst = geometry.SiteID(17)
	eng.ScheduleCall(0, call(func() {
		for s := 0; s < p.Grid.Sites(); s++ {
			n.Inject(&core.Packet{Src: geometry.SiteID(s), Dst: dst, Bytes: 64})
		}
	}), sim.EventArg{})
	eng.Run()
	if st.Delivered != uint64(p.Grid.Sites()) {
		t.Fatalf("delivered %d of %d packets", st.Delivered, p.Grid.Sites())
	}
	for _, m := range n.busy[dst] {
		if m != 0 {
			t.Fatalf("busy mask %x after the queues drained, want zero", n.busy[dst])
		}
	}
}
