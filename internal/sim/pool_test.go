package sim

import "testing"

// TestPoolRecyclesInBlocks pins the pool's two promises: objects it hands
// out are distinct and come back LIFO, and an empty pool allocates one
// block per poolBlock objects, so a steady get/put cycle allocates nothing.
func TestPoolRecyclesInBlocks(t *testing.T) {
	var p Pool[[2]uint64]
	held := map[*[2]uint64]bool{}
	var order []*[2]uint64
	for i := 0; i < 3*poolBlock; i++ {
		x := p.Get()
		if held[x] {
			t.Fatalf("Get %d returned an object already out", i)
		}
		held[x] = true
		order = append(order, x)
	}
	last := order[len(order)-1]
	p.Put(last)
	if p.Get() != last {
		t.Fatal("Get after Put did not return the object put back")
	}
	for _, x := range order {
		p.Put(x)
	}
	cycle := func() {
		order = order[:0]
		for i := 0; i < 3*poolBlock; i++ {
			order = append(order, p.Get())
		}
		for _, x := range order {
			p.Put(x)
		}
	}
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Fatalf("get/put cycle within the pool's size allocated %.1f, want 0", allocs)
	}

	var fresh Pool[[2]uint64]
	grow := func() {
		fresh = Pool[[2]uint64]{}
		for i := 0; i < 4*poolBlock; i++ {
			fresh.Get()
		}
	}
	// Four blocks, and the free list's room for one block.
	if allocs := testing.AllocsPerRun(10, grow); allocs != 5 {
		t.Fatalf("taking %d objects from an empty pool allocated %.1f, want 5", 4*poolBlock, allocs)
	}
}
