package sim

import (
	"testing"
	"unsafe"
)

// TestPoolRecyclesInBlocks pins the pool's two promises: objects it hands
// out are distinct and come back LIFO, and an empty pool allocates one
// block per blockLen objects, so a steady get/put cycle allocates nothing.
func TestPoolRecyclesInBlocks(t *testing.T) {
	var p Pool[[2]uint64]
	block := blockLen[[2]uint64]()
	if block != 255 {
		t.Fatalf("blockLen of a 16-byte object = %d, want 255", block)
	}
	held := map[*[2]uint64]bool{}
	var order []*[2]uint64
	for i := 0; i < 3*block; i++ {
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
		for i := 0; i < 3*block; i++ {
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
		for i := 0; i < 4*block; i++ {
			fresh.Get()
		}
	}
	// Four blocks, and the free list's room for one block.
	if allocs := testing.AllocsPerRun(10, grow); allocs != 5 {
		t.Fatalf("taking %d objects from an empty pool allocated %.1f, want 5", 4*block, allocs)
	}
}

// TestPoolBlockFitsSizeClass pins the block length against the allocator:
// a block of a 56-byte object with pointers (core.Packet's shape), plus
// the 8-byte header the runtime puts before such an allocation, fits the
// 4,096-byte size class with no room for one more object, and an object
// larger than that class still gets a block of one.
func TestPoolBlockFitsSizeClass(t *testing.T) {
	type packetLike struct {
		_ [32]byte
		_ *int
		_ any
	}
	size := int(unsafe.Sizeof(packetLike{}))
	if size != 56 {
		t.Fatalf("test type is %d bytes, want 56", size)
	}
	n := blockLen[packetLike]()
	if n != 73 || n*size+8 > 4096 || (n+1)*size+8 <= 4096 {
		t.Fatalf("blockLen = %d: %d bytes with the header, want the most that fit 4,096", n, n*size+8)
	}
	if n := blockLen[[8192]byte](); n != 1 {
		t.Fatalf("blockLen of an 8-KiB object = %d, want 1", n)
	}
}
