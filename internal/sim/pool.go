package sim

import "unsafe"

// Pool is a free list for the objects a model recycles within one run, such
// as its packets and per-operation trackers: Get takes an object and Put
// gives it back. An empty pool allocates a block of objects at once, as
// many as fit one 4-KiB allocation (blockLen), so a model holding n
// objects at its peak makes about n/blockLen allocations instead of n. The
// zero value is an empty pool.
//
// Get returns the object as its last user left it (or zeroed, from a new
// block): the caller sets every field it reads.
type Pool[T any] struct{ free []*T }

// blockBytes is the room for one block: the runtime's 4,096-byte size
// class less the 8-byte header it puts before a large pointerful object,
// so a block never spills into the next class.
const blockBytes = 4096 - 8

// blockLen is the number of objects in one block: as many T as fit
// blockBytes, and at least one.
func blockLen[T any]() int {
	var x T
	return max(1, blockBytes/max(1, int(unsafe.Sizeof(x))))
}

// Get takes an object from the pool.
func (p *Pool[T]) Get() *T {
	if len(p.free) == 0 {
		n := blockLen[T]()
		block := make([]T, n)
		if cap(p.free) < n {
			p.free = make([]*T, 0, n)
		}
		for i := range block {
			p.free = append(p.free, &block[i])
		}
	}
	n := len(p.free) - 1
	x := p.free[n]
	p.free = p.free[:n]
	return x
}

// Put returns an object the caller no longer holds.
func (p *Pool[T]) Put(x *T) { p.free = append(p.free, x) }
