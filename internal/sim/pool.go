package sim

// Pool is a free list for the objects a model recycles within one run, such
// as its packets and per-operation trackers: Get takes an object and Put
// gives it back. An empty pool allocates a block of poolBlock objects at
// once, so a model holding n objects at its peak makes about n/poolBlock
// allocations instead of n. The zero value is an empty pool.
//
// Get returns the object as its last user left it (or zeroed, from a new
// block): the caller sets every field it reads.
type Pool[T any] struct{ free []*T }

const poolBlock = 64

// Get takes an object from the pool.
func (p *Pool[T]) Get() *T {
	if len(p.free) == 0 {
		block := make([]T, poolBlock)
		if cap(p.free) < poolBlock {
			p.free = make([]*T, 0, poolBlock)
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
