package core

// PacketQueue is a first-in first-out queue of packets on a reusable ring
// buffer. Popping advances a head index instead of reslicing, so a queue
// that fills and drains over and over grows to its peak depth once and then
// allocates nothing. The zero value is an empty queue.
type PacketQueue struct {
	buf  []*Packet // ring storage; its length is zero or a power of two
	head int       // index of the oldest packet
	n    int       // packets queued
}

// Len returns the number of queued packets.
func (q *PacketQueue) Len() int { return q.n }

// Push appends p at the tail.
func (q *PacketQueue) Push(p *Packet) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = p
	q.n++
}

// Pop removes and returns the oldest packet. It panics on an empty queue.
func (q *PacketQueue) Pop() *Packet {
	if q.n == 0 {
		panic("core: Pop from an empty PacketQueue")
	}
	p := q.buf[q.head]
	// Clear the slot so the ring does not pin a packet it no longer holds.
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return p
}

// grow doubles the ring (from 4 slots at first), unwrapping the queued
// packets to the front of the new storage in FIFO order.
func (q *PacketQueue) grow() {
	buf := make([]*Packet, max(4, 2*len(q.buf)))
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}
