package core

import (
	"math/rand"
	"testing"
)

// TestPacketQueueMatchesSlice drives random push/pop interleavings, with the
// ring wrapping and growing mid-stream, against a plain slice FIFO.
func TestPacketQueueMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q PacketQueue
	var ref []*Packet
	for i := 0; i < 20000; i++ {
		if len(ref) == 0 || rng.Intn(3) != 0 {
			p := &Packet{Bytes: i}
			q.Push(p)
			ref = append(ref, p)
		} else {
			if got := q.Pop(); got != ref[0] {
				t.Fatalf("step %d: Pop = packet %d, want %d", i, got.Bytes, ref[0].Bytes)
			}
			ref = ref[1:]
		}
		if q.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", i, q.Len(), len(ref))
		}
	}
	for len(ref) > 0 {
		if got := q.Pop(); got != ref[0] {
			t.Fatalf("drain: Pop = packet %d, want %d", got.Bytes, ref[0].Bytes)
		}
		ref = ref[1:]
	}
}

// TestPacketQueueReusesStorage: once the ring has reached a queue's peak
// depth, fill/drain cycles allocate nothing, and popped slots are cleared.
func TestPacketQueueReusesStorage(t *testing.T) {
	var q PacketQueue
	p := &Packet{}
	cycle := func() {
		for i := 0; i < 13; i++ {
			q.Push(p)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 0 {
		t.Fatalf("fill/drain cycle allocated %.1f per run, want 0", allocs)
	}
	for i, slot := range q.buf {
		if slot != nil {
			t.Fatalf("popped slot %d still holds a packet", i)
		}
	}
}

func TestPacketQueuePopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on an empty queue did not panic")
		}
	}()
	var q PacketQueue
	q.Pop()
}
