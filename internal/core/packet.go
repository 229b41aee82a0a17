package core

import (
	"fmt"

	"macrochip/internal/geometry"
	"macrochip/internal/sim"
)

// MsgClass labels a packet's role. The networks treat all classes alike at
// the physical layer (the paper's networks are class-agnostic); the class is
// carried so statistics and the coherence engine can distinguish them.
type MsgClass uint8

const (
	// ClassData is a raw payload packet (the 64-byte packets of the
	// figure-6 throughput study) or a cache-line-carrying coherence reply.
	ClassData MsgClass = iota
	// ClassRequest is a coherence request (read/write miss) to a home site.
	ClassRequest
	// ClassInvalidate is a directory-initiated invalidation to a sharer.
	ClassInvalidate
	// ClassAck is an invalidation acknowledgment or short completion.
	ClassAck
	// ClassTensor is an operator-graph tensor transfer (activation or
	// weight shard moved between dependent operators, internal/opgraph).
	ClassTensor
	// ClassCollective is an operator-graph collective fragment (all-reduce
	// and all-gather chunks — the all-to-all-heavy phases of LLM-inference
	// replay).
	ClassCollective
	numClasses
)

// MsgClasses returns every message class in declaration order — the
// iteration set for per-class instruments.
func MsgClasses() []MsgClass {
	return []MsgClass{ClassData, ClassRequest, ClassInvalidate, ClassAck, ClassTensor, ClassCollective}
}

// String returns the class name.
func (c MsgClass) String() string {
	switch c {
	case ClassData:
		return "data"
	case ClassRequest:
		return "request"
	case ClassInvalidate:
		return "invalidate"
	case ClassAck:
		return "ack"
	case ClassTensor:
		return "tensor"
	case ClassCollective:
		return "collective"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// DeliverHandler is the delivery callback, mirroring the sim.Handler
// contract: implement OnDeliver on a (usually pointer-shaped) type and set
// Packet.Deliver. Converting a pointer to a DeliverHandler allocates
// nothing, so the per-packet delivery chain of a hot loop (coherence
// request/data trackers, the open-loop generator's packet recycler) runs
// allocation-free.
//
// Contract: OnDeliver runs exactly once per delivered packet, at delivery
// time, after statistics are recorded, inside the engine's dispatch thread.
// The handler is the packet's last holder and may reuse or retain it: it
// may rewrite the packet and inject it again before OnDeliver returns. So a
// network must not touch a packet after calling Deliver (or
// Stats.RecordDelivery, which calls it); whatever it still needs it reads
// first (TestConformanceHandOff).
type DeliverHandler interface {
	OnDeliver(p *Packet, at sim.Time)
}

// Packet is one network message. Packets are created by traffic generators
// or the coherence engine and handed to a Network via Inject; the network
// calls Deliver exactly once when the last byte arrives at Dst. The fields
// fill 56 bytes (pinned by a test): saturated load points hold hundreds of
// thousands of packets in flight, carved from sim.Pool blocks.
// A field earns its place only if some output reads it.
type Packet struct {
	// Src and Dst are macrochip sites. Src == Dst is legal and uses the
	// single-cycle intra-site loop-back (paper §6.2).
	Src, Dst geometry.SiteID
	// Bytes is the packet size including header.
	Bytes int
	// Class labels the packet for statistics.
	Class MsgClass
	// Hops counts electronic forwarding hops taken (limited point-to-point
	// only). Router energy comes from Stats.RouterBytes; Hops lets a test pin
	// §4.6's single electronic hop.
	Hops int32
	// Born is the injection time, set by the network front-end.
	Born sim.Time
	// Deliver, if non-nil, runs at delivery time, after statistics are
	// recorded.
	Deliver DeliverHandler
}

// Network is one of the five macrochip interconnect models. A Network is
// bound at construction to a sim.Engine and a Stats sink; Inject may only be
// called from the engine's event context (or before Run starts).
type Network interface {
	// Name returns the table-5/figure-6 display name.
	Name() string
	// Inject accepts a packet at the current simulation time. Queueing is
	// unbounded at the sources (the open-loop load sweep relies on latency
	// divergence past saturation, not on drops).
	Inject(p *Packet)
	// Stats returns the shared delivery/energy statistics sink.
	Stats() *Stats
}
