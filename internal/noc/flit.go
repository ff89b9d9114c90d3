// Package noc defines the primitive on-chip-network data types shared by
// every mechanism in the simulator: packets, flits, credits, virtual
// channel state machines and per-VC input buffers.
package noc

import (
	"fmt"
	"math"
)

// FlitType classifies a flit's position inside its packet.
type FlitType uint8

// Flit types. A single-flit packet is HeadTail.
const (
	Head FlitType = iota
	Body
	Tail
	HeadTail
)

// String returns a one-letter name (H, B, T, S for single-flit).
func (t FlitType) String() string {
	switch t {
	case Head:
		return "H"
	case Body:
		return "B"
	case Tail:
		return "T"
	case HeadTail:
		return "S"
	default:
		return fmt.Sprintf("FlitType(%d)", int(t))
	}
}

// IsHead reports whether the flit carries routing information.
func (t FlitType) IsHead() bool { return t == Head || t == HeadTail }

// IsTail reports whether the flit closes its packet (releases VCs).
func (t FlitType) IsTail() bool { return t == Tail || t == HeadTail }

// Packet is the unit of end-to-end communication. Packets live in their
// network's Arena; flits name them by handle, and latency accounting
// accumulates here.
type Packet struct {
	ID   uint64
	Src  int // source node id
	Dst  int // destination node id
	VNet int // virtual network
	Size int // number of flits

	// Timestamps (cycles).
	CreatedAt  int64 // enqueued at the source NI queue
	InjectedAt int64 // head flit entered the source router
	EjectedAt  int64 // tail flit consumed at the destination NI

	// Path accounting for the Fig. 8 latency breakdown.
	ActiveHops int  // powered-on routers traversed (full 3-stage pipeline)
	FLOVHops   int  // power-gated routers traversed via FLOV latches
	LinkHops   int  // physical link traversals
	Escape     bool // packet entered the escape subnetwork

	// Watermark for reply generation in the closed-loop driver.
	ReplyTo uint64 // request packet id this packet answers, 0 if none
	Kind    uint8  // workload-defined tag (request/reply/data...)

	// Ref is the packet's own handle in its arena, set by Alloc.
	Ref PacketRef //flovsnap:skip arena slot of this run; a restore allocates fresh slots
}

// TotalLatency returns end-to-end latency including source queuing.
func (p *Packet) TotalLatency() int64 { return p.EjectedAt - p.CreatedAt }

// NetworkLatency returns latency from injection into the source router to
// ejection (excludes source queuing).
func (p *Packet) NetworkLatency() int64 { return p.EjectedAt - p.InjectedAt }

// MaxPacketSize is the largest packet, in flits, a Flit's Seq can number.
const MaxPacketSize = math.MaxUint16 + 1

// Flit is the unit of flow control: a small pointer-free value copied
// through link queues, input buffers and FLOV latches. Pkt names the
// packet in the network's Arena; the zero Flit (Pkt 0) means "no flit".
// VC is the VC index in the *downstream* input buffer the flit is headed
// to, rewritten at every hop.
type Flit struct {
	Pkt  PacketRef
	Seq  uint16 // position within the packet, 0-based
	VC   uint8
	Type FlitType
}

// NewFlit returns flit seq of the size-flit packet h, typed by its
// position: the first flit is the Head, the last the Tail, a one-flit
// packet HeadTail. Its VC is unset.
func NewFlit(h PacketRef, seq, size int) Flit {
	t := Body
	switch {
	case size == 1:
		t = HeadTail
	case seq == 0:
		t = Head
	case seq == size-1:
		t = Tail
	}
	return Flit{Pkt: h, Seq: uint16(seq), Type: t}
}

// String renders a compact debug representation naming the packet by
// handle; Arena.Describe names it by ID with its route.
func (f Flit) String() string {
	return fmt.Sprintf("h%d/%s%d vc%d", f.Pkt, f.Type, f.Seq, f.VC)
}
