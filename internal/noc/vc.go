package noc

import (
	"fmt"

	"flov/internal/topology"
)

// VCState is the per-input-VC pipeline state.
type VCState uint8

// Input VC states. A VC is a single-packet resource: it is Idle, then
// owned by one packet through RC -> VA -> SA, then Idle again after the
// tail departs (atomic VC allocation).
const (
	VCIdle VCState = iota
	VCRouting
	VCWaitVC
	VCActive
)

// String names the state for debugging.
func (s VCState) String() string {
	switch s {
	case VCIdle:
		return "Idle"
	case VCRouting:
		return "RC"
	case VCWaitVC:
		return "VA"
	case VCActive:
		return "SA"
	default:
		return fmt.Sprintf("VCState(%d)", int(s))
	}
}

// bufEntry is a buffered flit with its arrival cycle (used to model the
// router pipeline depth: a flit may not traverse the switch before
// arrival + (stages-1)).
type bufEntry struct {
	flit    Flit
	arrived int64
}

// InputVC is one virtual-channel input buffer plus its pipeline state.
type InputVC struct {
	Index int     // VC index within the input port //flovsnap:skip structural index fixed at construction
	State VCState // pipeline state

	// Route/allocation results (valid once past the respective stage).
	OutDir topology.Direction // output port chosen by RC
	OutVC  int                // downstream VC granted by VA

	// Stage timestamps used to enforce the 3-cycle pipeline.
	RCCycle int64 // cycle RC completed for the current packet
	VACycle int64 // cycle VA completed

	// WaitSince is the cycle the current head flit last made progress;
	// used by the escape-VC timeout (deadlock recovery).
	WaitSince int64

	buf      []bufEntry
	capacity int //flovsnap:skip structural buffer depth from config
}

// NewInputVC returns an empty input VC with the given buffer capacity.
func NewInputVC(index, capacity int) *InputVC {
	return &InputVC{Index: index, State: VCIdle, capacity: capacity, OutVC: -1}
}

// Capacity returns the buffer depth in flits.
func (v *InputVC) Capacity() int { return v.capacity }

// Len returns the number of buffered flits.
func (v *InputVC) Len() int { return len(v.buf) }

// Empty reports whether no flits are buffered.
func (v *InputVC) Empty() bool { return len(v.buf) == 0 }

// Full reports whether the buffer has no free slot.
func (v *InputVC) Full() bool { return len(v.buf) >= v.capacity }

// Push buffers an arriving flit. It panics on overflow — an overflow means
// the credit protocol was violated, which is a simulator bug worth failing
// loudly on.
func (v *InputVC) Push(f Flit, now int64) {
	if v.Full() {
		panic(fmt.Sprintf("noc: input VC %d overflow (credit protocol violation) on %s", v.Index, f))
	}
	v.buf = append(v.buf, bufEntry{flit: f, arrived: now})
}

// Front returns the flit at the head of the buffer without removing it,
// or the zero Flit (Pkt 0) if empty.
func (v *InputVC) Front() Flit {
	if len(v.buf) == 0 {
		return Flit{}
	}
	return v.buf[0].flit
}

// At returns the i-th buffered flit (0 = front) without removing it; used
// by the fault-drop path to check a whole packet is resident. Call only
// with i < Len().
func (v *InputVC) At(i int) Flit { return v.buf[i].flit }

// FrontArrived returns the arrival cycle of the front flit; call only when
// non-empty.
func (v *InputVC) FrontArrived() int64 { return v.buf[0].arrived }

// Pop removes and returns the front flit; call only when non-empty.
func (v *InputVC) Pop() Flit {
	f := v.buf[0].flit
	copy(v.buf, v.buf[1:])
	v.buf = v.buf[:len(v.buf)-1]
	return f
}

// Reset returns the VC to Idle, clearing route and allocation state. The
// buffer must already be empty.
func (v *InputVC) Reset() {
	if len(v.buf) != 0 {
		panic("noc: resetting non-empty input VC")
	}
	v.State = VCIdle
	v.OutVC = -1
	v.OutDir = 0
	v.RCCycle = 0
	v.VACycle = 0
	v.WaitSince = 0
}

// OutputVCState tracks the downstream VCs reachable through one output
// port: how many credits (free buffer slots) each has, and whether it is
// currently allocated to an in-flight packet.
type OutputVCState struct {
	Credits   []int  // free slots per downstream VC
	Allocated []bool // downstream VC currently owned by a packet
	depth     int    //flovsnap:skip structural buffer depth from config
}

// NewOutputVCState returns per-VC credit state with every VC holding
// `depth` credits (full availability) when full is true, or zero credits
// (must await a credit sync) otherwise.
func NewOutputVCState(vcs, depth int, full bool) *OutputVCState {
	o := &OutputVCState{
		Credits:   make([]int, vcs),
		Allocated: make([]bool, vcs),
		depth:     depth,
	}
	if full {
		for i := range o.Credits {
			o.Credits[i] = depth
		}
	}
	return o
}

// Depth returns the downstream buffer depth used for full-credit resets.
func (o *OutputVCState) Depth() int { return o.depth }

// SetFull resets every VC to full credit and unallocated (used when a
// woken downstream router is known to be empty).
func (o *OutputVCState) SetFull() {
	for i := range o.Credits {
		o.Credits[i] = o.depth
		o.Allocated[i] = false
	}
}

// SetZero clears all credits (used while awaiting a credit sync from a new
// logical neighbor).
func (o *OutputVCState) SetZero() {
	for i := range o.Credits {
		o.Credits[i] = 0
		o.Allocated[i] = false
	}
}

// CopyCounts overwrites credit counts from a sync message, leaving
// allocation state untouched.
func (o *OutputVCState) CopyCounts(counts []int) {
	copy(o.Credits, counts)
}

// Return adds one credit for vc. It panics if the count would exceed the
// buffer depth — that indicates double-returned credits.
func (o *OutputVCState) Return(vc int) {
	o.Credits[vc]++
	if o.Credits[vc] > o.depth {
		panic(fmt.Sprintf("noc: credit overflow on vc %d (%d > depth %d)", vc, o.Credits[vc], o.depth))
	}
}

// Consume spends one credit for vc; it panics when none are available
// (switch allocation must check first).
func (o *OutputVCState) Consume(vc int) {
	if o.Credits[vc] <= 0 {
		panic(fmt.Sprintf("noc: consuming credit on empty vc %d", vc))
	}
	o.Credits[vc]--
}
