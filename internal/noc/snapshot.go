package noc

import (
	"fmt"

	"flov/internal/topology"
)

// This file holds the serializable state forms of the package's types,
// used by the checkpoint subsystem (internal/snapshot). Flits name their
// packet by arena handle; a capture registers every packet reachable
// from a flit or queue in a PacketTable and encodes flits as (packet
// index, type, seq, vc). Handles themselves are never written, so the
// wire form does not depend on arena layout.

// PacketState is the serializable form of a Packet (plain data, no
// pointers).
type PacketState struct {
	ID         uint64
	Src        int
	Dst        int
	VNet       int
	Size       int
	CreatedAt  int64
	InjectedAt int64
	EjectedAt  int64
	ActiveHops int
	FLOVHops   int
	LinkHops   int
	Escape     bool
	ReplyTo    uint64
	Kind       uint8
}

// CapturePacket copies a live packet into its serializable form.
func CapturePacket(p *Packet) PacketState {
	return PacketState{
		ID: p.ID, Src: p.Src, Dst: p.Dst, VNet: p.VNet, Size: p.Size,
		CreatedAt: p.CreatedAt, InjectedAt: p.InjectedAt, EjectedAt: p.EjectedAt,
		ActiveHops: p.ActiveHops, FLOVHops: p.FLOVHops, LinkHops: p.LinkHops,
		Escape: p.Escape, ReplyTo: p.ReplyTo, Kind: p.Kind,
	}
}

// Materialize rebuilds a packet from its serializable form.
func (s PacketState) Materialize() Packet {
	return Packet{
		ID: s.ID, Src: s.Src, Dst: s.Dst, VNet: s.VNet, Size: s.Size,
		CreatedAt: s.CreatedAt, InjectedAt: s.InjectedAt, EjectedAt: s.EjectedAt,
		ActiveHops: s.ActiveHops, FLOVHops: s.FLOVHops, LinkHops: s.LinkHops,
		Escape: s.Escape, ReplyTo: s.ReplyTo, Kind: s.Kind,
	}
}

// PacketTable assigns dense indices to the unique live packets of an
// arena reached during a state capture, in first-seen order. The
// traversal order is deterministic (the capture walks routers, NIs and
// links in id order), so two captures of identical networks yield
// identical tables whatever handles their arenas handed out.
type PacketTable struct {
	arena *Arena
	idx   map[PacketRef]int
	List  []*Packet
}

// NewPacketTable returns an empty table over the packets of a.
func NewPacketTable(a *Arena) *PacketTable {
	return &PacketTable{arena: a, idx: make(map[PacketRef]int)}
}

// Ref returns the index of the packet h names, registering it on first
// sight.
func (t *PacketTable) Ref(h PacketRef) int {
	if i, ok := t.idx[h]; ok {
		return i
	}
	i := len(t.List)
	t.idx[h] = i
	t.List = append(t.List, t.arena.Get(h))
	return i
}

// FlitState is the serializable form of a Flit: the packet is a table
// index, everything else is copied.
type FlitState struct {
	Pkt  int
	Type FlitType
	Seq  int
	VC   int
}

// CaptureFlit registers the flit's packet and returns the flit's
// serializable form.
func CaptureFlit(t *PacketTable, f Flit) FlitState {
	return FlitState{Pkt: t.Ref(f.Pkt), Type: f.Type, Seq: int(f.Seq), VC: int(f.VC)}
}

// Validate checks that the flit's fields fit a Flit of a packet of
// pkts (indexed by Pkt) on a router with vcs VCs per port, so
// Materialize neither indexes out of range nor truncates.
func (s FlitState) Validate(pkts []PacketState, vcs int) error {
	switch {
	case s.Pkt < 0 || s.Pkt >= len(pkts):
		return fmt.Errorf("flit references packet %d of %d", s.Pkt, len(pkts))
	case s.Type > HeadTail:
		return fmt.Errorf("flit has invalid type %d", s.Type)
	case s.Seq < 0 || s.Seq >= pkts[s.Pkt].Size:
		return fmt.Errorf("flit seq %d outside its %d-flit packet", s.Seq, pkts[s.Pkt].Size)
	case s.VC < 0 || s.VC >= vcs:
		return fmt.Errorf("flit vc %d outside [0,%d)", s.VC, vcs)
	}
	return nil
}

// Materialize rebuilds a flit against the restored packets' handles
// (call only on a validated state).
func (s FlitState) Materialize(pkts []PacketRef) Flit {
	return Flit{Pkt: pkts[s.Pkt], Type: s.Type, Seq: uint16(s.Seq), VC: uint8(s.VC)}
}

// InputVCState is the serializable form of an InputVC: pipeline state,
// route/allocation results and the buffered flits with their arrival
// cycles. Index and capacity are structural (rebuilt from config).
type InputVCState struct {
	State     VCState
	OutDir    topology.Direction
	OutVC     int
	RCCycle   int64
	VACycle   int64
	WaitSince int64
	Flits     []FlitState
	Arrived   []int64
}

// CaptureState copies the VC's mutable state.
func (v *InputVC) CaptureState(t *PacketTable) InputVCState {
	s := InputVCState{
		State: v.State, OutDir: v.OutDir, OutVC: v.OutVC,
		RCCycle: v.RCCycle, VACycle: v.VACycle, WaitSince: v.WaitSince,
	}
	for _, e := range v.buf {
		s.Flits = append(s.Flits, CaptureFlit(t, e.flit))
		s.Arrived = append(s.Arrived, e.arrived)
	}
	return s
}

// RestoreState overwrites the VC's mutable state from a capture. Index
// and capacity are kept (the receiver was built from the same config).
func (v *InputVC) RestoreState(s InputVCState, pkts []PacketRef) {
	v.State = s.State
	v.OutDir = s.OutDir
	v.OutVC = s.OutVC
	v.RCCycle = s.RCCycle
	v.VACycle = s.VACycle
	v.WaitSince = s.WaitSince
	v.buf = v.buf[:0]
	for i, fs := range s.Flits {
		v.buf = append(v.buf, bufEntry{flit: fs.Materialize(pkts), arrived: s.Arrived[i]})
	}
}

// OutputVCSnap is the serializable form of an OutputVCState (the depth
// is structural).
type OutputVCSnap struct {
	Credits   []int
	Allocated []bool
}

// CaptureState copies the credit and allocation vectors.
func (o *OutputVCState) CaptureState() OutputVCSnap {
	return OutputVCSnap{
		Credits:   append([]int(nil), o.Credits...),
		Allocated: append([]bool(nil), o.Allocated...),
	}
}

// RestoreState overwrites the credit and allocation vectors.
func (o *OutputVCState) RestoreState(s OutputVCSnap) {
	copy(o.Credits, s.Credits)
	copy(o.Allocated, s.Allocated)
}
