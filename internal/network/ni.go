package network

import (
	"fmt"

	"flov/internal/config"
	"flov/internal/nlog"
	"flov/internal/noc"
	"flov/internal/router"
	"flov/internal/sim"
	"flov/internal/stats"
)

// NI is the network interface attached to one router's Local port. It
// queues generated packets per virtual network, injects flits under
// credit flow control (one flit per cycle), and reassembles/ejects
// arriving packets.
type NI struct {
	ID  int
	Cfg config.Config //flovsnap:skip immutable run configuration

	// Channel endpoints (the router holds the mirrored ends).
	sendFlit *sim.Delay[noc.Flit]      // NI -> router local input //flovsnap:skip captured through the router Local port by the snapshot channel enumeration
	recvFlit *sim.Delay[noc.Flit]      // router local output -> NI //flovsnap:skip captured through the router Local port by the snapshot channel enumeration
	credIn   *sim.Delay[router.Signal] // router -> NI: credits for injection VCs //flovsnap:skip captured through the router Local port by the snapshot channel enumeration
	credOut  *sim.Delay[router.Signal] // NI -> router: credits for ejection buffers //flovsnap:skip captured through the router Local port by the snapshot channel enumeration

	// router is the NI's own router, roused whenever a packet is queued:
	// a FLOV router's idle detection watches its NI.
	router *router.Router //flovsnap:skip wiring installed by network.New

	// quiet and due are the activity-driven loop's skip state, as for
	// routers: an idle NI skips its ticks until an input queue is due.
	quiet bool  //flovsnap:skip derived skip state, cleared on restore
	due   int64 //flovsnap:skip derived skip state, recomputed whenever the NI goes quiet

	// pkts is the network's packet arena; queues and transmissions hold
	// handles into it.
	pkts    *noc.Arena        //flovsnap:skip wiring installed by network.New; packets are captured through the handles that name them
	queues  [][]noc.PacketRef // per-vnet source queues (unbounded)
	sending []txState         // per-vnet in-flight injection
	out     *noc.OutputVCState
	vnetRR  int

	// CanInject gates new flit injection (Router Parking reconfiguration
	// stalls). nil means always allowed.
	CanInject func() bool //flovsnap:skip wiring installed by network.New
	// OnDeliver is called when a packet's tail is consumed.
	OnDeliver func(p *noc.Packet, now int64) //flovsnap:skip observer hook, not simulation state

	Stats *stats.Collector //flovsnap:skip aliases the network-level collector, captured once there
	// Trace, when set, records packet deliveries.
	Trace *nlog.Log //flovsnap:skip opt-in observability ring, not simulation state
}

// txState tracks one packet being serialized into the router: flits
// below next have been sent, each derived from the packet's handle and
// size. pkt 0 means the vnet has no transmission in progress.
type txState struct {
	pkt  noc.PacketRef
	size int
	next int
	vc   int
}

// newNI builds an NI over the packet arena pkts; the caller wires
// channels via Connect.
func newNI(id int, cfg config.Config, st *stats.Collector, pkts *noc.Arena) *NI {
	vnets := cfg.VNets
	return &NI{
		ID:      id,
		Cfg:     cfg,
		pkts:    pkts,
		queues:  make([][]noc.PacketRef, vnets),
		sending: make([]txState, vnets),
		out:     noc.NewOutputVCState(cfg.VCsTotal(), cfg.BufferDepth, true),
		Stats:   st,
	}
}

// OutState exposes the NI's injection credit state (invariant checks).
func (ni *NI) OutState() *noc.OutputVCState { return ni.out }

// Connect wires the NI to its router through four channel endpoints
// and registers the NI as the consumer of the two it pops.
func (ni *NI) Connect(r *router.Router, send, recv *sim.Delay[noc.Flit], credIn, credOut *sim.Delay[router.Signal]) {
	ni.router = r
	ni.sendFlit, ni.recvFlit = send, recv
	ni.credIn, ni.credOut = credIn, credOut
	recv.SetConsumer(&ni.due)
	credIn.SetConsumer(&ni.due)
}

// Enqueue appends a generated packet to its vnet's source queue. The NI
// and its router both tick this cycle: the NI has work, and a FLOV
// router's idle detection sees the busy NI. The packet must come from
// the network's NewPacket (it lives in the network's arena).
func (ni *NI) Enqueue(p *noc.Packet) {
	if p.VNet < 0 || p.VNet >= len(ni.queues) {
		panic(fmt.Sprintf("ni %d: packet %d has invalid vnet %d", ni.ID, p.ID, p.VNet))
	}
	if p.Size < 1 || p.Size > noc.MaxPacketSize {
		panic(fmt.Sprintf("ni %d: packet %d has invalid size %d", ni.ID, p.ID, p.Size))
	}
	ni.queues[p.VNet] = append(ni.queues[p.VNet], p.Ref)
	ni.rouse()
}

// rouse makes the NI and its router tick on their next cycle.
func (ni *NI) rouse() {
	ni.quiet = false
	ni.router.Rouse()
}

// QueueLen returns the number of packets waiting (all vnets), excluding
// the ones currently being serialized.
func (ni *NI) QueueLen() int {
	n := 0
	for _, q := range ni.queues {
		n += len(q)
	}
	return n
}

// Busy reports whether any packet is queued or mid-injection.
func (ni *NI) Busy() bool {
	if ni.QueueLen() > 0 {
		return true
	}
	for _, tx := range ni.sending {
		if tx.pkt != 0 {
			return true
		}
	}
	return false
}

// DropWhere removes queued packets matching pred (classified fault
// losses), invoking onDrop for each and then freeing its arena slot.
// Packets mid-serialization are left alone — their flits are already in
// the network and are dropped at a router once the whole packet is
// co-resident there.
func (ni *NI) DropWhere(pred func(p *noc.Packet) bool, onDrop func(p *noc.Packet)) {
	for v := range ni.queues {
		kept := ni.queues[v][:0]
		for _, h := range ni.queues[v] {
			if p := ni.pkts.Get(h); pred(p) {
				onDrop(p)
				ni.pkts.Free(h)
			} else {
				kept = append(kept, h) //flovlint:allow hotalloc -- drop classification runs only under permanent faults
			}
		}
		ni.queues[v] = kept
	}
}

// EachPending visits every packet queued or mid-injection at this NI
// (used by Router Parking's fabric manager to avoid parking routers that
// still have traffic headed their way).
func (ni *NI) EachPending(fn func(p *noc.Packet)) {
	for _, q := range ni.queues {
		for _, h := range q {
			fn(ni.pkts.Get(h))
		}
	}
	for _, tx := range ni.sending {
		if tx.pkt != 0 {
			fn(ni.pkts.Get(tx.pkt))
		}
	}
}

// Tick processes credits, ejects arrivals, and injects at most one flit.
// An idle NI (nothing queued or mid-injection) has nothing to inject, so
// it skips its ticks until a credit or flit is due. The skip test is
// small enough to inline into the network's NI loop.
func (ni *NI) Tick(now int64) {
	if !ni.quiet || ni.due <= now {
		ni.tick(now)
	}
}

// tick is one real NI cycle; afterwards the NI records whether it is
// quiet and, if so, when its next input is due.
func (ni *NI) tick(now int64) {
	for s, ok := ni.credIn.Pop(now); ok; s, ok = ni.credIn.Pop(now) {
		if s.IsCredit {
			ni.out.Return(s.VC)
		}
	}
	for f, ok := ni.recvFlit.Pop(now); ok; f, ok = ni.recvFlit.Pop(now) {
		ni.eject(f, now)
	}

	ni.inject(now)

	ni.quiet = !ni.Busy()
	if ni.quiet {
		ni.due = min(ni.credIn.MinReady(), ni.recvFlit.MinReady())
	}
}

// eject consumes one arriving flit, returning its buffer credit and
// completing the packet on tail: once the statistics and OnDeliver have
// seen it, the packet's arena slot is freed.
func (ni *NI) eject(f noc.Flit, now int64) {
	ni.credOut.Push(now, router.CreditSignal(int(f.VC)))
	ni.Stats.NoteEjectedFlits(1)
	if f.Type.IsTail() {
		p := ni.pkts.Get(f.Pkt)
		if p.Dst != ni.ID {
			panic(fmt.Sprintf("ni %d: misdelivered packet %d (dst %d)", ni.ID, p.ID, p.Dst))
		}
		p.EjectedAt = now
		if ni.Trace != nil {
			ni.Trace.Addf(now, nlog.KPacket, ni.ID, "delivered pkt%d %d->%d lat=%d", p.ID, p.Src, p.Dst, p.TotalLatency()) //flovlint:allow hotalloc -- opt-in delivery tracing
		}
		ni.Stats.Record(p)
		if ni.OnDeliver != nil {
			ni.OnDeliver(p, now)
		}
		ni.pkts.Free(f.Pkt)
	}
}

// inject advances packet serialization: allocate a VC for a queued packet
// when none is active for its vnet, then send one flit if credits allow.
// Round-robin across vnets; one flit per cycle total.
func (ni *NI) inject(now int64) {
	vnets := len(ni.queues)

	// Start new transmissions where a vnet is idle and has queued work.
	// An injection stall (Router Parking Phase I) blocks only new
	// packets; a packet already mid-serialization finishes, so the
	// network can always drain to empty.
	newOK := ni.CanInject == nil || ni.CanInject()
	for v := 0; newOK && v < vnets; v++ {
		if ni.sending[v].pkt != 0 || len(ni.queues[v]) == 0 {
			continue
		}
		h := ni.queues[v][0]
		vc := ni.allocVC(v)
		if vc < 0 {
			continue
		}
		copy(ni.queues[v], ni.queues[v][1:])
		ni.queues[v] = ni.queues[v][:len(ni.queues[v])-1]
		ni.out.Allocated[vc] = true
		ni.sending[v] = txState{pkt: h, size: ni.pkts.Get(h).Size, vc: vc}
	}

	// Send one flit, round-robin across vnets with active transmissions.
	for i := 0; i < vnets; i++ {
		v := (ni.vnetRR + i) % vnets
		tx := &ni.sending[v]
		if tx.pkt == 0 || ni.out.Credits[tx.vc] <= 0 {
			continue
		}
		f := noc.NewFlit(tx.pkt, tx.next, tx.size)
		f.VC = uint8(tx.vc)
		if f.Type.IsHead() {
			ni.pkts.Get(tx.pkt).InjectedAt = now
		}
		ni.out.Consume(tx.vc)
		ni.sendFlit.Push(now, f)
		ni.Stats.NoteInjectedFlits(1)
		tx.next++
		if tx.next == tx.size {
			ni.out.Allocated[tx.vc] = false
			*tx = txState{}
		}
		ni.vnetRR = (v + 1) % vnets
		return
	}
}

// allocVC picks an unallocated regular VC of vnet v in the router's local
// input port, or -1.
func (ni *NI) allocVC(v int) int {
	base := ni.Cfg.VCBase(v)
	for i := 0; i < ni.Cfg.VCsPerVNet; i++ {
		if !ni.out.Allocated[base+i] {
			return base + i
		}
	}
	return -1
}
