// Package router implements the baseline 3-stage virtual-channel router
// (Peh & Dally style) that all four mechanisms build on: per-VC input
// buffers, route computation, separable VC and switch allocation with
// round-robin priorities, switch traversal, and credit-based flow control.
//
// The router is mechanism-agnostic. Power-gating schemes customize it
// through four hooks: RouteFn (routing policy), AllocOK (handshake gating
// of new packet allocations per output), WakeReq (destination-gated wakeup
// trigger) and OnCtrl (non-credit control messages). Package core wraps it
// into a FLOV router; package rp drives it from the fabric manager.
package router

import (
	"fmt"
	"math"
	"math/bits"

	"flov/internal/config"
	"flov/internal/noc"
	"flov/internal/power"
	"flov/internal/routing"
	"flov/internal/sim"
	"flov/internal/topology"
)

// TraceCredit, when non-nil, observes every credit consume/return and
// every bulk counter rewrite on every router (kind is one of "return",
// "consume", "copy", "full", "zero", "drop"). Intended for protocol
// debugging and invariant checks in tests; nil in normal runs.
var TraceCredit func(routerID int, port topology.Direction, vc int, count int, kind string)

// Signal is the unit carried by control channels: either a credit return
// for the paired flit channel, or a mechanism-defined control message.
type Signal struct {
	IsCredit bool
	VC       int // credit: freed VC index in the sender's input buffer
	Msg      any // control: mechanism-defined payload (nil for credits)
}

// CreditSignal builds a credit return for vc.
func CreditSignal(vc int) Signal { return Signal{IsCredit: true, VC: vc} }

// CtrlSignal builds a control-message signal.
func CtrlSignal(msg any) Signal { return Signal{Msg: msg} }

// FaultHook is the router's window onto an attached fault injector. The
// network installs one per router (capturing the router id); semantics
// live entirely on the network side so the router stays fault-agnostic.
type FaultHook interface {
	// FilterRoute post-processes a routing decision for a head flit that
	// has waited `waited` cycles since last progress; it may substitute a
	// reroute, NoRoute, or an Undeliverable classification.
	FilterRoute(inDir topology.Direction, pkt *noc.Packet, dec routing.Decision, waited int64) routing.Decision
	// LinkBlocked reports whether traversal onto output d is currently
	// forbidden (failed link, or permanently failed neighbor).
	LinkBlocked(d topology.Direction) bool
	// Recovering reports whether any fault has been injected so far,
	// enabling the VA-starvation escape heuristic. Must be false until
	// the first fault so fault-free runs stay byte-identical.
	Recovering() bool
	// StuckDrop reports whether a head flit wedged in VC allocation for
	// `waited` cycles should be dropped as undeliverable.
	StuckDrop(pkt *noc.Packet, waited int64) bool
}

// PortLink bundles the four directed channels of one router port. At mesh
// edges the non-existent neighbor's queues are nil. The Local port links
// the router to its network interface with the same machinery.
type PortLink struct {
	OutFlit *sim.Delay[*noc.Flit] // flits to the neighbor/NI
	InFlit  *sim.Delay[*noc.Flit] // flits from the neighbor/NI
	OutCtrl *sim.Delay[Signal]    // credits+control to the neighbor/NI
	InCtrl  *sim.Delay[Signal]    // credits+control from the neighbor/NI
}

// Connected reports whether this port has a neighbor attached.
func (p *PortLink) Connected() bool { return p.OutFlit != nil }

// Router is one baseline virtual-channel router.
type Router struct {
	ID    int
	Cfg   config.Config //flovsnap:skip immutable run configuration
	Mesh  topology.Mesh //flovsnap:skip immutable topology
	Ports [topology.NumPorts]PortLink

	// RouteFn computes the output port for a head flit that arrived on
	// inDir (topology.Local for injected packets). escape selects the
	// escape-subnetwork algorithm. Must be set before the first Tick.
	RouteFn func(inDir topology.Direction, escape bool, pkt *noc.Packet) routing.Decision //flovsnap:skip routing function installed at construction
	// AllocOK reports whether NEW packets may currently be allocated
	// toward outDir (handshake draining gates this). nil means always ok.
	AllocOK func(outDir topology.Direction) bool //flovsnap:skip wiring installed by the gating mechanism on Attach
	// WakeReq is invoked (possibly repeatedly) when a packet must wait
	// for gated destination target to wake. nil ignores.
	WakeReq func(target int) //flovsnap:skip wiring installed by the gating mechanism on Attach
	// OnCtrl receives non-credit control messages. nil drops them.
	OnCtrl func(from topology.Direction, msg any) //flovsnap:skip wiring installed by the gating mechanism on Attach
	// DropCredit, when non-nil and true for a port, discards incoming
	// credits on it. A freshly woken FLOV router uses this to ignore
	// credits that raced ahead of (and are already included in) the
	// pending MsgCreditSync snapshot.
	DropCredit func(from topology.Direction) bool //flovsnap:skip wiring installed by the gating mechanism on Attach

	// Faults, when non-nil, is the fault-injection subsystem's per-router
	// hook: it filters routing decisions, blocks switch traversal onto
	// failed links and enables the fault-recovery heuristics. While no
	// fault has been injected every method is a strict no-op.
	Faults FaultHook //flovsnap:skip wiring installed by AttachFaults
	// OnDrop observes packets the fault path drops (classified losses):
	// flits is how many buffered flits were discarded. nil ignores.
	OnDrop func(pkt *noc.Packet, flits int, now int64) //flovsnap:skip observer hook, not simulation state
	// Frozen, when true, halts the whole pipeline: a faulted router
	// processes nothing until the fault heals. Links into it still queue
	// (bounded by credits). Whoever sets it must Rouse the router.
	Frozen bool

	// quiet and due are the activity-driven loop's skip state (TickDue):
	// while quiet, ticks are skipped until cycle due, the earliest ready
	// cycle among the input queues, which Delay pushes keep lowering.
	// They sit beside Frozen and inPtr, the other fields a skipped tick
	// reads or writes, so a skip touches one cache line.
	quiet Quiet //flovsnap:skip derived skip state, cleared by Rouse on restore
	due   int64 //flovsnap:skip derived skip state, recomputed whenever the router goes quiet
	// inPtr is SA's per-port round-robin start; it advances every cycle
	// the pipeline runs or is skipped while QuietPowered. skipped counts
	// those skipped cycles, so a skip is one increment: tickSettle folds
	// it into inPtr before the next real tick, CaptureState into the
	// captured pointers.
	inPtr   [topology.NumPorts]int
	skipped int //flovsnap:skip folded into InPtr by CaptureState, zeroed by RestoreState

	Ledger *power.Ledger //flovsnap:skip wiring installed by network.New

	// Wrapper, when set, is the power-gating wrapper whose Tick and
	// Quiet drive this router each cycle (FLOV). nil means the router
	// ticks itself (Baseline, Router Parking).
	Wrapper Clocked //flovsnap:skip wiring installed by the gating mechanism on Attach

	in  [topology.NumPorts][]*noc.InputVC
	out [topology.NumPorts]*noc.OutputVCState

	// mask[s][p] has bit v set iff in[p][v].State == s, so each stage
	// visits only the VCs in its state instead of scanning every VC.
	// setState and resetVC are the only writers of InputVC.State and keep
	// it current; config.Validate caps VCsTotal at 64 to fit one word.
	mask [numVCStates][topology.NumPorts]uint64 //flovsnap:skip derived from in[p][v].State, rebuilt by RestoreState

	vaPtr [topology.NumPorts]int
	saPtr [topology.NumPorts]int

	// Per-cycle scratch buffers, reused so the VA stage allocates nothing
	// in steady state. Contents are only valid within one stage call.
	vcScratch []int       //flovsnap:skip scratch, valid only within one stage call
	vaScratch []saRequest //flovsnap:skip scratch, valid only within one stage call

	// Traversals counts flits switched through this router's crossbar
	// (utilization heat maps).
	Traversals int64
}

// New builds a router with empty buffers and full credits on every
// connected output. Channels must be wired into Ports by the caller
// (package network) before the first Tick.
func New(id int, cfg config.Config, mesh topology.Mesh, ledger *power.Ledger) *Router {
	r := &Router{ID: id, Cfg: cfg, Mesh: mesh, Ledger: ledger}
	vcs := cfg.VCsTotal()
	if vcs > config.MaxVCsTotal {
		panic(fmt.Sprintf("router %d: %d VCs per port exceed the %d-bit state masks", id, vcs, config.MaxVCsTotal))
	}
	r.vcScratch = make([]int, 0, vcs)
	r.vaScratch = make([]saRequest, 0, int(topology.NumPorts)*vcs)
	for p := 0; p < int(topology.NumPorts); p++ {
		r.in[p] = make([]*noc.InputVC, vcs)
		for v := 0; v < vcs; v++ {
			r.in[p][v] = noc.NewInputVC(v, cfg.BufferDepth)
		}
		r.out[p] = noc.NewOutputVCState(vcs, cfg.BufferDepth, true)
	}
	r.rebuildMasks()
	return r
}

// numVCStates is the number of noc.VCState values (Idle..Active).
const numVCStates = int(noc.VCActive) + 1

// setState moves input VC ivc of port p to state st, keeping the
// per-state masks current.
func (r *Router) setState(p topology.Direction, ivc *noc.InputVC, st noc.VCState) {
	bit := uint64(1) << uint(ivc.Index)
	r.mask[ivc.State][p] &^= bit
	r.mask[st][p] |= bit
	ivc.State = st
}

// resetVC returns the (empty) input VC ivc of port p to Idle.
func (r *Router) resetVC(p topology.Direction, ivc *noc.InputVC) {
	r.setState(p, ivc, noc.VCIdle)
	ivc.Reset()
}

// rebuildMasks recounts every per-state mask from the VC states.
func (r *Router) rebuildMasks() {
	r.mask = [numVCStates][topology.NumPorts]uint64{}
	for p := range r.in {
		for v, ivc := range r.in[p] {
			r.mask[ivc.State][p] |= 1 << uint(v)
		}
	}
}

// StateMask returns the bitmask of port d's input VCs in state st (bit v
// set iff InVC(d, v).State == st). Invariant checks compare it against a
// recount.
func (r *Router) StateMask(st noc.VCState, d topology.Direction) uint64 { return r.mask[st][d] }

// SetVCState forces input VC (d, vc) into state st. It is a test hook for
// staging pipeline situations; simulation code never calls it, since the
// pipeline stages own VC state.
func (r *Router) SetVCState(d topology.Direction, vc int, st noc.VCState) {
	r.setState(d, r.in[d][vc], st)
}

// Quiet says whether a router's next ticks are no-ops until one of its
// input queues delivers (or its mechanism rouses it), and what a
// skipped tick must still do to stay identical to a real one.
type Quiet uint8

const (
	// NotQuiet: the next tick may do work, so it must run.
	NotQuiet Quiet = iota
	// QuietPowered: the pipeline is powered but empty. Its tick would
	// only advance the SA input pointers, so a skipped tick does that.
	QuietPowered
	// QuietGated: the pipeline is power-gated and the tick would not run
	// it, so a skipped tick changes nothing.
	QuietGated
)

// Clocked is a router's per-cycle behaviour as the activity-driven loop
// sees it: the router itself, or a power-gating wrapper around it.
type Clocked interface {
	// Tick advances one cycle.
	Tick(now int64)
	// Quiet reports, right after Tick, whether every following tick is
	// a no-op until an input arrives or the mechanism rouses the router.
	Quiet() Quiet
}

// Quiet implements Clocked for a router that ticks itself: with every
// input VC Idle there is nothing to route, allocate or send.
func (r *Router) Quiet() Quiet {
	for p := topology.Direction(0); p < topology.NumPorts; p++ {
		if r.busy(p) != 0 {
			return NotQuiet
		}
	}
	return QuietPowered
}

// TickDue is the activity-driven loop's per-router step, shared by every
// mechanism: it ticks the router (through Wrapper when set) unless the
// router is quiet and no input is due yet. A skipped QuietPowered tick
// still advances the SA input pointers, since they set grant order; it
// counts in skipped. A Frozen router is never quiet (whoever freezes a
// router rouses it), so it ticks, a no-op, every cycle until the fault
// heals. The skip path is small enough to inline into the mechanisms'
// loops.
func (r *Router) TickDue(now int64) {
	if r.quiet == NotQuiet || r.due <= now {
		r.tickSettle(now)
	} else if r.quiet == QuietPowered {
		r.skipped++
	}
}

// tickSettle runs one real tick, then records whether the router is
// quiet and, if so, when its next input is due. A router without a
// Wrapper is ticked and asked directly, without an interface call.
func (r *Router) tickSettle(now int64) {
	if r.skipped != 0 {
		for p := range r.inPtr {
			r.inPtr[p] += r.skipped
		}
		r.skipped = 0
	}
	q := NotQuiet
	if w := r.Wrapper; w != nil {
		w.Tick(now)
		if !r.Frozen {
			q = w.Quiet()
		}
	} else {
		r.Tick(now)
		if !r.Frozen {
			q = r.Quiet()
		}
	}
	r.quiet = q
	if q != NotQuiet {
		r.due = r.inputsDue()
	}
}

// Clock returns the router's per-cycle behaviour: Wrapper when set,
// else the router itself.
func (r *Router) Clock() Clocked {
	if r.Wrapper != nil {
		return r.Wrapper
	}
	return r
}

// inputsDue returns the earliest ready cycle among the input queues.
func (r *Router) inputsDue() int64 {
	due := int64(math.MaxInt64)
	for p := range r.Ports {
		due = min(due, r.Ports[p].InFlit.MinReady(), r.Ports[p].InCtrl.MinReady())
	}
	return due
}

// WatchInputs registers the router as the consumer of every connected
// input queue, so each push lowers its due cycle. Call once, after the
// ports are wired and before the first TickDue.
func (r *Router) WatchInputs() {
	for p := range r.Ports {
		if q := r.Ports[p].InFlit; q != nil {
			q.SetConsumer(&r.due)
		}
		if q := r.Ports[p].InCtrl; q != nil {
			q.SetConsumer(&r.due)
		}
	}
}

// Rouse makes the router tick on its next TickDue. Mechanisms call it
// when something other than an input queue may give the router work: a
// core power change, a reconfiguration, a packet queued at its NI, a
// restored snapshot, a fault that freezes the router.
func (r *Router) Rouse() { r.quiet = NotQuiet }

// QuietState returns the router's skip state: how it is quiet, and the
// cycle its next input is due. Invariant checks compare it with the
// mechanism's predicate and the input queues.
func (r *Router) QuietState() (Quiet, int64) { return r.quiet, r.due }

// SetQuietState forces the skip state. It is a test hook for staging a
// missed wakeup; simulation code never calls it.
func (r *Router) SetQuietState(q Quiet, due int64) { r.quiet, r.due = q, due }

// Out returns the output credit state for a port (used by power-gating
// wrappers for credit sync).
func (r *Router) Out(d topology.Direction) *noc.OutputVCState { return r.out[d] }

// InVC returns one input VC (exposed for tests and drain checks).
func (r *Router) InVC(d topology.Direction, vc int) *noc.InputVC { return r.in[d][vc] }

// Tick advances the router one cycle: control processing, flit receive,
// then the RC, VA and SA/ST pipeline stages. A Frozen (faulted) router
// does nothing — its state is preserved until the fault heals.
func (r *Router) Tick(now int64) {
	if r.Frozen {
		return
	}
	r.processCtrl(now)
	r.receive(now)
	r.stageRC(now)
	r.stageVA(now)
	r.stageSA(now)
}

// processCtrl consumes credits and dispatches control messages.
func (r *Router) processCtrl(now int64) {
	for p := 0; p < int(topology.NumPorts); p++ {
		q := r.Ports[p].InCtrl
		if q == nil {
			continue
		}
		q.Drain(now, func(s Signal) {
			if s.IsCredit {
				if r.DropCredit != nil && r.DropCredit(topology.Direction(p)) {
					if TraceCredit != nil {
						TraceCredit(r.ID, topology.Direction(p), s.VC, r.out[p].Credits[s.VC], "drop")
					}
					return
				}
				if r.out[p].Credits[s.VC] >= r.out[p].Depth() {
					panic(fmt.Sprintf("router %d: duplicate credit on port %s vc %d at cycle %d",
						r.ID, topology.Direction(p), s.VC, now))
				}
				r.out[p].Return(s.VC)
				if TraceCredit != nil {
					TraceCredit(r.ID, topology.Direction(p), s.VC, r.out[p].Credits[s.VC], "return")
				}
			} else if r.OnCtrl != nil {
				r.OnCtrl(topology.Direction(p), s.Msg)
			}
		})
	}
}

// receive buffers flits arriving on every connected input port.
func (r *Router) receive(now int64) {
	for p := 0; p < int(topology.NumPorts); p++ {
		q := r.Ports[p].InFlit
		if q == nil {
			continue
		}
		q.Drain(now, func(f *noc.Flit) {
			r.acceptFlit(topology.Direction(p), f, now)
		})
	}
}

// acceptFlit writes one flit into its input VC. Exposed to the FLOV
// wrapper, which feeds flits arriving during power-state transitions.
func (r *Router) acceptFlit(p topology.Direction, f *noc.Flit, now int64) {
	ivc := r.in[p][f.VC]
	if ivc.State == noc.VCIdle {
		if !f.Type.IsHead() {
			panic(fmt.Sprintf("router %d: non-head flit %s into idle VC %d on port %s", r.ID, f, f.VC, p))
		}
		r.setState(p, ivc, noc.VCRouting)
		ivc.WaitSince = now
	}
	ivc.Push(f, now)
	r.Ledger.AddBufferWrite(1)
}

// stageRC computes routes for head flits at the front of VCs in RC state.
func (r *Router) stageRC(now int64) {
	for p := 0; p < int(topology.NumPorts); p++ {
		// Visiting a VC changes only that VC's state, so the mask read
		// once per port yields the same VCs, in the same order, as a scan.
		for m := r.mask[noc.VCRouting][p]; m != 0; m &= m - 1 {
			ivc := r.in[p][bits.TrailingZeros64(m)]
			f := ivc.Front()
			if f == nil {
				continue
			}
			if !f.Type.IsHead() {
				panic(fmt.Sprintf("router %d: RC on non-head flit %s", r.ID, f))
			}
			pkt := f.Pkt
			// Duato-style recovery: a head stalled beyond the threshold
			// moves to the escape subnetwork and stays there.
			if !pkt.Escape && now-ivc.WaitSince > int64(r.Cfg.EscapeTimeout) {
				pkt.Escape = true
			}
			dec := r.RouteFn(topology.Direction(p), pkt.Escape, pkt)
			if r.Faults != nil {
				dec = r.Faults.FilterRoute(topology.Direction(p), pkt, dec, now-ivc.WaitSince)
			}
			switch {
			case dec.Undeliverable:
				// Partition (or fault wedge) classified: drop the packet
				// explicitly once all its flits are co-resident.
				r.dropFront(topology.Direction(p), ivc, now)
			case dec.Hold:
				if r.WakeReq != nil {
					r.WakeReq(dec.WakeTarget)
				}
			case dec.NoRoute:
				// Wait for a power-state change or the escape timeout.
			default:
				ivc.OutDir = dec.Dir
				r.setState(topology.Direction(p), ivc, noc.VCWaitVC)
				ivc.RCCycle = now
			}
		}
	}
}

// candidateVCs returns the downstream VC indices a packet may be
// allocated: regular VCs of its vnet, or the escape VC once the packet
// has entered the escape subnetwork. Ejection (Local) frees the packet
// from the escape restriction — any VC of the vnet works at the NI.
func (r *Router) candidateVCs(pkt *noc.Packet, outDir topology.Direction) []int {
	if pkt.Escape && outDir != topology.Local {
		r.vcScratch = append(r.vcScratch[:0], r.Cfg.EscapeVC(pkt.VNet))
		return r.vcScratch
	}
	base := r.Cfg.VCBase(pkt.VNet)
	r.vcScratch = r.vcScratch[:0]
	for i := 0; i < r.Cfg.VCsPerVNet; i++ {
		r.vcScratch = append(r.vcScratch, base+i)
	}
	return r.vcScratch
}

// stageVA allocates downstream VCs to packets that completed RC at least
// one cycle ago (separable, per-output round-robin across input VCs).
func (r *Router) stageVA(now int64) {
	var waiting uint64
	for _, m := range r.mask[noc.VCWaitVC] {
		waiting |= m
	}
	if waiting == 0 {
		return // no requester on any output
	}
	for out := 0; out < int(topology.NumPorts); out++ {
		outDir := topology.Direction(out)
		if !r.Ports[out].Connected() {
			continue
		}
		// Gather requesters for this output from the live WaitVC masks
		// (reused scratch: gathering afresh per output allocates nothing
		// in steady state).
		r.vaScratch = r.vaScratch[:0]
		for p := 0; p < int(topology.NumPorts); p++ {
			for m := r.mask[noc.VCWaitVC][p]; m != 0; m &= m - 1 {
				ivc := r.in[p][bits.TrailingZeros64(m)]
				if ivc.OutDir == outDir && ivc.RCCycle < now {
					r.vaScratch = append(r.vaScratch, saRequest{port: p, ivc: ivc})
				}
			}
		}
		reqs := r.vaScratch
		if len(reqs) == 0 {
			continue
		}
		if r.AllocOK != nil && outDir != topology.Local && !r.AllocOK(outDir) {
			// Handshake forbids starting new packets toward outDir:
			// return requesters to RC so they can adapt to the new
			// power states next cycle.
			for _, q := range reqs {
				r.setState(topology.Direction(q.port), q.ivc, noc.VCRouting)
			}
			continue
		}
		start := r.vaPtr[out] % len(reqs)
		for i := 0; i < len(reqs); i++ {
			q := reqs[(start+i)%len(reqs)]
			f := q.ivc.Front()
			if f == nil {
				continue
			}
			granted := -1
			for _, vc := range r.candidateVCs(f.Pkt, outDir) {
				if !r.out[out].Allocated[vc] {
					granted = vc
					break
				}
			}
			if granted < 0 {
				continue
			}
			r.out[out].Allocated[granted] = true
			q.ivc.OutVC = granted
			r.setState(topology.Direction(q.port), q.ivc, noc.VCActive)
			q.ivc.VACycle = now
			q.ivc.WaitSince = now
			r.Ledger.AddDyn(power.CatArbitration, 1)
		}
		r.vaPtr[out]++

		// Fault recovery: a requester starved of a VC grant past the
		// escape timeout (the downstream VC may be wedged behind failed
		// hardware) escalates to the escape subnetwork, and one wedged
		// beyond the drop timeout is classified undeliverable. Inactive
		// until the first fault, so fault-free runs are unaffected.
		if r.Faults != nil && r.Faults.Recovering() {
			for _, q := range reqs {
				ivc := q.ivc
				if ivc.State != noc.VCWaitVC {
					continue
				}
				f := ivc.Front()
				if f == nil {
					continue
				}
				waited := now - ivc.WaitSince
				if r.Faults.StuckDrop(f.Pkt, waited) {
					r.dropFront(topology.Direction(q.port), ivc, now)
					continue
				}
				if !f.Pkt.Escape && waited > int64(r.Cfg.EscapeTimeout) {
					f.Pkt.Escape = true
					r.setState(topology.Direction(q.port), ivc, noc.VCRouting)
				}
			}
		}
	}
}

// saRequest is one input VC's allocation request (the VA stage's reused
// scratch element).
type saRequest struct {
	port int
	ivc  *noc.InputVC
}

// stageSA performs switch allocation and traversal: one flit per input
// port and per output port per cycle, credits permitting, respecting the
// pipeline depth (a flit departs no earlier than arrival + stages - 1).
func (r *Router) stageSA(now int64) {
	// A flit traverses the switch RouterStages cycles after arrival, so
	// one hop costs RouterStages (router) + LinkLatency (wire) cycles —
	// the paper's 3-cycle router + 1-cycle link.
	pipeGate := int64(r.Cfg.RouterStages)

	// Input-first: each input port nominates one ready VC (round-robin).
	var bids [topology.NumPorts]*noc.InputVC
	var cands [topology.NumPorts]int // bids per output port
	for p := 0; p < int(topology.NumPorts); p++ {
		// The pointer advances every cycle, whether or not p bids.
		ptr := r.inPtr[p]
		r.inPtr[p]++
		active := r.mask[noc.VCActive][p]
		if active == 0 {
			continue
		}
		// Visit the active VCs round-robin from start: bits >= start in
		// ascending order, then bits below it. Visiting a VC changes only
		// that VC's state, so reading the mask once matches a full scan.
		vcs := r.in[p]
		start := uint(ptr % len(vcs))
		below := active & (uint64(1)<<start - 1)
		for m := active &^ below; ; m &= m - 1 {
			if m == 0 {
				if below == 0 {
					break
				}
				m, below = below, 0
			}
			ivc := vcs[bits.TrailingZeros64(m)]
			if ivc.Empty() {
				continue
			}
			if ivc.FrontArrived()+pipeGate > now {
				continue
			}
			if r.Faults != nil && ivc.OutDir != topology.Local && r.Faults.LinkBlocked(ivc.OutDir) {
				// Failed link: no new traversal onto it. An untouched head
				// may re-route (escape packets included, so they can take
				// an alternate legal turn); partially sent packets wait
				// for the fault to heal.
				r.releaseBlocked(topology.Direction(p), ivc, now)
				continue
			}
			od := int(ivc.OutDir)
			if r.out[od].Credits[ivc.OutVC] <= 0 {
				r.maybeEscapeStarved(topology.Direction(p), ivc, now)
				continue
			}
			bids[p] = ivc
			cands[od]++
			break
		}
	}

	// Output-side arbitration: one winner per output port. Traversal
	// only clears the winner's own bid, so the per-output counts stay
	// valid for later outputs; re-walking the bid array keeps this
	// allocation-free.
	for out := 0; out < int(topology.NumPorts); out++ {
		if cands[out] == 0 {
			continue
		}
		outDir := topology.Direction(out)
		pick := r.saPtr[out] % cands[out]
		r.saPtr[out]++
		for p := range bids {
			if bids[p] == nil || bids[p].OutDir != outDir {
				continue
			}
			if pick == 0 {
				r.traverse(p, bids[p], now)
				// Losers keep their bids for future cycles; clear so an
				// input port sends at most one flit per cycle.
				bids[p] = nil
				break
			}
			pick--
		}
	}
}

// maybeEscapeStarved applies deadlock recovery to a packet that holds a
// downstream VC but has sent nothing and been starved of credits past the
// timeout: release the (untouched) allocation and re-route via escape.
func (r *Router) maybeEscapeStarved(p topology.Direction, ivc *noc.InputVC, now int64) {
	f := ivc.Front()
	if f == nil || !f.Type.IsHead() {
		return // mid-packet: downstream will drain via its own recovery
	}
	if f.Pkt.Escape || now-ivc.WaitSince <= int64(r.Cfg.EscapeTimeout) {
		return
	}
	r.out[ivc.OutDir].Allocated[ivc.OutVC] = false
	ivc.OutVC = -1
	f.Pkt.Escape = true
	r.setState(p, ivc, noc.VCRouting)
}

// releaseBlocked undoes an untouched VC allocation toward a failed link
// after the escape timeout, sending the head back to route computation in
// escape mode so it can pick a surviving path. Unlike maybeEscapeStarved
// it also releases packets already in escape mode — their deterministic
// escape route died under them and must be recomputed.
func (r *Router) releaseBlocked(p topology.Direction, ivc *noc.InputVC, now int64) {
	f := ivc.Front()
	if f == nil || !f.Type.IsHead() {
		return // mid-packet: must wait for the link to heal
	}
	if now-ivc.WaitSince <= int64(r.Cfg.EscapeTimeout) {
		return // give a transient fault a chance to heal in place
	}
	r.out[ivc.OutDir].Allocated[ivc.OutVC] = false
	ivc.OutVC = -1
	f.Pkt.Escape = true
	r.setState(p, ivc, noc.VCRouting)
}

// dropFront discards the packet at the front of ivc as a classified loss:
// every buffered flit is popped, its upstream credit returned (so flow
// control stays conserved), and OnDrop notified. It only acts once the
// whole packet is resident (head through tail) — wormhole flow control
// plus PacketSize <= BufferDepth guarantees the remaining flits arrive —
// and reports whether the drop happened. The VC must hold no downstream
// allocation (VCRouting/VCWaitVC states only).
func (r *Router) dropFront(port topology.Direction, ivc *noc.InputVC, now int64) bool {
	head := ivc.Front()
	if head == nil {
		return false
	}
	pkt := head.Pkt
	count := 0
	complete := false
	for i := 0; i < ivc.Len(); i++ {
		f := ivc.At(i)
		if f.Pkt != pkt {
			break
		}
		count++
		if f.Type.IsTail() {
			complete = true
			break
		}
	}
	if !complete {
		return false
	}
	for i := 0; i < count; i++ {
		ivc.Pop()
		if r.Ports[port].OutCtrl != nil {
			r.Ports[port].OutCtrl.Push(now, CreditSignal(ivc.Index))
			r.Ledger.AddDyn(power.CatCredit, 1)
		}
	}
	if ivc.Empty() {
		r.resetVC(port, ivc)
	} else {
		nf := ivc.Front()
		if !nf.Type.IsHead() {
			panic(fmt.Sprintf("router %d: flit %s behind dropped tail is not a head", r.ID, nf))
		}
		ivc.OutVC = -1
		r.setState(port, ivc, noc.VCRouting)
		ivc.WaitSince = now
	}
	if r.OnDrop != nil {
		r.OnDrop(pkt, count, now)
	}
	return true
}

// traverse moves the winning flit through the crossbar onto its output
// link and returns a credit upstream.
func (r *Router) traverse(port int, ivc *noc.InputVC, now int64) {
	f := ivc.Pop()
	outDir := ivc.OutDir

	r.Ledger.AddBufferRead(1)
	r.Ledger.AddDyn(power.CatCrossbar, 1)
	r.Ledger.AddDyn(power.CatArbitration, 1)
	r.Traversals++

	if f.Type.IsHead() {
		f.Pkt.ActiveHops++
	}

	f.VC = ivc.OutVC
	r.out[outDir].Consume(ivc.OutVC)
	if TraceCredit != nil {
		TraceCredit(r.ID, outDir, ivc.OutVC, r.out[outDir].Credits[ivc.OutVC], "consume")
	}
	r.Ports[outDir].OutFlit.Push(now, f)
	if outDir != topology.Local {
		r.Ledger.AddDyn(power.CatLink, 1)
		if f.Type.IsHead() {
			f.Pkt.LinkHops++
		}
	}

	// Credit back to whoever feeds this input port (router or NI).
	if r.Ports[port].OutCtrl != nil {
		r.Ports[port].OutCtrl.Push(now, CreditSignal(ivc.Index))
		r.Ledger.AddDyn(power.CatCredit, 1)
	}

	ivc.WaitSince = now
	if f.Type.IsTail() {
		r.out[outDir].Allocated[ivc.OutVC] = false
		if ivc.Empty() {
			r.resetVC(topology.Direction(port), ivc)
		} else {
			nf := ivc.Front()
			if !nf.Type.IsHead() {
				panic(fmt.Sprintf("router %d: flit %s behind tail is not a head", r.ID, nf))
			}
			ivc.OutVC = -1
			r.setState(topology.Direction(port), ivc, noc.VCRouting)
			ivc.WaitSince = now
		}
	}
}

// ReRoute sends every packet that computed a route toward d but has not
// yet been allocated a downstream VC back to route computation. Power-
// gating wrappers call this when a neighbor's power state changes: a
// route computed under the old state may now fly a packet over its own
// (freshly gated) destination, so it must be recomputed before it can
// commit. Committed packets (VCActive) are unaffected — the handshake
// protocol waits for them by design.
func (r *Router) ReRoute(d topology.Direction) {
	for p := topology.Direction(0); p < topology.NumPorts; p++ {
		for m := r.mask[noc.VCWaitVC][p]; m != 0; m &= m - 1 {
			if ivc := r.in[p][bits.TrailingZeros64(m)]; ivc.OutDir == d {
				r.setState(p, ivc, noc.VCRouting)
			}
		}
	}
}

// CommittedTo reports whether any in-flight packet still holds an
// allocation toward output port d — the condition a neighbor must wait
// out before answering a drain/wakeup handshake with drain_done.
func (r *Router) CommittedTo(d topology.Direction) bool {
	for p := 0; p < int(topology.NumPorts); p++ {
		for m := r.mask[noc.VCActive][p]; m != 0; m &= m - 1 {
			if r.in[p][bits.TrailingZeros64(m)].OutDir == d {
				return true
			}
		}
	}
	return false
}

// BuffersEmpty reports whether every input VC buffer is empty.
func (r *Router) BuffersEmpty() bool {
	for p := topology.Direction(0); p < topology.NumPorts; p++ {
		for m := r.busy(p); m != 0; m &= m - 1 {
			if !r.in[p][bits.TrailingZeros64(m)].Empty() {
				return false
			}
		}
	}
	return true
}

// busy returns the mask of port p's non-Idle input VCs. Idle VCs are
// always empty (a flit into an Idle VC moves it to VCRouting, and only
// an empty VC is reset), so only busy VCs can hold flits.
func (r *Router) busy(p topology.Direction) uint64 {
	return r.mask[noc.VCRouting][p] | r.mask[noc.VCWaitVC][p] | r.mask[noc.VCActive][p]
}

// ArrivalsPending reports whether any flit is still queued on an input
// link (sent by a neighbor but not yet received).
func (r *Router) ArrivalsPending() bool {
	for p := 0; p < int(topology.NumPorts); p++ {
		if q := r.Ports[p].InFlit; q != nil && !q.Empty() {
			return true
		}
	}
	return false
}

// LocalActivity reports whether the router currently holds any flit that
// came from or is going to its local port (used for idle detection).
func (r *Router) LocalActivity() bool {
	for m := r.busy(topology.Local); m != 0; m &= m - 1 {
		if !r.in[topology.Local][bits.TrailingZeros64(m)].Empty() {
			return true
		}
	}
	for p := 0; p < int(topology.NumPorts); p++ {
		for m := r.mask[noc.VCWaitVC][p] | r.mask[noc.VCActive][p]; m != 0; m &= m - 1 {
			if ivc := r.in[p][bits.TrailingZeros64(m)]; ivc.OutDir == topology.Local && !ivc.Empty() {
				return true
			}
		}
	}
	return false
}

// SendCtrl pushes a control message to the neighbor in direction d.
func (r *Router) SendCtrl(now int64, d topology.Direction, msg any) {
	r.Ports[d].OutCtrl.Push(now, CtrlSignal(msg))
	r.Ledger.AddDyn(power.CatHandshake, 1)
}
