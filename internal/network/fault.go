package network

import (
	"encoding/json"
	"fmt"

	"flov/internal/fault"
	"flov/internal/nlog"
	"flov/internal/noc"
	"flov/internal/routing"
	"flov/internal/topology"
)

// FaultAware is implemented by mechanisms whose routing state derives
// from link/router health (Router Parking's up*/down* tables). The
// network notifies it after every fault-state change (injection or heal)
// so the mechanism can recompute.
type FaultAware interface {
	OnFaultChange(now int64)
}

// AttachFaults wires a fault-injection spec into the network: it builds
// the injector off its own seeded RNG stream (independent of traffic),
// installs the per-router fault hooks, redirects classified drops into
// the statistics, and gates injection at failed nodes. Call once, before
// the first Step. A zero spec is accepted and leaves every hook inert
// (runs stay byte-identical to a network without faults attached).
func (n *Network) AttachFaults(spec fault.Spec) error {
	if n.Faults != nil {
		return fmt.Errorf("network: faults already attached")
	}
	if n.now != 0 {
		return fmt.Errorf("network: AttachFaults called at cycle %d, want 0", n.now)
	}
	if err := spec.Validate(n.Mesh); err != nil {
		return err
	}
	canon, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	n.Faults = fault.NewInjector(spec, n.Mesh)
	n.faultSpecJSON = string(canon)
	n.dropAfter = spec.DropTimeout
	if n.dropAfter <= 0 {
		n.dropAfter = 8 * int64(n.Cfg.EscapeTimeout)
	}
	for id, r := range n.Routers {
		r.Faults = &faultHook{n: n, id: id}
		r.OnDrop = func(pkt *noc.Packet, flits int, now int64) {
			n.Stats.NotePacketLost(pkt, flits)
			if n.Trace != nil {
				n.Trace.Addf(now, nlog.KFault, pkt.Dst, "dropped pkt%d %d->%d (%d flits, undeliverable)",
					pkt.ID, pkt.Src, pkt.Dst, flits)
			}
		}
	}
	for id, ni := range n.NIs {
		node := id
		ni.CanInject = func() bool { return n.Faults.RouterUp(node) && n.Mech.CanInject(node) }
	}
	return nil
}

// FaultsEver reports whether any fault has been injected so far (false
// when no fault spec is attached).
func (n *Network) FaultsEver() bool { return n.Faults != nil && n.Faults.EverFaulted() }

// stepFaults advances the injector one cycle and propagates any state
// change; called from Step before traffic generation so a fault injected
// at cycle t is visible to everything that runs at t.
func (n *Network) stepFaults(now int64) {
	if n.Faults.Tick(now) {
		n.applyFaultChange(now)
	}
	// Source queues are swept on a coarse period: packets to destinations
	// cut off by permanent damage would otherwise sit (and grow) forever.
	if n.Faults.HasPermanent() && now%64 == 0 {
		n.classifyQueued(now)
	}
}

// applyFaultChange re-syncs derived state after the injector's fault set
// changed: router freeze flags, committed-but-unallocated routes (they
// may now point at dead hardware, or a healed link may offer a better
// path), and any mechanism routing tables.
func (n *Network) applyFaultChange(now int64) {
	for id, r := range n.Routers {
		r.Frozen = !n.Faults.RouterUp(id)
		if r.Frozen {
			r.Rouse() // a frozen tick does not advance inPtr; a skipped one would
		}
	}
	for _, r := range n.Routers {
		for d := topology.Direction(0); d < topology.NumLinkDirs; d++ {
			r.ReRoute(d)
		}
	}
	if fa, ok := n.Mech.(FaultAware); ok {
		fa.OnFaultChange(now)
	}
	if n.Trace != nil {
		n.Trace.Addf(now, nlog.KFault, -1, "fault state changed: %d link / %d router faults so far",
			n.Faults.LinkFaults(), n.Faults.RouterFaults()) //flovlint:allow hotalloc -- opt-in tracing of fault events
	}
}

// classifyQueued drops source-queued packets whose destination is no
// longer reachable from their source (classified losses with zero
// injected flits).
func (n *Network) classifyQueued(now int64) {
	for _, ni := range n.NIs {
		ni.DropWhere(
			func(p *noc.Packet) bool { return !n.Faults.Reachable(p.Src, p.Dst) },
			func(p *noc.Packet) {
				n.Stats.NotePacketLost(p, 0)
				if n.Trace != nil {
					n.Trace.Addf(now, nlog.KFault, p.Src, "dropped queued pkt%d %d->%d (partitioned)",
						p.ID, p.Src, p.Dst) //flovlint:allow hotalloc -- opt-in tracing of classified drops
				}
			})
	}
}

// faultHook adapts the network's injector to one router's FaultHook; it
// also implements routing.FaultView for the decision filter. Every
// method is a strict no-op until the first fault is injected.
type faultHook struct {
	n  *Network
	id int
}

// FilterRoute implements router.FaultHook.
func (h *faultHook) FilterRoute(inDir topology.Direction, pkt *noc.Packet, dec routing.Decision, waited int64) routing.Decision {
	return routing.ApplyFaults(h.n.Mesh, h.id, pkt.Dst, inDir, pkt.Escape, dec, waited, h)
}

// LinkBlocked implements router.FaultHook.
func (h *faultHook) LinkBlocked(d topology.Direction) bool {
	return h.n.Faults.EverFaulted() && !h.LinkUsable(h.id, d)
}

// Recovering implements router.FaultHook.
func (h *faultHook) Recovering() bool { return h.n.Faults.EverFaulted() }

// StuckDrop implements router.FaultHook: the final liveness net for a
// packet wedged in VC allocation (e.g. behind flits stuck in a dead
// router) — permanent damage exists and the wait exceeds the drop
// timeout.
func (h *faultHook) StuckDrop(pkt *noc.Packet, waited int64) bool {
	return h.n.Faults.HasPermanent() && waited > h.n.dropAfter
}

// LinkUsable implements routing.FaultView: the link is healthy and does
// not lead into a permanently dead router (a transiently frozen neighbor
// still accepts flits into its link queue, bounded by credits).
func (h *faultHook) LinkUsable(node int, d topology.Direction) bool {
	if !h.n.Faults.LinkUp(node, d) {
		return false
	}
	nb := h.n.Mesh.Neighbor(node, d)
	return nb < 0 || !h.n.Faults.RouterPermanentlyDown(nb)
}

// Reachable implements routing.FaultView.
func (h *faultHook) Reachable(a, b int) bool { return h.n.Faults.Reachable(a, b) }

// StuckUndeliverable implements routing.FaultView.
func (h *faultHook) StuckUndeliverable(waited int64) bool {
	return h.n.Faults.HasPermanent() && waited > h.n.dropAfter
}

// Faulted implements routing.FaultView.
func (h *faultHook) Faulted() bool { return h.n.Faults.EverFaulted() }
