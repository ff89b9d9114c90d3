package network

import (
	"flov/internal/assert"
	"flov/internal/noc"
	"flov/internal/router"
	"flov/internal/sim"
	"flov/internal/topology"
)

// FlitHolder is implemented by mechanisms whose power-gated datapath
// holds flits outside router buffers and link queues (the FLOV output
// latches), so flit conservation and the packet-arena check can account
// for them.
type FlitHolder interface {
	EachHeldFlit(fn func(noc.Flit))
}

// LinkCreditSteady is implemented by mechanisms that rewrite credit
// counters during power transitions (FLOV credit copy-up and sync). It
// reports whether router id's credit state on port d currently tracks
// its physical neighbor one-to-one, which makes strict per-VC credit
// conservation checkable on that link. Mechanisms that never rewrite
// credits (Baseline, Router Parking) fall back to RouterOn.
type LinkCreditSteady interface {
	LinkCreditSteady(id int, d topology.Direction) bool
}

// CheckInvariants walks the whole network and fails loudly (via
// assert.Failf) on any violated structural invariant:
//
//   - every input VC holds at most its buffer depth, and every credit
//     counter lies in [0, depth];
//   - flit conservation: flits injected minus flits ejected equals the
//     flits currently sitting in input buffers, link queues, injection/
//     ejection queues and mechanism latches;
//   - per-VC credit conservation on every steady link: sender credits
//     plus flits in flight plus receiver occupancy plus credits in
//     flight equals the buffer depth;
//   - every router's per-state input-VC masks equal a recount from the
//     VC states, and every Idle input VC is empty;
//   - every router or NI the activity-driven loop flagged quiet still
//     meets its mechanism's quiet predicate, a quiet router is neither
//     frozen nor holding a non-Idle input VC, and no input queue of a
//     quiet component can deliver before its due cycle (a skipped tick
//     never misses work);
//   - the packet arena holds exactly the packets still in the network:
//     every handle named by a source queue, an NI transmission, an input
//     buffer, a link queue or a FLOV latch is live, and the arena has no
//     other live handle (a packet is freed once, when it leaves).
//
// Step runs it every cycle under the flovdebug build tag; it is
// exported so tests can drive it in ordinary builds too.
func (n *Network) CheckInvariants() {
	n.checkBounds()
	n.checkFlitConservation()
	n.checkCreditConservation()
	n.checkVCMasks()
	n.checkQuiet()
	n.checkArena()
}

// checkArena matches the arena's live handles against the distinct
// packets reachable from every site that can name one.
func (n *Network) checkArena() {
	seen := make([]bool, n.Pkts.Bound())
	distinct := 0
	visit := func(site string, id int, h noc.PacketRef) {
		if !n.Pkts.IsLive(h) {
			assert.Failf("packet arena: %s %d names handle %d, which is not live, at cycle %d", site, id, h, n.now)
		}
		if !seen[h] {
			seen[h] = true
			distinct++
		}
	}
	for id, ni := range n.NIs {
		for _, q := range ni.queues {
			for _, h := range q {
				visit("source queue of ni", id, h)
			}
		}
		for _, tx := range ni.sending {
			if tx.pkt != 0 {
				visit("transmission of ni", id, tx.pkt)
			}
		}
	}
	vcs := n.Cfg.VCsTotal()
	for id, r := range n.Routers {
		for p := topology.Direction(0); p < topology.NumPorts; p++ {
			for vc := 0; vc < vcs; vc++ {
				ivc := r.InVC(p, vc)
				for i := 0; i < ivc.Len(); i++ {
					visit("input buffer of router", id, ivc.At(i).Pkt)
				}
			}
		}
	}
	n.eachFlitQueue(func(q *sim.Delay[noc.Flit]) {
		q.Each(func(f noc.Flit) { visit("flit queue", -1, f.Pkt) })
	})
	if h, ok := n.Mech.(FlitHolder); ok {
		h.EachHeldFlit(func(f noc.Flit) { visit("FLOV latch", -1, f.Pkt) })
	}
	if live := n.Pkts.Live(); live != distinct {
		assert.Failf("packet arena: %d live handles but %d packets in the network at cycle %d", live, distinct, n.now)
	}
}

// eachFlitQueue visits every flit queue once: each router port's
// OutFlit (the ejection queue and every inter-router link, each link
// being one router's output) and each Local InFlit (the injection
// queue).
func (n *Network) eachFlitQueue(fn func(q *sim.Delay[noc.Flit])) {
	for _, r := range n.Routers {
		for p := topology.Direction(0); p < topology.NumPorts; p++ {
			if q := r.Ports[p].OutFlit; q != nil {
				fn(q)
			}
		}
		if q := r.Ports[topology.Local].InFlit; q != nil {
			fn(q)
		}
	}
}

// checkQuiet verifies the skip state of every quiet router and NI: the
// predicate that made it quiet still holds, and its due cycle is no
// later than any queued input's ready cycle.
func (n *Network) checkQuiet() {
	for id, r := range n.Routers {
		q, due := r.QuietState()
		if q == router.NotQuiet {
			continue
		}
		if r.Frozen {
			assert.Failf("router %d: frozen but flagged quiet (%d) at cycle %d", id, q, n.now)
		}
		if got := r.Clock().Quiet(); got != q {
			assert.Failf("router %d: flagged quiet (%d) but its mechanism's predicate now says %d at cycle %d", id, q, got, n.now)
		}
		for p := topology.Direction(0); p < topology.NumPorts; p++ {
			if m := r.StateMask(noc.VCRouting, p) | r.StateMask(noc.VCWaitVC, p) | r.StateMask(noc.VCActive, p); m != 0 {
				assert.Failf("router %d: quiet with busy input VCs %#x on port %s at cycle %d", id, m, p, n.now)
			}
			n.checkDue("router", id, r.Ports[p].InFlit.MinReady(), due)
			n.checkDue("router", id, r.Ports[p].InCtrl.MinReady(), due)
		}
	}
	for id, ni := range n.NIs {
		if !ni.quiet {
			continue
		}
		if ni.Busy() {
			assert.Failf("ni %d: flagged quiet but busy at cycle %d", id, n.now)
		}
		n.checkDue("ni", id, ni.recvFlit.MinReady(), ni.due)
		n.checkDue("ni", id, ni.credIn.MinReady(), ni.due)
	}
}

// checkDue fails when a quiet component's input queue holds an item
// ready before the component's due cycle: the loop would skip past it.
func (n *Network) checkDue(kind string, id int, ready, due int64) {
	if ready < due {
		assert.Failf("%s %d: quiet until cycle %d but an input is ready at cycle %d (missed wake) at cycle %d", kind, id, due, ready, n.now)
	}
}

// checkVCMasks recounts each router's per-state input-VC masks from the
// VC states and compares them with the masks the pipeline maintains.
func (n *Network) checkVCMasks() {
	vcs := n.Cfg.VCsTotal()
	for id, r := range n.Routers {
		for p := topology.Direction(0); p < topology.NumPorts; p++ {
			var want [noc.VCActive + 1]uint64
			for vc := 0; vc < vcs; vc++ {
				ivc := r.InVC(p, vc)
				st := ivc.State
				if st > noc.VCActive {
					assert.Failf("router %d port %s vc %d: invalid state %v at cycle %d", id, p, vc, st, n.now)
				}
				if st == noc.VCIdle && !ivc.Empty() {
					assert.Failf("router %d port %s vc %d: idle VC holds %d flits at cycle %d", id, p, vc, ivc.Len(), n.now)
				}
				want[st] |= 1 << uint(vc)
			}
			for st, m := range want {
				if got := r.StateMask(noc.VCState(st), p); got != m {
					assert.Failf("router %d port %s: %v mask %#x, recount from VC states %#x at cycle %d",
						id, p, noc.VCState(st), got, m, n.now)
				}
			}
		}
	}
}

// checkBounds verifies buffer occupancy and credit-counter ranges.
func (n *Network) checkBounds() {
	vcs := n.Cfg.VCsTotal()
	for id, r := range n.Routers {
		for p := topology.Direction(0); p < topology.NumPorts; p++ {
			for vc := 0; vc < vcs; vc++ {
				if ivc := r.InVC(p, vc); ivc.Len() > ivc.Capacity() {
					assert.Failf("router %d port %s vc %d: occupancy %d exceeds depth %d at cycle %d",
						id, p, vc, ivc.Len(), ivc.Capacity(), n.now)
				}
			}
			out := r.Out(p)
			for vc, c := range out.Credits {
				if c < 0 || c > out.Depth() {
					assert.Failf("router %d port %s vc %d: credit counter %d outside [0,%d] at cycle %d",
						id, p, vc, c, out.Depth(), n.now)
				}
			}
		}
	}
	for id, ni := range n.NIs {
		out := ni.OutState()
		for vc, c := range out.Credits {
			if c < 0 || c > out.Depth() {
				assert.Failf("ni %d vc %d: credit counter %d outside [0,%d] at cycle %d",
					id, vc, c, out.Depth(), n.now)
			}
		}
	}
}

// checkFlitConservation matches the stats counters against the flits
// actually present in the network: input buffers, every flit queue
// (eachFlitQueue) and mechanism latches.
func (n *Network) checkFlitConservation() {
	vcs := n.Cfg.VCsTotal()
	counted := int64(0)
	for _, r := range n.Routers {
		for p := topology.Direction(0); p < topology.NumPorts; p++ {
			for vc := 0; vc < vcs; vc++ {
				counted += int64(r.InVC(p, vc).Len())
			}
		}
	}
	n.eachFlitQueue(func(q *sim.Delay[noc.Flit]) { counted += int64(q.Len()) })
	if h, ok := n.Mech.(FlitHolder); ok {
		h.EachHeldFlit(func(noc.Flit) { counted++ })
	}
	if inFlight := n.Stats.InFlightFlits(); counted != inFlight {
		assert.Failf("flit conservation: stats say %d in flight but %d found in buffers/queues/latches at cycle %d",
			inFlight, counted, n.now)
	}
}

// linkSteady reports whether router id's credit state on port d can be
// held to strict conservation this cycle.
func (n *Network) linkSteady(id int, d topology.Direction) bool {
	if ls, ok := n.Mech.(LinkCreditSteady); ok {
		return ls.LinkCreditSteady(id, d)
	}
	return n.Mech.RouterOn(id)
}

// flitsPerVC tallies queued flits by their (downstream) VC index.
func flitsPerVC(q *sim.Delay[noc.Flit], vcs int) []int {
	counts := make([]int, vcs)
	if q != nil {
		q.Each(func(f noc.Flit) { counts[f.VC]++ })
	}
	return counts
}

// creditsPerVC tallies queued credit signals by VC index.
func creditsPerVC(q *sim.Delay[router.Signal], vcs int) []int {
	counts := make([]int, vcs)
	if q != nil {
		q.Each(func(s router.Signal) {
			if s.IsCredit {
				counts[s.VC]++
			}
		})
	}
	return counts
}

// checkCreditConservation verifies, per VC on every steady link, that
// sender credits + flits in flight + receiver buffer occupancy +
// credits in flight equals the buffer depth. Links whose endpoints are
// mid-transition (power-gated, draining credit games, awaiting a
// credit sync) are skipped — their counters deliberately track a
// logical neighbor further away.
func (n *Network) checkCreditConservation() {
	vcs := n.Cfg.VCsTotal()
	for id, r := range n.Routers {
		// Inter-router links: this router is the sender.
		for d := topology.Direction(0); d < topology.NumLinkDirs; d++ {
			nb := n.Mesh.Neighbor(id, d)
			if nb < 0 {
				continue
			}
			opp := d.Opposite()
			if !n.linkSteady(id, d) || !n.linkSteady(nb, opp) {
				continue
			}
			out := r.Out(d)
			flits := flitsPerVC(r.Ports[d].OutFlit, vcs)
			creds := creditsPerVC(r.Ports[d].InCtrl, vcs)
			recv := n.Routers[nb]
			for vc := 0; vc < vcs; vc++ {
				sum := out.Credits[vc] + flits[vc] + recv.InVC(opp, vc).Len() + creds[vc]
				if sum != out.Depth() {
					assert.Failf("credit conservation on link %d->%d vc %d: credits %d + in-flight %d + buffered %d + returning %d = %d, want depth %d (cycle %d)",
						id, nb, vc, out.Credits[vc], flits[vc], recv.InVC(opp, vc).Len(), creds[vc], sum, out.Depth(), n.now)
				}
			}
		}

		// Local link, both directions: NI -> router (injection) and
		// router -> NI (ejection).
		if !n.linkSteady(id, topology.Local) {
			continue
		}
		ni := n.NIs[id]
		inj := flitsPerVC(r.Ports[topology.Local].InFlit, vcs)
		injCreds := creditsPerVC(r.Ports[topology.Local].OutCtrl, vcs)
		niOut := ni.OutState()
		for vc := 0; vc < vcs; vc++ {
			sum := niOut.Credits[vc] + inj[vc] + r.InVC(topology.Local, vc).Len() + injCreds[vc]
			if sum != niOut.Depth() {
				assert.Failf("credit conservation on ni %d injection vc %d: credits %d + in-flight %d + buffered %d + returning %d = %d, want depth %d (cycle %d)",
					id, vc, niOut.Credits[vc], inj[vc], r.InVC(topology.Local, vc).Len(), injCreds[vc], sum, niOut.Depth(), n.now)
			}
		}
		ej := flitsPerVC(r.Ports[topology.Local].OutFlit, vcs)
		ejCreds := creditsPerVC(r.Ports[topology.Local].InCtrl, vcs)
		out := r.Out(topology.Local)
		for vc := 0; vc < vcs; vc++ {
			// The NI ejects instantly, so nothing is ever buffered on its
			// side of the link.
			sum := out.Credits[vc] + ej[vc] + ejCreds[vc]
			if sum != out.Depth() {
				assert.Failf("credit conservation on ni %d ejection vc %d: credits %d + in-flight %d + returning %d = %d, want depth %d (cycle %d)",
					id, vc, out.Credits[vc], ej[vc], ejCreds[vc], sum, out.Depth(), n.now)
			}
		}
	}
}
