// Package rp implements the Router Parking baseline (Samih et al.,
// HPCA 2013) as described in the FLOV paper's evaluation: a centralized
// Fabric Manager (FM) that, on every core power-state change, stalls all
// new packet injections, recomputes which routers to park and the routing
// tables over the remaining active subgraph, distributes the tables
// (Phase I, >700 cycles), and only then resumes the network.
//
// The aggressive parking policy is modeled (park every gated-core router
// whose removal keeps the active subgraph connected), which the paper
// uses for its workload-independent static power comparison (Fig. 9).
// Routing tables are shortest-path next hops constrained to up*/down*
// legality on a BFS spanning tree rooted at the FM, so table routing is
// deadlock-free; detours around parked regions appear exactly where
// parking forces them.
package rp

import (
	"sort"

	"flov/internal/network"
	"flov/internal/nlog"
	"flov/internal/noc"
	"flov/internal/power"
	"flov/internal/routing"
	"flov/internal/topology"
)

// Mechanism is the Router Parking scheme plugged into a network.Network.
type Mechanism struct {
	net    *network.Network
	ledger *power.Ledger //flovsnap:skip wiring installed by network.New

	fmNode int // router hosting the fabric manager (and up*/down* root)

	parked []bool
	table  *routing.Table

	// Reconfiguration state (Phase I).
	reconfiguring bool
	reconfigReady int64  // cycle Phase I completes
	pendingGated  []bool // core mask to apply at the end of Phase I

	// faultPermSeen is the last fault.Injector.PermanentVersion the FM
	// reconfigured for; transient faults never trigger reconfiguration.
	faultPermSeen int64

	reconfigs  int64
	stallStart int64
}

// forcedApplyGrace bounds how long a reconfiguration waits for the
// network to empty once permanent faults exist: flits wedged in dead
// hardware would otherwise stall Phase I forever. Only fault-injection
// runs ever take this path.
const forcedApplyGrace = 2048

// New returns a Router Parking mechanism with the fabric manager at node
// 0 (the south-west corner, a memory-controller node in the full-system
// configuration).
func New() *Mechanism { return &Mechanism{fmNode: 0} }

// Name implements network.Mechanism.
func (m *Mechanism) Name() string { return "RP" }

// Attach installs table routing on every router, with all routers active.
func (m *Mechanism) Attach(n *network.Network) {
	m.net = n
	m.ledger = n.Ledger
	m.parked = make([]bool, n.Cfg.N())
	allActive := make([]bool, n.Cfg.N())
	for i := range allActive {
		allActive[i] = true
	}
	t, err := routing.BuildUpDownTable(n.Mesh, allActive, m.fmNode)
	if err != nil {
		panic("rp: initial table: " + err.Error())
	}
	m.table = t
	for id, r := range n.Routers {
		cur := id
		r.RouteFn = func(inDir topology.Direction, escape bool, pkt *noc.Packet) routing.Decision {
			d := m.table.NextHop(cur, pkt.Dst)
			if d == routing.NoRouteDir {
				// Without faults this cannot occur: traffic only targets
				// active cores, whose routers are never parked. Permanent
				// faults can cut a destination off, in which case the
				// network's fault filter classifies the packet.
				return routing.Decision{NoRoute: true}
			}
			return routing.Decision{Dir: d}
		}
	}
}

// OnGatingChange starts (or restarts) a reconfiguration epoch: Phase I
// stalls every injection while the FM recomputes and distributes state.
func (m *Mechanism) OnGatingChange(now int64, gated []bool) {
	m.pendingGated = append([]bool(nil), gated...) //flovlint:allow hotalloc -- pending mask copy happens only on gating-change events
	activeRouters := 0
	for _, p := range m.parked {
		if !p {
			activeRouters++
		}
	}
	phase1 := int64(m.net.Cfg.RPPhase1Base + m.net.Cfg.RPPhase1PerNode*activeRouters)
	if !m.reconfiguring {
		m.stallStart = now
	}
	m.reconfiguring = true
	m.reconfigReady = now + phase1
	m.reconfigs++
	if m.net.Trace != nil {
		m.net.Trace.Addf(now, nlog.KReconfig, -1, "FM Phase I begins: network stalled for >= %d cycles", phase1) //flovlint:allow hotalloc -- opt-in reconfiguration tracing
	}
	// Table distribution traffic: one control message per active router.
	m.ledger.AddDyn(power.CatHandshake, activeRouters)
}

// TickRouters advances active routers, skipping quiet ones, and
// progresses reconfiguration.
func (m *Mechanism) TickRouters(now int64) {
	for id, r := range m.net.Routers {
		if !m.parked[id] {
			r.TickDue(now)
		}
	}
	if m.reconfiguring && now >= m.reconfigReady &&
		(m.networkEmpty() || (m.net.FaultsEver() && now >= m.reconfigReady+forcedApplyGrace)) {
		m.applyReconfiguration(now)
	}
}

// OnFaultChange implements network.FaultAware: when the set of permanent
// faults grows, the FM must rebuild its tables around the dead hardware —
// modeled as a fresh reconfiguration epoch over the current core mask.
// Transient faults heal on their own and are ignored.
func (m *Mechanism) OnFaultChange(now int64) {
	inj := m.net.Faults
	if inj == nil {
		return
	}
	if v := inj.PermanentVersion(); v != m.faultPermSeen {
		m.faultPermSeen = v
		m.OnGatingChange(now, m.pendingGated)
	}
}

// networkEmpty reports whether no flits remain in flight (stalled
// injections guarantee this converges).
func (m *Mechanism) networkEmpty() bool {
	return m.net.Stats.InFlightFlits() == 0
}

// applyReconfiguration commits the new parked set and routing tables and
// releases the injection stall.
func (m *Mechanism) applyReconfiguration(now int64) {
	newParked := m.computeParkedSet(m.pendingGated)
	active := make([]bool, len(newParked)) //flovlint:allow hotalloc -- reconfiguration is event-driven, not per-cycle work
	for i, p := range newParked {
		active[i] = !p && !m.routerDead(i)
	}
	t, err := routing.BuildUpDownTableLinks(m.net.Mesh, active, m.fmNode, m.linkOK())
	if err != nil {
		// Table construction can only fail under faults (e.g. the FM node
		// itself died permanently). Keep the old table — surviving routes
		// still work and unroutable packets are classified by the fault
		// filter — instead of bringing the run down.
		if m.net.Trace != nil {
			m.net.Trace.Addf(now, nlog.KReconfig, -1, "FM reconfiguration kept old table: %v", err)
		}
		m.reconfiguring = false
		return
	}
	// Power-gating transitions for every router changing state.
	for i := range newParked {
		if newParked[i] != m.parked[i] {
			m.ledger.AddDyn(power.CatGating, 1)
		}
	}
	m.table = t
	m.parked = newParked
	m.reconfiguring = false
	// Unparked routers resume with whatever their skip state was when
	// they were parked; re-examine every router under the new tables.
	for _, r := range m.net.Routers {
		r.Rouse()
	}
	if m.net.Trace != nil {
		on, gated := m.RouterPowerCounts()
		m.net.Trace.Addf(now, nlog.KReconfig, -1,
			"FM reconfiguration applied after %d stalled cycles: %d parked, %d active",
			now-m.stallStart, gated, on) //flovlint:allow hotalloc -- opt-in reconfiguration tracing
	}
}

// computeParkedSet greedily parks gated-core routers while keeping the
// active subgraph connected (the aggressive policy): candidates in id
// order, each parked only if the remaining active routers stay one
// component.
func (m *Mechanism) computeParkedSet(gated []bool) []bool {
	n := m.net.Cfg.N()
	parked := make([]bool, n) //flovlint:allow hotalloc -- reconfiguration is event-driven, not per-cycle work
	active := make([]bool, n) //flovlint:allow hotalloc -- reconfiguration is event-driven, not per-cycle work
	for i := 0; i < n; i++ {
		active[i] = !m.routerDead(i)
	}
	linkOK := m.linkOK()
	// The FM is centralized and sees all pending traffic: a router whose
	// node still has packets queued toward it must not be parked, or the
	// packets would become unroutable.
	hasPending := make([]bool, n) //flovlint:allow hotalloc -- reconfiguration is event-driven, not per-cycle work
	for _, ni := range m.net.NIs {
		ni.EachPending(func(p *noc.Packet) { hasPending[p.Dst] = true })
	}
	var candidates []int
	for i := 0; i < n; i++ {
		if gated[i] && i != m.fmNode && !hasPending[i] {
			candidates = append(candidates, i) //flovlint:allow hotalloc -- reconfiguration is event-driven, not per-cycle work
		}
	}
	sort.Ints(candidates)
	for _, c := range candidates {
		if !active[c] {
			continue // already permanently dead; not "parked", just gone
		}
		active[c] = false
		if routing.ConnectedLinks(m.net.Mesh, active, linkOK) {
			parked[c] = true
		} else {
			active[c] = true
		}
	}
	return parked
}

// routerDead reports whether router id has failed permanently (always
// false without an attached fault injector).
func (m *Mechanism) routerDead(id int) bool {
	return m.net.Faults != nil && m.net.Faults.RouterPermanentlyDown(id)
}

// linkOK returns the usable-link predicate for table construction: nil
// (all links) without faults, otherwise links not permanently dead.
// Transient faults are deliberately included as usable — they heal, and
// rebuilding 700-cycle-stall tables around them would thrash.
func (m *Mechanism) linkOK() func(u int, d topology.Direction) bool {
	inj := m.net.Faults
	if inj == nil || !inj.HasPermanent() {
		return nil
	}
	return func(u int, d topology.Direction) bool { return !inj.LinkPermanentlyDown(u, d) } //flovlint:allow hotalloc -- fault-aware link filter built once per reconfiguration
}

// CanInject stalls all injections during Phase I (the paper: "the network
// has to stall and no new injections are allowed").
func (m *Mechanism) CanInject(node int) bool { return !m.reconfiguring }

// RouterPowerCounts: parked routers burn residual leakage.
func (m *Mechanism) RouterPowerCounts() (on, gated int) {
	for _, p := range m.parked {
		if p {
			gated++
		} else {
			on++
		}
	}
	return on, gated
}

// RouterOn reports whether router id is unparked.
func (m *Mechanism) RouterOn(id int) bool { return !m.parked[id] }

// FLOVCapable is false: RP routers have no FLOV latches or HSC overhead.
func (m *Mechanism) FLOVCapable() bool { return false }

// Quiescent reports whether no reconfiguration is pending.
func (m *Mechanism) Quiescent() bool { return !m.reconfiguring }

// Reconfigs returns how many reconfiguration epochs have run.
func (m *Mechanism) Reconfigs() int64 { return m.reconfigs }

// ParkedIDs lists currently parked routers.
func (m *Mechanism) ParkedIDs() []int {
	var ids []int
	for id, p := range m.parked {
		if p {
			ids = append(ids, id)
		}
	}
	return ids
}

var _ network.Mechanism = (*Mechanism)(nil)
