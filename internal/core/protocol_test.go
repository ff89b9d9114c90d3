package core

// Regression tests for the distributed-protocol races found by the
// gating-churn stress campaign (see DESIGN.md, "Protocol completions
// beyond the paper's text"). Each test pins one fix with a white-box
// scenario on a bare network.

import (
	"testing"

	"flov/internal/noc"
	"flov/internal/router"
	"flov/internal/topology"
)

// drainCtrl pops every control signal currently visible on a port's
// outbound control channel at cycle `at`.
func drainCtrl(w *flovRouter, d topology.Direction, at int64) []router.Signal {
	var out []router.Signal
	q := w.r.Ports[d].OutCtrl
	if q == nil {
		return nil
	}
	for s, ok := q.Pop(at); ok; s, ok = q.Pop(at) {
		out = append(out, s)
	}
	return out
}

// msgsOf filters handshake messages from signals.
func msgsOf(sigs []router.Signal) []Msg {
	var ms []Msg
	for _, s := range sigs {
		if !s.IsCredit {
			ms = append(ms, s.Msg.(Msg))
		}
	}
	return ms
}

// Fix 1: control signals relayed by a power-gated router are registered —
// 2 cycles per hop, matching the FLOV latch datapath — so a drain_done
// can never overtake data flits on the same line.
func TestRelayedControlIsRegistered(t *testing.T) {
	_, mech := newBareNet(t, true)
	w := mech.ws[27]
	w.state = Sleep
	w.coreGated = true // keep it asleep: no wakeup trigger during the test
	w.now = 100

	// A credit arriving from the East must appear on the West output no
	// earlier than two cycles later.
	w.r.Ports[topology.East].InCtrl.Push(99, router.CreditSignal(2))
	w.Tick(100) // relays
	outQ := w.r.Ports[topology.West].OutCtrl
	if _, ok := outQ.Pop(101); ok {
		t.Fatal("relayed credit visible after 1 cycle — it could overtake data flits")
	}
	s, ok := outQ.Pop(102)
	if !ok || !s.IsCredit || s.VC != 2 {
		t.Fatalf("relayed credit not visible after 2 cycles: %v %v", s, ok)
	}
}

// Fix 2: drain_done replies are addressed; a sleeping router drops a late
// reply addressed to itself instead of relaying it into the next draining
// router on the line.
func TestSleepingRouterDropsStaleOwnReply(t *testing.T) {
	_, mech := newBareNet(t, true)
	w := mech.ws[27]
	w.state = Sleep
	w.coreGated = true

	w.r.Ports[topology.East].InCtrl.Push(99, router.CtrlSignal(Msg{Type: MsgDrainDone, From: 28, To: 27}))
	w.Tick(100)
	if sigs := drainCtrl(w, topology.West, 200); len(sigs) != 0 {
		t.Fatalf("stale reply relayed onward: %v", sigs)
	}

	// A reply for someone else must be relayed.
	w.r.Ports[topology.East].InCtrl.Push(100, router.CtrlSignal(Msg{Type: MsgDrainDone, From: 28, To: 25}))
	w.Tick(101)
	ms := msgsOf(drainCtrl(w, topology.West, 200))
	if len(ms) != 1 || ms[0].Type != MsgDrainDone || ms[0].To != 25 {
		t.Fatalf("foreign reply not relayed: %v", ms)
	}
}

// Fix 5: a drain/wakeup request whose whole line is power-gated is
// answered with a drain_done by the router at the mesh edge, on behalf of
// the dead end, instead of dying silently.
func TestDeadEndRequestBounces(t *testing.T) {
	_, mech := newBareNet(t, true)
	// Router 7 = (7,0): no East neighbor beyond it... use router 6's east
	// neighbor 7? Use an edge-adjacent sleeping router: router 57 = (1,7)
	// top row; a request travelling north into it cannot continue.
	w := mech.ws[57]
	w.state = Sleep
	w.coreGated = true
	w.flovY = false // top-row router: no vertical FLOV dimension

	// Request arrives on the South port heading North (no neighbor).
	w.r.Ports[topology.South].InCtrl.Push(99, router.CtrlSignal(Msg{Type: MsgWakeupReq, From: 49, To: -1}))
	w.Tick(100)
	ms := msgsOf(drainCtrl(w, topology.South, 200))
	found := false
	for _, m := range ms {
		if m.Type == MsgDrainDone && m.To == 49 {
			found = true
		}
	}
	if !found {
		t.Fatalf("dead-end wakeup request not bounced: %v", ms)
	}
}

// Fix 4b: a credit sync that was superseded (its port already reset by a
// newer MsgAwake or MsgSleep) must be dropped, not applied — applying it
// would erase credits consumed since the reset.
func TestSupersededCreditSyncDropped(t *testing.T) {
	_, mech := newBareNet(t, true)
	w := mech.ws[27]
	d := topology.East
	out := w.r.Out(d)
	// Simulate: partner's Awake already reset the port to full and two
	// credits were since consumed.
	out.SetFull()
	w.awaitSync[int(d)] = false
	out.Consume(0)
	out.Consume(0)

	w.onCreditSync(d, Msg{Type: MsgCreditSync, From: 28, To: 27, Counts: []int{6, 6, 6, 6}})
	if out.Credits[0] != 4 {
		t.Fatalf("superseded sync applied: credits[0] = %d, want 4", out.Credits[0])
	}

	// A sync that IS awaited applies.
	w.awaitSync[int(d)] = true
	w.onCreditSync(d, Msg{Type: MsgCreditSync, From: 28, To: 27, Counts: []int{3, 3, 3, 3}})
	if out.Credits[0] != 3 || w.awaitSync[int(d)] {
		t.Fatalf("awaited sync not applied: credits[0] = %d awaitSync=%v", out.Credits[0], w.awaitSync[int(d)])
	}
}

// Fix 4a: after a wakeup commit, credits arriving before the sync are
// dropped (they are already included in the sync snapshot).
func TestPostWakeupCreditsQuarantined(t *testing.T) {
	_, mech := newBareNet(t, true)
	w := mech.ws[27]
	d := topology.East
	w.awaitSync[int(d)] = true
	w.r.Out(d).SetZero()

	w.state = Active
	w.r.Ports[d].InCtrl.Push(99, router.CreditSignal(0))
	w.r.Tick(100)
	if got := w.r.Out(d).Credits[0]; got != 0 {
		t.Fatalf("quarantined credit applied: %d", got)
	}
	// After the sync, credits flow again.
	w.onCreditSync(d, Msg{Type: MsgCreditSync, From: 28, To: 27, Counts: []int{2, 2, 2, 2}})
	w.r.Ports[d].InCtrl.Push(100, router.CreditSignal(0))
	w.r.Tick(101)
	if got := w.r.Out(d).Credits[0]; got != 3 {
		t.Fatalf("post-sync credit lost: %d", got)
	}
}

// Fix 6: aborting a drain announces to EVERY handshake partner, including
// those that already sent their drain_done — otherwise they keep the
// aborter marked Draining and freeze the line forever.
func TestAbortDrainAnnouncesToAllPartners(t *testing.T) {
	_, mech := newBareNet(t, true)
	w := mech.ws[27]
	w.now = 100
	w.startDrain(100)
	// Two partners replied already.
	w.doneNeeded[int(topology.North)] = false
	w.doneNeeded[int(topology.East)] = false
	// Drain the request messages so only the aborts remain.
	for d := 0; d < topology.NumLinkDirs; d++ {
		drainCtrl(w, topology.Direction(d), 200)
	}

	w.abortDrain()
	for d := 0; d < topology.NumLinkDirs; d++ {
		ms := msgsOf(drainCtrl(w, topology.Direction(d), 300))
		found := false
		for _, m := range ms {
			if m.Type == MsgDrainAbort {
				found = true
			}
		}
		if !found {
			t.Fatalf("no DrainAbort announced toward %v (partner would stay frozen)", topology.Direction(d))
		}
	}
	if w.state != Active {
		t.Fatalf("state after abort: %v", w.state)
	}
}

// Fix 3: a power-state change invalidates routes computed under the old
// state for packets that have not yet been granted a downstream VC.
func TestReRouteOnPowerChange(t *testing.T) {
	n, mech := newBareNet(t, true)
	w := mech.ws[27]
	r := n.Routers[27]

	// Put a packet in VCWaitVC toward East.
	p := n.NewPacket(27, 29, 0, 1)
	ivc := r.InVC(topology.Local, 0)
	ivc.OutDir = topology.East
	ivc.RCCycle = 5
	r.SetVCState(topology.Local, 0, noc.VCWaitVC)
	_ = p

	w.onSleep(topology.East, Msg{Type: MsgSleep, From: 28, To: -1, LogID: 29, LogState: Active, Counts: []int{6, 6, 6, 6}})
	if ivc.State != noc.VCRouting {
		t.Fatalf("pending route not invalidated on MsgSleep: state=%v", ivc.State)
	}
}

// Transition timeout: a Draining router that cannot quiesce aborts and
// retries rather than freezing its lines forever.
func TestDrainTimeoutAborts(t *testing.T) {
	_, mech := newBareNet(t, true)
	w := mech.ws[27]
	w.coreGated = true
	w.now = 100
	w.startDrain(100)
	// A partner never replies; ticks pass the timeout.
	w.tickDraining(100 + int64(w.cfg.TransitionTimeout) + 1)
	if w.state != Active {
		t.Fatalf("drain did not time out: %v", w.state)
	}
	if w.retryAt <= 100 {
		t.Fatal("no retry backoff set")
	}
}

// Wakeup timeout: a Wakeup router that cannot quiesce goes back to Sleep
// (its latches never stopped forwarding, so this is safe) and announces
// the abort.
func TestWakeupTimeoutAborts(t *testing.T) {
	_, mech := newBareNet(t, true)
	w := mech.ws[27]
	w.state = Sleep
	w.coreGated = true
	w.wantWake = true
	w.now = 100
	w.startWakeup(100)
	if w.state != Wakeup {
		t.Fatal("wakeup did not start")
	}
	for d := 0; d < topology.NumLinkDirs; d++ {
		drainCtrl(w, topology.Direction(d), 5000) // discard the requests
	}
	w.now = 100 + int64(w.cfg.TransitionTimeout) + 1
	w.tickWakeup(w.now)
	if w.state != Sleep {
		t.Fatalf("wakeup did not abort to Sleep: %v", w.state)
	}
	ms := msgsOf(drainCtrl(w, topology.East, 9000))
	found := false
	for _, m := range ms {
		if m.Type == MsgWakeupAbort {
			found = true
		}
	}
	if !found {
		t.Fatalf("no WakeupAbort announced: %v", ms)
	}
}
