package core

import (
	"flov/internal/noc"
	"flov/internal/router"
	"flov/internal/topology"
)

// onCtrl handles handshake messages while the router is Active or
// Draining (the baseline router dispatches non-credit control signals
// here during its Tick).
func (w *flovRouter) onCtrl(d topology.Direction, msg any) {
	m, ok := msg.(Msg)
	if !ok {
		return
	}
	switch m.Type {
	case MsgDrainReq:
		w.onDrainReq(d, m)
	case MsgDrainAbort:
		w.onDrainAbort(d, m)
	case MsgDrainReject:
		if m.To != w.id {
			w.relay(d, router.CtrlSignal(m))
		} else if w.state == Draining {
			w.abortDrain()
		}
	case MsgDrainDone:
		if m.To != w.id {
			w.relay(d, router.CtrlSignal(m))
		} else if w.state == Draining {
			w.doneNeeded[d] = false
		}
	case MsgSleep:
		w.onSleep(d, m)
	case MsgWakeupReq:
		w.onWakeupReq(d, m)
	case MsgWakeupAbort:
		w.onWakeupAbort(d, m)
	case MsgAwake:
		w.onAwake(d, m)
	case MsgCreditSync:
		w.onCreditSync(d, m)
	case MsgWakeTarget:
		// Already awake (the requester raced our wakeup) — nothing to do
		// if it names us; otherwise pass it along its line.
		if m.Target != w.id {
			w.relay(d, router.CtrlSignal(m))
		}
	}
}

// onDrainReq handles a logical partner entering Draining.
func (w *flovRouter) onDrainReq(d topology.Direction, m Msg) {
	switch w.state {
	case Draining:
		// Simultaneous drains on one line: the smaller router id wins.
		if m.From < w.id {
			w.abortDrain()
			w.acceptDrainReq(d, m)
		} else {
			w.send(d, Msg{Type: MsgDrainReject, From: w.id, To: m.From})
		}
	default: // Active
		w.acceptDrainReq(d, m)
	}
}

// acceptDrainReq records the partner's Draining state and schedules the
// drain_done reply for once no packets remain committed that way.
func (w *flovRouter) acceptDrainReq(d topology.Direction, m Msg) {
	w.r.ReRoute(d)
	if m.From == w.physID[d] {
		w.physState[d] = Draining
	}
	if m.From == w.logID[d] {
		w.logState[d] = Draining
	}
	w.addOwe(d, m.From)
}

// onDrainAbort clears a partner's Draining state.
func (w *flovRouter) onDrainAbort(d topology.Direction, m Msg) {
	w.r.ReRoute(d)
	if m.From == w.physID[d] {
		w.physState[d] = Active
	}
	if m.From == w.logID[d] {
		w.logState[d] = Active
	}
	w.removeOwe(d, m.From)
}

// onSleep performs the credit copy-up of Fig. 3 (d)-(e): the sleeping
// partner's far-side credit counters become ours for this output, its
// far-side logical neighbor becomes our logical neighbor, and new packet
// transmissions over the fly-over path may begin.
func (w *flovRouter) onSleep(d topology.Direction, m Msg) {
	w.r.ReRoute(d)
	out := w.r.Out(d)
	out.SetZero()
	if m.Counts != nil {
		out.CopyCounts(m.Counts)
	}
	if router.TraceCredit != nil {
		router.TraceCredit(w.id, d, -1, 0, "copy-sleep")
	}
	// The copy-up snapshot is authoritative; any pending sync is moot.
	w.awaitSync[d] = false
	w.logID[d] = m.LogID
	if m.LogID >= 0 {
		w.logState[d] = m.LogState
	} else {
		w.logState[d] = Active
	}
	if m.From == w.physID[d] {
		w.physState[d] = Sleep
	}
	w.removeOwe(d, m.From)
}

// onWakeupReq handles a router on our line powering back up.
func (w *flovRouter) onWakeupReq(d topology.Direction, m Msg) {
	w.r.ReRoute(d)
	if w.state == Draining {
		// Draining-Wakeup pairs are forbidden and Wakeup has priority.
		w.abortDrain()
	}
	if m.From == w.physID[d] {
		w.physState[d] = Wakeup
	}
	// Unconditional: somewhere on this line a router is powering up, so
	// no new packets may be committed across it until its MsgAwake (its
	// latches must drain for it to finish).
	w.logState[d] = Wakeup
	w.addOwe(d, m.From)
}

// onWakeupAbort unfreezes a line whose waker timed out and went back to
// Sleep; it will retry after a backoff.
func (w *flovRouter) onWakeupAbort(d topology.Direction, m Msg) {
	w.r.ReRoute(d)
	if m.From == w.physID[d] {
		w.physState[d] = Sleep
	}
	w.logState[d] = Active
	w.removeOwe(d, m.From)
}

// onAwake finishes a partner's wakeup: it becomes the logical neighbor
// with empty buffers (full credits), and we send it a credit sync for our
// input buffers so it can track us as its downstream.
func (w *flovRouter) onAwake(d topology.Direction, m Msg) {
	w.r.ReRoute(d)
	w.logID[d] = m.From
	w.logState[d] = Active
	if m.From == w.physID[d] {
		w.physState[d] = Active
	}
	if router.TraceCredit != nil {
		router.TraceCredit(w.id, d, -1, 0, "full-awake")
	}
	w.r.Out(d).SetFull()
	// A full reset supersedes any pending credit sync on this port (the
	// sync we were waiting for may have been consumed by this router
	// while it was still waking).
	w.awaitSync[d] = false
	w.removeOwe(d, m.From)
	w.send(d, Msg{Type: MsgCreditSync, From: w.id, To: m.From, Counts: w.inputFreeCounts(d)})
}

// onCreditSync applies a reply to our own MsgAwake: rebuild the output
// credit counters toward the replying logical neighbor. Allocation state
// is preserved (a packet may already hold a VC while its credits were
// still zero). From here on, per-flit credits from this direction are
// live again.
func (w *flovRouter) onCreditSync(d topology.Direction, m Msg) {
	if m.To != w.id {
		w.relay(d, router.CtrlSignal(m))
		return
	}
	if !w.awaitSync[d] {
		// A newer authority (the partner's own MsgAwake SetFull, or a
		// MsgSleep copy-up) already reset this port while the sync was
		// in flight; applying the older snapshot would erase credits
		// consumed since. Simultaneous wakeups of two logical partners
		// hit exactly this interleaving.
		return
	}
	w.awaitSync[d] = false
	w.r.Out(d).CopyCounts(m.Counts)
	if router.TraceCredit != nil {
		router.TraceCredit(w.id, d, -1, 0, "copy-sync")
	}
}

// inputFreeCounts snapshots the free slots of every VC on input port d,
// accounting for flits still in flight on the input link (their slots
// are already spoken for).
func (w *flovRouter) inputFreeCounts(d topology.Direction) []int {
	vcs := w.cfg.VCsTotal()
	free := make([]int, vcs)
	for v := 0; v < vcs; v++ {
		free[v] = w.cfg.BufferDepth - w.r.InVC(d, v).Len()
	}
	if q := w.r.Ports[d].InFlit; q != nil {
		q.Each(func(f noc.Flit) { free[f.VC]-- })
	}
	return free
}
