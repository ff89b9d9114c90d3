package router

import (
	"testing"

	"flov/internal/config"
	"flov/internal/noc"
	"flov/internal/power"
	"flov/internal/routing"
	"flov/internal/topology"
)

// recountMasks rebuilds the per-state masks from the VC states.
func recountMasks(r *Router) [numVCStates][topology.NumPorts]uint64 {
	var m [numVCStates][topology.NumPorts]uint64
	for p := topology.Direction(0); p < topology.NumPorts; p++ {
		for v := range r.in[p] {
			m[r.InVC(p, v).State][p] |= 1 << uint(v)
		}
	}
	return m
}

func masksOf(r *Router) [numVCStates][topology.NumPorts]uint64 {
	var m [numVCStates][topology.NumPorts]uint64
	for st := range m {
		for p := topology.Direction(0); p < topology.NumPorts; p++ {
			m[st][p] = r.StateMask(noc.VCState(st), p)
		}
	}
	return m
}

// TestMasksSurviveCaptureRestore drives packets through every pipeline
// state and, each cycle, restores a fresh router from the capture: its
// masks must equal both the original's and a recount.
func TestMasksSurviveCaptureRestore(t *testing.T) {
	cfg := config.Default()
	h := newHarness(t, cfg)
	// Starve downstream VC 1 of credits so the packet granted it lingers
	// in SA.
	h.r.Out(topology.East).Credits[1] = 0
	for i := 0; i < 3; i++ {
		ref, _ := h.packet(uint64(i+1), 0, 1, 4)
		for j, f := range h.flits(ref, i) {
			h.localIn.Push(int64(2*i+j), f)
		}
	}
	// Packet 3 finds no route until cycle 10, so it waits in RC.
	h.r.RouteFn = func(_ topology.Direction, _ bool, pkt *noc.Packet) routing.Decision {
		if pkt.ID == 3 && h.now < 10 {
			return routing.Decision{NoRoute: true}
		}
		return routing.Decision{Dir: topology.East}
	}
	seen := make(map[noc.VCState]bool)
	for h.now < 16 {
		h.step()
		orig := masksOf(h.r)
		if want := recountMasks(h.r); orig != want {
			t.Fatalf("cycle %d: masks %v, recount %v", h.now, orig, want)
		}
		tab := noc.NewPacketTable(h.r.Pkts)
		s := h.r.CaptureState(tab)
		pkts := noc.NewArena()
		refs := make([]noc.PacketRef, len(tab.List))
		for i, p := range tab.List {
			refs[i] = pkts.Add(*p)
		}
		fresh := New(0, cfg, h.r.Mesh, power.NewLedger(power.NewModel(cfg)), pkts)
		if err := fresh.RestoreState(s, refs); err != nil {
			t.Fatal(err)
		}
		if got := masksOf(fresh); got != orig {
			t.Fatalf("cycle %d: restored masks %v, original %v", h.now, got, orig)
		}
		for st := range orig {
			if orig[st][topology.Local] != 0 {
				seen[noc.VCState(st)] = true
			}
		}
	}
	for _, st := range []noc.VCState{noc.VCRouting, noc.VCWaitVC, noc.VCActive} {
		if !seen[st] {
			t.Errorf("no VC was ever in state %v; the test no longer covers it", st)
		}
	}
}
