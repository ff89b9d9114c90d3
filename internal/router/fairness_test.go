package router

import (
	"testing"

	"flov/internal/config"
)

// Switch allocation must never grant two flits to one output port (or
// take two flits from one input port) in a single cycle.
func TestSAOneFlitPerPortPerCycle(t *testing.T) {
	cfg := config.Default()
	h := newHarness(t, cfg)
	// Saturate: three packets on distinct input VCs, all wanting East.
	for i := 0; i < 3; i++ {
		ref, _ := h.packet(uint64(i+1), 0, 1, 4)
		for j, f := range h.flits(ref, i) {
			h.localIn.Push(int64(j), f)
		}
	}
	for h.now < 40 {
		h.step()
		if count := len(popAll(h.eastOut, h.now)); count > 1 {
			t.Fatalf("cycle %d: %d flits crossed one output port", h.now, count)
		}
	}
}

// VC allocation round-robin: with three packets contending for the same
// output, every one of them is eventually granted (no starvation).
func TestVAFairness(t *testing.T) {
	cfg := config.Default()
	h := newHarness(t, cfg)
	for i := 0; i < 3; i++ {
		ref, _ := h.packet(uint64(i+1), 0, 1, 4)
		for j, f := range h.flits(ref, i) {
			h.localIn.Push(int64(i*4+j), f)
		}
	}
	delivered := map[uint64]bool{}
	for h.now < 80 {
		h.step()
		for _, f := range popAll(h.eastOut, h.now) {
			if f.Type.IsTail() {
				delivered[h.r.Pkts.Get(f.Pkt).ID] = true
			}
			// Echo credits so nothing starves on flow control.
			h.eastCred.Push(h.now, CreditSignal(int(f.VC)))
		}
	}
	for id := uint64(1); id <= 3; id++ {
		if !delivered[id] {
			t.Fatalf("packet %d starved", id)
		}
	}
}

// Distinct downstream VCs: two packets allocated to one output port in
// flight simultaneously must hold different output VCs.
func TestVADistinctDownstreamVCs(t *testing.T) {
	cfg := config.Default()
	h := newHarness(t, cfg)
	for i := 0; i < 2; i++ {
		ref, _ := h.packet(uint64(i+1), 0, 1, 4)
		for j, f := range h.flits(ref, i) {
			h.localIn.Push(int64(j), f)
		}
	}
	seen := map[uint64]int{}
	for h.now < 40 {
		h.step()
		for _, f := range popAll(h.eastOut, h.now) {
			id, vc := h.r.Pkts.Get(f.Pkt).ID, int(f.VC)
			if prev, ok := seen[id]; ok && prev != vc {
				t.Fatalf("packet %d changed downstream VC mid-flight: %d -> %d", id, prev, vc)
			}
			seen[id] = vc
		}
	}
	if len(seen) == 2 && seen[1] == seen[2] {
		t.Fatalf("both in-flight packets share downstream VC %d", seen[1])
	}
}
