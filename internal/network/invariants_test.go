package network

import (
	"math"
	"strings"
	"testing"

	"flov/internal/config"
	"flov/internal/noc"
	"flov/internal/router"
	"flov/internal/topology"
	"flov/internal/traffic"
)

// TestBaselineInvariantsEveryCycle drives a baseline network step by
// step with the invariant walk after every cycle, independent of the
// flovdebug build tag. Baseline never rewrites credit counters, so every
// link is held to strict per-VC credit conservation the whole run.
func TestBaselineInvariantsEveryCycle(t *testing.T) {
	const total = 5000
	cfg := config.Default()
	cfg.TotalCycles = total
	cfg.WarmupCycles = total / 10
	mesh := mustMesh(t, cfg)
	gen := traffic.NewGenerator(traffic.Uniform, mesh, nil)
	n, err := New(cfg, NewBaseline(), nil, gen, 0.08)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for c := int64(0); c < total; c++ {
		n.Step()
		n.CheckInvariants()
	}
}

// TestVCMaskInvariantCatchesDesync shows the mask check fires when a VC
// state changes behind the router's back: only the router may write
// InputVC.State, and this test breaks that rule on purpose.
func TestVCMaskInvariantCatchesDesync(t *testing.T) {
	cfg := config.Default()
	cfg.TotalCycles = 1000
	cfg.WarmupCycles = 100
	gen := traffic.NewGenerator(traffic.Uniform, mustMesh(t, cfg), nil)
	n, err := New(cfg, NewBaseline(), nil, gen, 0.02)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	n.CheckInvariants()
	n.Routers[5].InVC(topology.East, 2).State = noc.VCActive
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "recount from VC states") {
			t.Fatalf("desynced mask not reported: %q", msg)
		}
	}()
	n.CheckInvariants()
}

// TestQuietInvariantCatchesMissedWake shows the quiet check fires when a
// router's due cycle misses an input: it finds an idle router with a
// flit on the wire toward it and marks it quiet with no due cycle, as a
// lost Delay consumer registration would.
func TestQuietInvariantCatchesMissedWake(t *testing.T) {
	cfg := config.Default()
	cfg.TotalCycles = 1000
	cfg.WarmupCycles = 100
	gen := traffic.NewGenerator(traffic.Uniform, mustMesh(t, cfg), nil)
	n, err := New(cfg, NewBaseline(), nil, gen, 0.02)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var victim *router.Router
	for c := 0; c < 1000 && victim == nil; c++ {
		n.Step()
		n.CheckInvariants()
		for _, r := range n.Routers {
			if r.Quiet() != router.NotQuiet && r.Ports[topology.Local].InFlit.Len() > 0 {
				victim = r
				break
			}
		}
	}
	if victim == nil {
		t.Fatal("no idle router with an arriving flit in 1000 cycles")
	}
	victim.SetQuietState(router.QuietPowered, math.MaxInt64)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "missed wake") {
			t.Fatalf("missed wake not reported: %q", msg)
		}
	}()
	n.CheckInvariants()
}
