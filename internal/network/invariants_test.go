package network

import (
	"strings"
	"testing"

	"flov/internal/config"
	"flov/internal/noc"
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
