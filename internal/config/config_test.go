package config

import (
	"strings"
	"testing"
)

func TestDefaultMatchesTableI(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if c.Width != 8 || c.Height != 8 {
		t.Error("mesh must be 8x8")
	}
	if c.BufferDepth != 6 {
		t.Error("buffer depth must be 6 flits")
	}
	if c.RouterStages != 3 {
		t.Error("router must be 3-stage")
	}
	if c.VCsPerVNet != 3 || c.EscapePerVNet != 1 {
		t.Error("3 regular + 1 escape VC per vnet")
	}
	if c.PacketSize != 4 {
		t.Error("4 flits/packet")
	}
	if c.ClockHz != 2e9 {
		t.Error("2 GHz clock")
	}
	if c.GatingOverheadPJ != 17.7 {
		t.Error("17.7 pJ gating overhead")
	}
	if c.WakeupLatency != 10 {
		t.Error("10-cycle wakeup latency")
	}
}

func TestFullSystemVNets(t *testing.T) {
	c := FullSystem()
	if c.VNets != 3 {
		t.Fatalf("full system needs 3 vnets, got %d", c.VNets)
	}
	if c.VCsTotal() != 12 {
		t.Fatalf("VCsTotal = %d, want 12", c.VCsTotal())
	}
}

func TestVCHelpers(t *testing.T) {
	c := FullSystem() // 3 vnets x (3 regular + 1 escape)
	if c.VCBase(0) != 0 || c.VCBase(1) != 4 || c.VCBase(2) != 8 {
		t.Fatal("VCBase wrong")
	}
	if c.EscapeVC(0) != 3 || c.EscapeVC(1) != 7 || c.EscapeVC(2) != 11 {
		t.Fatal("EscapeVC wrong")
	}
	for vc := 0; vc < c.VCsTotal(); vc++ {
		wantEscape := vc == 3 || vc == 7 || vc == 11
		if c.IsEscapeVC(vc) != wantEscape {
			t.Errorf("IsEscapeVC(%d) = %v", vc, c.IsEscapeVC(vc))
		}
		if c.VNetOf(vc) != vc/4 {
			t.Errorf("VNetOf(%d) = %d", vc, c.VNetOf(vc))
		}
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"tiny mesh", func(c *Config) { c.Width = 1 }},
		{"no buffers", func(c *Config) { c.BufferDepth = 0 }},
		{"no stages", func(c *Config) { c.RouterStages = 0 }},
		{"no regular VCs", func(c *Config) { c.VCsPerVNet = 0 }},
		{"no escape VCs", func(c *Config) { c.EscapePerVNet = 0 }},
		{"no vnets", func(c *Config) { c.VNets = 0 }},
		{"overflowing VC product", func(c *Config) { c.VNets, c.VCsPerVNet = 1<<62, 1<<62 }},
		{"zero link latency", func(c *Config) { c.LinkLatency = 0 }},
		{"zero packet", func(c *Config) { c.PacketSize = 0 }},
		{"packet exceeds buffer", func(c *Config) { c.PacketSize = 7 }},
		{"negative wakeup", func(c *Config) { c.WakeupLatency = -1 }},
		{"zero idle threshold", func(c *Config) { c.IdleThreshold = 0 }},
		{"zero escape timeout", func(c *Config) { c.EscapeTimeout = 0 }},
		{"zero flov hop", func(c *Config) { c.FLOVHopLatency = 0 }},
		{"warmup >= total", func(c *Config) { c.WarmupCycles = c.TotalCycles }},
		{"zero clock", func(c *Config) { c.ClockHz = 0 }},
	}
	for _, m := range mutations {
		c := Default()
		m.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: validation passed", m.name)
		}
	}
}

func TestParseMechanism(t *testing.T) {
	cases := map[string]Mechanism{
		"baseline": Baseline, "BASE": Baseline,
		"rp": RP, "Router-Parking": RP,
		"rflov": RFLOV, "rFLOV": RFLOV,
		"gflov": GFLOV, "generalized": GFLOV,
	}
	for s, want := range cases {
		got, err := ParseMechanism(s)
		if err != nil || got != want {
			t.Errorf("ParseMechanism(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseMechanism("nope"); err == nil {
		t.Error("unknown mechanism accepted")
	}
}

func TestMechanismString(t *testing.T) {
	want := map[Mechanism]string{Baseline: "Baseline", RP: "RP", RFLOV: "rFLOV", GFLOV: "gFLOV"}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q", int(m), m.String())
		}
	}
}

func TestMechanismsOrder(t *testing.T) {
	ms := Mechanisms()
	if len(ms) != 4 || ms[0] != Baseline || ms[1] != RP || ms[2] != RFLOV || ms[3] != GFLOV {
		t.Fatalf("canonical order broken: %v", ms)
	}
}

func TestTableIRendering(t *testing.T) {
	out := Default().TableI()
	for _, want := range []string{"8x8 Mesh", "6 flits", "3-stage", "17.7pJ", "wakeup latency = 10", "YX Routing", "2 GHz"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestValidateBoundsVCsPerPort(t *testing.T) {
	c := Default()
	c.VNets = 16 // 16 x (3 regular + 1 escape) = 64, the limit
	if err := c.Validate(); err != nil {
		t.Fatalf("64 VCs per port rejected: %v", err)
	}
	c.VNets, c.VCsPerVNet = 13, 4 // 13 x (4 + 1) = 65
	err := c.Validate()
	if err == nil || !strings.Contains(err.Error(), "at most 64 VCs per port") {
		t.Fatalf("65 VCs per port: got %v, want the 64-VC bound", err)
	}
}
