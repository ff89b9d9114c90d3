package flov_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flov"
)

// digestsFile pins the SHA-256 of canonical Results JSON for a fixed grid
// of runs. Determinism tests only compare a build with itself; this file
// compares every build with the one that recorded it, so a refactor or
// speedup that moves any simulated number fails here. After an intended
// change to simulated numbers, re-record with
//
//	go test -run TestResultDigests -update .
//
// and say in the change which entries moved and why.
const digestsFile = "testdata/results_digests.json"

// digestConfig is the shared small configuration of the synthetic grid:
// the paper's 8x8 Table I router with a short window, so the whole grid
// stays a few seconds long.
func digestConfig() flov.Config {
	cfg := flov.Default()
	cfg.WarmupCycles = 300
	cfg.TotalCycles = 2_000
	cfg.DrainCycles = 4_000
	cfg.TimelineBinSz = 500
	return cfg
}

// digestRun is one named point of the grid and the function producing
// its canonical output.
type digestRun struct {
	name string
	run  func(t *testing.T) any
}

func syntheticRun(o flov.SyntheticOptions) func(t *testing.T) any {
	return func(t *testing.T) any {
		t.Helper()
		res, err := flov.RunSynthetic(o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
}

// checkpointOptions is the point the checkpoint run interrupts; its
// uninterrupted twin is also in the grid.
func checkpointOptions() flov.SyntheticOptions {
	return flov.SyntheticOptions{
		Config: digestConfig(), Mechanism: flov.GFLOV, Pattern: flov.Uniform,
		InjRate: 0.08, GatedFraction: 0.5, GatedSeed: 3,
	}
}

// checkpointRun advances to mid-run, saves a snapshot, restores it into
// a freshly built network and finishes the run there.
func checkpointRun(t *testing.T) any {
	t.Helper()
	o := checkpointOptions()
	n, err := flov.Build(o)
	if err != nil {
		t.Fatal(err)
	}
	n.RunTo(o.Config.TotalCycles / 2)
	var snap bytes.Buffer
	if err := flov.SaveSnapshot(&snap, n, nil); err != nil {
		t.Fatal(err)
	}
	fresh, err := flov.Build(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := flov.RestoreSnapshot(&snap, fresh, nil); err != nil {
		t.Fatal(err)
	}
	return fresh.Run()
}

func digestGrid() []digestRun {
	var runs []digestRun
	for _, mech := range flov.AllMechanisms() {
		for _, pat := range []flov.Pattern{flov.Uniform, flov.Tornado} {
			for _, rate := range []float64{0.02, 0.08} {
				for _, gated := range []float64{0, 0.5} {
					o := flov.SyntheticOptions{
						Config: digestConfig(), Mechanism: mech, Pattern: pat,
						InjRate: rate, GatedFraction: gated, GatedSeed: 3,
					}
					name := fmt.Sprintf("synthetic/%s/%s/rate=%g/gated=%g", mech, pat, rate, gated)
					runs = append(runs, digestRun{name, syntheticRun(o)})
				}
			}
		}
	}
	faults := flov.FaultSpec{
		Seed: 7, LinkRate: 2e-4, TransientCycles: 40,
		Schedule: []flov.FaultEvent{{At: 600, Kind: "link", Node: 27, Dir: "E"}},
	}
	runs = append(runs,
		digestRun{"fault/gFLOV/uniform/rate=0.08/gated=0.5", syntheticRun(flov.SyntheticOptions{
			Config: digestConfig(), Mechanism: flov.GFLOV, Pattern: flov.Uniform,
			InjRate: 0.08, GatedFraction: 0.5, GatedSeed: 3, Faults: &faults,
		})},
		digestRun{"parsec/blackscholes-short/gFLOV", func(t *testing.T) any {
			// The full-system (3-vnet MESI) path with a shortened quota.
			prof, ok := flov.ProfileByName("blackscholes")
			if !ok {
				t.Fatal("blackscholes profile missing")
			}
			prof.QuotaPerCore = 6
			out, err := flov.RunProfile(prof, flov.GFLOV, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}},
		digestRun{"checkpoint/gFLOV/uniform/rate=0.08/gated=0.5", checkpointRun},
	)
	return runs
}

// canonicalDigest hashes the JSON encoding of v (struct fields in
// declaration order, shortest round-trip floats).
func canonicalDigest(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestResultDigests pins simulated numbers across code versions. The
// digests depend on exact float bits, so they are recorded on amd64;
// architectures whose compiler fuses multiply-adds may differ.
func TestResultDigests(t *testing.T) {
	runs := digestGrid()
	got := make(map[string]string, len(runs))
	for _, r := range runs {
		got[r.name] = canonicalDigest(t, r.run(t))
	}
	// A checkpointed run must finish exactly like its uninterrupted twin.
	o := checkpointOptions()
	twin := fmt.Sprintf("synthetic/%s/%s/rate=%g/gated=%g", o.Mechanism, o.Pattern, o.InjRate, o.GatedFraction)
	if cp := "checkpoint/gFLOV/uniform/rate=0.08/gated=0.5"; got[cp] != got[twin] {
		t.Errorf("checkpoint->restore->finish digest %s differs from uninterrupted %s", got[cp], got[twin])
	}

	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(digestsFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestsFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(digestsFile)
	if err != nil {
		t.Fatalf("%v (record with -update)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	var diffs []string
	for name, d := range got {
		if w, ok := want[name]; !ok {
			diffs = append(diffs, name+": not recorded")
		} else if w != d {
			diffs = append(diffs, fmt.Sprintf("%s: got %s, recorded %s", name, d, w))
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			diffs = append(diffs, name+": recorded but no longer run")
		}
	}
	if len(diffs) > 0 {
		t.Fatalf("simulated results moved (%d of %d runs):\n%s", len(diffs), len(runs), strings.Join(diffs, "\n"))
	}
}
