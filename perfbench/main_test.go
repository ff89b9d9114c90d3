package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// benchmarkFile is the repository's BENCHMARK.json, which must describe
// exactly what this program prints.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, program %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, file []struct{ Name, Unit string }, prog []metricSpec) {
		if len(file) != len(prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(file), len(prog))
			return
		}
		for i := range file {
			if file[i].Name != prog[i].name || file[i].Unit != prog[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, file[i].Name, file[i].Unit, prog[i].name, prog[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func TestCommittedDigestsCoverEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []uint64{defaultSeed, heldOutSeed} {
			if d, ok := committedDigest(w.name, seed); !ok || len(d) != 64 {
				t.Errorf("%s seed %d: no committed SHA-256 digest", w.name, seed)
			}
		}
	}
}

// finalLine parses the JSON object on the last line of a run's output.
func finalLine(t *testing.T, out string) (correct bool, attempted, failed int, metrics map[string]jsonMetric) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var v struct {
		Correct   *bool
		Attempted *int
		Failed    *int
		Metrics   map[string]jsonMetric
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil || v.Correct == nil || v.Attempted == nil || v.Failed == nil {
		t.Fatalf("last line %q is not the result object: %v", lines[len(lines)-1], err)
	}
	return *v.Correct, *v.Attempted, *v.Failed, v.Metrics
}

func TestDigestMismatchFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	saved := digestsJSON
	defer func() { digestsJSON = saved }()
	digestsJSON = []byte(`{"lowload-gflov": {"1": "` + strings.Repeat("0", 64) + `"}}`)
	var out bytes.Buffer
	code := run([]string{"-workload", "lowload-gflov", "-seed", "1", "-seconds", "0.1", "-work", t.TempDir()}, &out)
	if code == 0 {
		t.Fatalf("run exited 0 despite a digest mismatch:\n%s", out.String())
	}
	correct, _, failed, _ := finalLine(t, out.String())
	if correct || failed == 0 {
		t.Fatalf("mismatch reported correct=%v failed=%d", correct, failed)
	}
	if !strings.Contains(out.String(), "does not match the committed digest") {
		t.Errorf("output does not name the mismatch:\n%s", out.String())
	}
}

// TestSmoke runs every workload briefly, untraced and traced, on the
// held-out seed, and checks exit status, digests and printed metrics.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds flovd and runs every workload")
	}
	dir := t.TempDir()
	flovd := filepath.Join(dir, "flovd")
	if out, err := exec.Command("go", "build", "-o", flovd, "flov/cmd/flovd").CombinedOutput(); err != nil {
		t.Fatalf("build flovd: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			var out bytes.Buffer
			code := run([]string{"-workload", w.name, "-seed", strconv.Itoa(heldOutSeed), "-seconds", "0.1",
				"-trace", strconv.Itoa(trace), "-flovd", flovd, "-work", filepath.Join(dir, "work")}, &out)
			if code != 0 {
				t.Errorf("%s trace=%d: exit %d\n%s", w.name, trace, code, out.String())
				continue
			}
			correct, attempted, failed, metrics := finalLine(t, out.String())
			if !correct || attempted < 1 || failed != 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.name, trace, correct, attempted, failed)
			}
			want := endToEnd
			if trace == 1 {
				want = perLayer
			}
			if len(metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.name, trace, len(metrics), len(want))
			}
			for _, s := range want {
				m, ok := metrics[s.name]
				if !ok || m.Unit != s.unit {
					t.Errorf("%s trace=%d: metric %s missing or in the wrong unit: %+v", w.name, trace, s.name, m)
				}
				if trace == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, s.name, m.Value)
				}
			}
			if !strings.Contains(out.String(), "matches the committed digest") {
				t.Errorf("%s trace=%d: digest not checked against the committed one:\n%s", w.name, trace, out.String())
			}
		}
	}
}
