package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"flov/internal/opt"
)

// tinyOptSpec mirrors the opt package's fast test search.
func tinyOptSpec() opt.Spec {
	return opt.Spec{
		Space: opt.Space{
			Widths: []int{4}, Heights: []int{4},
			VCs: []int{1}, Buffers: []int{4},
			Mechanisms: []string{"baseline", "gflov"},
			GatedFracs: []float64{0, 0.5},
			Rates:      []float64{0.05},
		},
		Generations: 2,
		Population:  4,
		Seed:        7,
		Cycles:      1200,
		Warmup:      300,
	}
}

func postOpt(t *testing.T, url string, spec opt.Spec) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/opt/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = resp.Body.Close() })
	return resp
}

func TestOptRunStreamsGenerationsAndOutcome(t *testing.T) {
	_, base, _ := startNode(t, FrontDoorConfig{}, &Worker{})
	resp := postOpt(t, base, tinyOptSpec())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var gens int
	var done *OptStreamLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var line OptStreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch line.Type {
		case "generation":
			if line.Event == nil || line.Event.Gen != gens {
				t.Fatalf("generation line out of order: %+v", line.Event)
			}
			gens++
		case "done":
			cp := line
			done = &cp
		default:
			t.Fatalf("unexpected line type %q", line.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if gens != 2 {
		t.Fatalf("streamed %d generation lines, want 2", gens)
	}
	if done == nil || done.Outcome == nil {
		t.Fatal("stream ended without a done line")
	}
	if len(done.Outcome.Front) == 0 {
		t.Fatal("done outcome carries an empty front")
	}
	if done.Outcome.Generations != 2 {
		t.Fatalf("outcome generations %d, want 2", done.Outcome.Generations)
	}

	// The optimizer counters must have moved.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mresp.Body.Close() }()
	metricsBody, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"flovd_opt_runs_total 1",
		"flovd_opt_generations_total 2",
	} {
		if !strings.Contains(string(metricsBody), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestOptRunRejectsBadSpecs(t *testing.T) {
	_, base, _ := startNode(t, FrontDoorConfig{}, &Worker{})
	for name, body := range map[string]string{
		"malformed json": `{`,
		"unknown field":  `{"generatons": 2}`,
		"bad space":      `{"space": {"widths": [1]}}`,
		"bad strategy":   `{"strategy": "nope"}`,
	} {
		resp, err := http.Post(base+"/v1/opt/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
		_ = resp.Body.Close()
	}
}

func TestOptRunRefusedWhileDraining(t *testing.T) {
	fd, base, _ := startNode(t, FrontDoorConfig{}, &Worker{})
	if err := fd.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp := postOpt(t, base, tinyOptSpec())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 while draining", resp.StatusCode)
	}
}
