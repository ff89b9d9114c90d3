package cluster

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"flov/internal/sweep"
)

// sliceSpec is testSpec with windows long enough that a millisecond-
// scale slice expires while points are mid-simulation.
func sliceSpec(rates ...float64) sweep.Spec {
	spec := testSpec(rates...)
	spec.Cycles = 60_000
	spec.Warmup = 500
	return spec
}

// feedEvents replays a finished job's NDJSON feed.
func feedEvents(t *testing.T, base, id string) []StreamEvent {
	t.Helper()
	resp, err := http.Get(base + "/v1/sweeps/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	return decodeEvents(t, resp.Body)
}

// TestPreemptedJobMatchesUnpreempted is the preemption acceptance test:
// a job sliced into many checkpoint/requeue/resume rounds delivers
// exactly the row set an unpreempted run delivers, and the lifecycle is
// observable on the stream and /metrics.
func TestPreemptedJobMatchesUnpreempted(t *testing.T) {
	spec := sliceSpec(0.02, 0.04, 0.06)
	points := mustPoints(t, spec)
	want, err := MarshalResults((&sweep.Engine{}).Run(context.Background(), points))
	if err != nil {
		t.Fatal(err)
	}

	_, base, _ := startNode(t, FrontDoorConfig{}, &Worker{Workers: 1, Slice: 5 * time.Millisecond})

	resp := postSpec(t, base+"/v1/sweeps", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	st := decodeStatus(t, resp)
	final := waitDone(t, base, st.ID)
	if final.State != StateDone || final.Errors != 0 {
		t.Fatalf("final status: %+v", final)
	}
	if final.Done != len(points) {
		t.Fatalf("Done = %d, want %d", final.Done, len(points))
	}
	if final.Resumes < 1 {
		t.Fatalf("job was never preempted (Resumes = %d); slice too long for the workload?", final.Resumes)
	}

	rresp, err := http.Get(base + "/v1/sweeps/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	if served := readAll(t, rresp); !bytes.Equal(served, want) {
		t.Fatalf("preempted job rows differ from unpreempted run:\nserved: %.300s\ndirect: %.300s", served, want)
	}

	// Stream: preempted/resumed pairs, and each point exactly once with
	// its original index despite running across different slices.
	preempted, resumed := 0, 0
	seen := make(map[int]int)
	for _, ev := range feedEvents(t, base, st.ID) {
		switch ev.Type {
		case EventPreempted:
			preempted++
			if ev.Remaining < 1 || ev.Remaining > len(points) {
				t.Fatalf("preempted event Remaining = %d", ev.Remaining)
			}
		case EventResumed:
			resumed++
		case EventPoint:
			seen[ev.Index]++
		}
	}
	if preempted < 1 || preempted != resumed {
		t.Fatalf("stream: %d preempted vs %d resumed events", preempted, resumed)
	}
	if preempted != final.Resumes {
		t.Fatalf("stream shows %d preemptions, status shows %d", preempted, final.Resumes)
	}
	for i := range points {
		if seen[i] != 1 {
			t.Fatalf("point %d emitted %d times on the stream (want exactly 1); seen=%v", i, seen[i], seen)
		}
	}

	// Metrics: lifecycle counters agree with the observed stream.
	if got := metricValue(t, base, "flovd_jobs_preempted_total"); got != int64(preempted) {
		t.Fatalf("flovd_jobs_preempted_total = %d, want %d", got, preempted)
	}
	if got := metricValue(t, base, "flovd_jobs_resumed_total"); got != int64(resumed) {
		t.Fatalf("flovd_jobs_resumed_total = %d, want %d", got, resumed)
	}
	// Snapshot counts depend on where slices land; the counter must at
	// least exist and never exceed one per pause opportunity.
	snaps := metricValue(t, base, "flovd_points_snapshotted_total")
	if snaps < 0 || snaps > int64(preempted*len(points)) {
		t.Fatalf("flovd_points_snapshotted_total = %d implausible for %d preemptions", snaps, preempted)
	}
}

// TestSlicedShortJobNeverPreempts: a job that fits inside one slice must
// finish exactly as without slicing — no spurious pauses.
func TestSlicedShortJobNeverPreempts(t *testing.T) {
	_, base, _ := startNode(t, FrontDoorConfig{}, &Worker{Slice: 30 * time.Second})
	st := decodeStatus(t, postSpec(t, base+"/v1/sweeps", testSpec(0.02)))
	final := waitDone(t, base, st.ID)
	if final.State != StateDone || final.Resumes != 0 {
		t.Fatalf("short job under a long slice: %+v", final)
	}
	if got := metricValue(t, base, "flovd_jobs_preempted_total"); got != 0 {
		t.Fatalf("flovd_jobs_preempted_total = %d, want 0", got)
	}
}

// TestTimeoutIsAbsoluteAcrossPreemption pins the deadline contract: the
// job deadline is set once at admission, so a sliced job that is
// preempted and requeued many times still cancels when the original
// JobTimeout elapses. A per-slice clock would restart the budget on
// every resume, and a job whose slices were all shorter than JobTimeout
// could never time out at all.
func TestTimeoutIsAbsoluteAcrossPreemption(t *testing.T) {
	// ~300ms of simulation per point serially: total wall time is far
	// beyond the 300ms deadline, while each 25ms slice is far below it.
	_, base, _ := startNode(t, FrontDoorConfig{JobTimeout: 300 * time.Millisecond},
		&Worker{Workers: 1, Slice: 25 * time.Millisecond})
	st := decodeStatus(t, postSpec(t, base+"/v1/sweeps", sliceSpec(0.05, 0.1, 0.15, 0.2)))
	final := waitDone(t, base, st.ID)
	if final.State != StateCanceled {
		t.Fatalf("state = %q, want canceled (per-slice clock would run to done)", final.State)
	}
	if !strings.Contains(final.Err, "timeout") {
		t.Fatalf("failure note = %q, want timeout", final.Err)
	}
}
