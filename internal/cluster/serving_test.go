package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"flov/internal/fault"
	"flov/internal/sweep"
)

// startNode runs single-node flovd in-process: a front door and one
// worker over one fresh store, behind an httptest server. w carries the
// worker's tuning (pool size, slice, point runner); startNode wires the
// rest. The returned function stops the worker and waits for it; both
// it and the server are torn down with the test.
func startNode(t *testing.T, cfg FrontDoorConfig, w *Worker) (*FrontDoor, string, func()) {
	t.Helper()
	store, err := Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	fd := NewFrontDoor(store, cfg)
	w.Store, w.Name, w.Metrics, w.Logf = store, "local", fd.Metrics(), fd.Logf
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(ctx) // returns when ctx ends
	}()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			cancel()
			<-done
		})
	}
	ts := httptest.NewServer(fd.Handler())
	t.Cleanup(func() {
		ts.Close()
		stop()
	})
	return fd, ts.URL, stop
}

func postSpec(t *testing.T, url string, spec sweep.Spec) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeStatus(t *testing.T, resp *http.Response) JobStatus {
	t.Helper()
	defer func() { _ = resp.Body.Close() }()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getStatus(t *testing.T, base, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	return decodeStatus(t, resp)
}

// waitDone polls the status endpoint until the job is terminal.
func waitDone(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, base, id)
		if st.State == StateDone || st.State == StateCanceled {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
	return JobStatus{}
}

// waitState polls the status endpoint for a state.
func waitState(t *testing.T, base, id, state string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if getStatus(t, base, id).State == state {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %s", id, state)
}

func metricValue(t *testing.T, base, name string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		var v int64
		if n, _ := fmt.Sscanf(line, name+" %d", &v); n == 1 {
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// runStream posts a spec to /v1/sweeps/run and reads the stream to its
// end.
func runStream(t *testing.T, base string, spec sweep.Spec) []StreamEvent {
	t.Helper()
	resp := postSpec(t, base+"/v1/sweeps/run", spec)
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: HTTP %d", resp.StatusCode)
	}
	return decodeEvents(t, resp.Body)
}

func decodeEvents(t *testing.T, r io.Reader) []StreamEvent {
	t.Helper()
	var events []StreamEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestEndToEndMatchesDirectEngine is the headline acceptance test: a
// spec submitted over HTTP yields result bytes identical to a direct
// engine run rendered like flovsweep -format json, and a resubmission
// of the finished spec is answered from the job's stored rows without
// simulating, observable on the stream and /metrics.
func TestEndToEndMatchesDirectEngine(t *testing.T) {
	cache := newCache(t)
	_, base, _ := startNode(t, FrontDoorConfig{Cache: cache}, &Worker{Cache: cache})

	spec := testSpec(0.02, 0.05)
	resp := postSpec(t, base+"/v1/sweeps", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	st := decodeStatus(t, resp)
	if st.Points != 2 {
		t.Fatalf("Points = %d, want 2", st.Points)
	}
	final := waitDone(t, base, st.ID)
	if final.State != StateDone || final.Errors != 0 {
		t.Fatalf("final status: %+v", final)
	}

	rresp, err := http.Get(base + "/v1/sweeps/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	served := readAll(t, rresp)
	// Direct run with a fresh engine, no cache: the reference rows.
	want, err := MarshalResults((&sweep.Engine{}).Run(context.Background(), mustPoints(t, spec)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, want) {
		t.Fatalf("served rows differ from direct engine run:\nserved: %.200s\ndirect: %.200s", served, want)
	}

	// Resubmission of the finished spec: the same job answers, every
	// point cached, nothing simulated.
	hitsBefore := metricValue(t, base, "flovd_cache_hits_total")
	again := decodeStatus(t, postSpec(t, base+"/v1/sweeps", spec))
	if again.ID != st.ID || !again.Deduped || again.State != StateDone {
		t.Fatalf("resubmitted finished spec = %+v, want the finished job %s", again, st.ID)
	}
	events := runStream(t, base, spec)
	if len(events) != 4 || events[0].Type != EventAccepted || events[3].Type != EventSummary {
		t.Fatalf("replayed stream = %+v, want accepted, 2 points, summary", events)
	}
	for i, ev := range events[1:3] {
		if ev.Type != EventPoint || ev.Index != i || ev.Status != PointCached || ev.Result == nil {
			t.Fatalf("replayed point %d = %+v", i, ev)
		}
	}
	if events[3].State != StateDone || events[3].Stats == nil || events[3].Stats.CacheHits != 2 {
		t.Fatalf("replayed summary = %+v", events[3])
	}
	if got := metricValue(t, base, "flovd_cache_hits_total"); got != hitsBefore+2 {
		t.Fatalf("flovd_cache_hits_total = %d, want %d", got, hitsBefore+2)
	}
	if cached := metricValue(t, base, "flovd_points_cached_total"); cached != 2 {
		t.Fatalf("flovd_points_cached_total = %d, want 2", cached)
	}
	if done := metricValue(t, base, "flovd_points_done_total"); done != 2 {
		t.Fatalf("flovd_points_done_total = %d, want 2 (the replay simulated)", done)
	}
}

// blockingRunner returns a point runner whose points block until
// released per-rate, plus the release function.
func blockingRunner() (func(sweep.Job) sweep.Result, func(rate float64)) {
	mu := sync.Mutex{}
	gates := map[float64]chan struct{}{}
	gate := func(rate float64) chan struct{} {
		mu.Lock()
		defer mu.Unlock()
		ch, ok := gates[rate]
		if !ok {
			ch = make(chan struct{})
			gates[rate] = ch
		}
		return ch
	}
	run := func(j sweep.Job) sweep.Result {
		<-gate(j.Rate)
		return sweep.Result{Job: j}
	}
	release := func(rate float64) { close(gate(rate)) }
	return run, release
}

// TestStreamingIncremental pins that NDJSON progress events arrive
// while later points are still executing — not buffered until the job
// completes.
func TestStreamingIncremental(t *testing.T) {
	run, release := blockingRunner()
	_, base, _ := startNode(t, FrontDoorConfig{}, &Worker{Workers: 1, runJob: run})

	resp := postSpec(t, base+"/v1/sweeps/run", testSpec(0.01, 0.02, 0.03))
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: HTTP %d", resp.StatusCode)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	next := func() StreamEvent {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("stream ended early: %v", sc.Err())
		}
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		return ev
	}

	if ev := next(); ev.Type != EventAccepted || ev.Total != 3 {
		t.Fatalf("first event = %+v, want accepted/3", ev)
	}
	// Workers=1 runs points in order. Release only the first point: the
	// claim and its point event must arrive while points 2 and 3 are
	// blocked.
	release(0.01)
	sawFirstPoint := false
	for i := 0; i < 2; i++ {
		ev := next()
		if ev.Type == EventPoint {
			if ev.Index != 0 {
				t.Fatalf("point event for index %d before release", ev.Index)
			}
			sawFirstPoint = true
		}
	}
	if !sawFirstPoint {
		t.Fatal("no point event arrived while later points were still blocked")
	}

	release(0.02)
	release(0.03)
	var last StreamEvent
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatal(err)
		}
	}
	if last.Type != EventSummary || last.State != StateDone {
		t.Fatalf("terminal event = %+v, want done summary", last)
	}
}

// TestStreamCancelFreesQueueSlot: cancelling the streaming submitter of
// a queued job cancels the job and frees its admission slot for the
// next submission.
func TestStreamCancelFreesQueueSlot(t *testing.T) {
	run, release := blockingRunner()
	// One running plus one waiting job: the quota the old queue depth of
	// one admitted.
	_, base, _ := startNode(t, FrontDoorConfig{MaxActivePerTenant: 2}, &Worker{Workers: 1, runJob: run})

	// Job A occupies the worker (pinned: survives its client).
	stA := decodeStatus(t, postSpec(t, base+"/v1/sweeps", testSpec(0.01)))
	waitState(t, base, stA.ID, StateRunning)

	// Job B takes the last slot via the streaming path.
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	bodyB, err := json.Marshal(testSpec(0.02))
	if err != nil {
		t.Fatal(err)
	}
	reqB, err := http.NewRequestWithContext(ctxB, http.MethodPost, base+"/v1/sweeps/run", bytes.NewReader(bodyB))
	if err != nil {
		t.Fatal(err)
	}
	respB, err := http.DefaultClient.Do(reqB)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = respB.Body.Close() }()
	// Read the accepted event so we know B is admitted.
	scB := bufio.NewScanner(respB.Body)
	if !scB.Scan() {
		t.Fatalf("no accepted event: %v", scB.Err())
	}
	var evB StreamEvent
	if err := json.Unmarshal(scB.Bytes(), &evB); err != nil {
		t.Fatal(err)
	}

	// Quota full: a third submission is rejected with 429.
	respC := postSpec(t, base+"/v1/sweeps", testSpec(0.03))
	if respC.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: HTTP %d, want 429", respC.StatusCode)
	}
	if respC.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After hint")
	}
	_ = respC.Body.Close()

	// Cancel B's stream: the job cancels and the slot frees.
	cancelB()
	waitState(t, base, evB.ID, StateCanceled)

	respC2 := postSpec(t, base+"/v1/sweeps", testSpec(0.03))
	stC := decodeStatus(t, respC2)
	if respC2.StatusCode != http.StatusAccepted {
		t.Fatalf("post-cancel submit: HTTP %d, want 202", respC2.StatusCode)
	}

	release(0.01)
	release(0.03)
	waitDone(t, base, stA.ID)
	waitDone(t, base, stC.ID)
	if rejected := metricValue(t, base, "flovd_jobs_rejected_total"); rejected != 1 {
		t.Fatalf("flovd_jobs_rejected_total = %d, want 1", rejected)
	}
	if canceled := metricValue(t, base, "flovd_jobs_canceled_total"); canceled != 1 {
		t.Fatalf("flovd_jobs_canceled_total = %d, want 1", canceled)
	}
}

// TestCanceledSpecRunsAgain: a spec whose job was canceled is admitted
// again as a new run under the next run id, and runs to completion.
func TestCanceledSpecRunsAgain(t *testing.T) {
	run, release := blockingRunner()
	fd, base, _ := startNode(t, FrontDoorConfig{}, &Worker{Workers: 1, runJob: run})
	spec := testSpec(0.02, 0.03)
	st := decodeStatus(t, postSpec(t, base+"/v1/sweeps", spec))
	waitState(t, base, st.ID, StateRunning)
	if err := fd.store.Cancel(st.ID, "operator"); err != nil {
		t.Fatal(err)
	}
	// The first point is mid-run and finishes when released; the second
	// must never start once the worker has seen the request.
	time.Sleep(50 * time.Millisecond)
	release(0.02)
	if final := waitDone(t, base, st.ID); final.State != StateCanceled || final.Err != "operator" {
		t.Fatalf("first run = %+v, want canceled by the operator", final)
	}

	again := decodeStatus(t, postSpec(t, base+"/v1/sweeps", spec))
	if again.ID != st.ID+"-2" || again.Deduped {
		t.Fatalf("resubmitted canceled spec = %+v, want a new run %s-2", again, st.ID)
	}
	release(0.03)
	if final := waitDone(t, base, again.ID); final.State != StateDone || final.Errors != 0 {
		t.Fatalf("second run = %+v", final)
	}
}

// TestAbandonedRunningJobPauses: when the only streaming submitter of a
// running job disconnects, the cancel request stops the worker's engine
// at its next pause poll instead of simulating to the end.
func TestAbandonedRunningJobPauses(t *testing.T) {
	_, base, _ := startNode(t, FrontDoorConfig{}, &Worker{Workers: 1})
	spec := testSpec(0.02)
	spec.Cycles = 50_000_000 // minutes of simulation: only a pause ends it soon

	ctx, cancel := context.WithCancel(context.Background())
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/sweeps/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	sc := bufio.NewScanner(resp.Body)
	var accepted StreamEvent
	if !sc.Scan() || json.Unmarshal(sc.Bytes(), &accepted) != nil {
		t.Fatalf("no accepted event: %v", sc.Err())
	}
	waitState(t, base, accepted.ID, StateRunning)
	cancel()
	start := time.Now()
	final := waitDone(t, base, accepted.ID)
	if final.State != StateCanceled || !strings.Contains(final.Err, "abandoned") {
		t.Fatalf("final = %+v, want canceled as abandoned", final)
	}
	if wait := time.Since(start); wait > 10*time.Second {
		t.Fatalf("abandoned job took %v to stop", wait)
	}
}

// TestWorkerWakesOnSubmit: on one node the in-process worker is woken
// by the store handle, not by its poll, so a job with an hour-long poll
// interval still runs at once.
func TestWorkerWakesOnSubmit(t *testing.T) {
	_, base, _ := startNode(t, FrontDoorConfig{}, &Worker{Workers: 1, Poll: time.Hour})
	time.Sleep(20 * time.Millisecond) // let the worker go idle first
	start := time.Now()
	events := runStream(t, base, testSpec(0.02))
	if last := events[len(events)-1]; last.Type != EventSummary || last.State != StateDone {
		t.Fatalf("terminal event = %+v", last)
	}
	if took := time.Since(start); took > 20*time.Second {
		t.Fatalf("job took %v: the worker waited for its poll", took)
	}
}

// TestDedupInflight: an identical spec submitted while the first is in
// flight attaches to it instead of creating a second job.
func TestDedupInflight(t *testing.T) {
	run, release := blockingRunner()
	_, base, _ := startNode(t, FrontDoorConfig{}, &Worker{Workers: 1, runJob: run})

	spec := testSpec(0.04)
	st1 := decodeStatus(t, postSpec(t, base+"/v1/sweeps", spec))
	st2 := decodeStatus(t, postSpec(t, base+"/v1/sweeps", spec))
	if st2.ID != st1.ID || !st2.Deduped {
		t.Fatalf("second submission not deduped: %+v vs %+v", st2, st1)
	}
	if accepted := metricValue(t, base, "flovd_jobs_accepted_total"); accepted != 1 {
		t.Fatalf("flovd_jobs_accepted_total = %d, want 1", accepted)
	}
	if deduped := metricValue(t, base, "flovd_jobs_deduped_total"); deduped != 1 {
		t.Fatalf("flovd_jobs_deduped_total = %d, want 1", deduped)
	}
	release(0.04)
	waitDone(t, base, st1.ID)
}

// TestGracefulDrain: draining rejects new submissions with 503,
// completes queued and running jobs, and leaks no goroutines once the
// worker stops. The forced variant (expired grace) cancels in-flight
// work.
func TestGracefulDrain(t *testing.T) {
	before := runtime.NumGoroutine()

	run, release := blockingRunner()
	fd, base, stopWorker := startNode(t, FrontDoorConfig{}, &Worker{Workers: 1, runJob: run})

	stA := decodeStatus(t, postSpec(t, base+"/v1/sweeps", testSpec(0.01)))
	stB := decodeStatus(t, postSpec(t, base+"/v1/sweeps", testSpec(0.02)))
	waitState(t, base, stA.ID, StateRunning)

	drained := make(chan error, 1)
	go func() { drained <- fd.Drain(context.Background()) }()

	// Draining: health flips and submissions bounce with 503.
	waitDraining(t, fd)
	resp := postSpec(t, base+"/v1/sweeps", testSpec(0.05))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: HTTP %d, want 503", resp.StatusCode)
	}
	_ = resp.Body.Close()
	hresp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: HTTP %d, want 503", hresp.StatusCode)
	}
	_ = hresp.Body.Close()

	// Unblock: both jobs must complete, then Drain returns cleanly.
	release(0.01)
	release(0.02)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for _, id := range []string{stA.ID, stB.ID} {
		st := waitDone(t, base, id)
		if st.State != StateDone {
			t.Fatalf("job %s state = %s after clean drain", id, st.State)
		}
	}

	stopWorker()
	http.DefaultClient.CloseIdleConnections()
	// All worker goroutines must be gone (retry: HTTP teardown lags).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before+2 {
		time.Sleep(20 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after drain", before, got)
	}
}

// TestForcedDrainCancelsInFlight: when the drain grace expires, queued
// jobs cancel instead of hanging forever.
func TestForcedDrainCancelsInFlight(t *testing.T) {
	run, release := blockingRunner()
	fd, base, _ := startNode(t, FrontDoorConfig{}, &Worker{Workers: 1, runJob: run})

	// A blocks the worker; B waits in the store.
	stA := decodeStatus(t, postSpec(t, base+"/v1/sweeps", testSpec(0.01)))
	stB := decodeStatus(t, postSpec(t, base+"/v1/sweeps", testSpec(0.02)))
	waitState(t, base, stA.ID, StateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- fd.Drain(ctx) }()

	// The grace expires; A's running point must still complete on its
	// own (a substituted runner cannot be paused), so release it after
	// the cancellation fires.
	time.Sleep(100 * time.Millisecond)
	release(0.01)
	release(0.02)
	if err := <-drained; err != context.DeadlineExceeded {
		t.Fatalf("Drain = %v, want context.DeadlineExceeded", err)
	}

	if st := waitDone(t, base, stB.ID); st.State != StateCanceled {
		t.Fatalf("queued job state = %s after forced drain, want canceled", st.State)
	}
}

func waitDraining(t *testing.T, fd *FrontDoor) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if fd.Draining() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("front door never started draining")
}

// TestPointPanicIsolation: a panicking point becomes an error row and a
// failed-job metric; the daemon and the job's siblings are unharmed.
func TestPointPanicIsolation(t *testing.T) {
	_, base, _ := startNode(t, FrontDoorConfig{}, &Worker{Workers: 1, runJob: func(j sweep.Job) sweep.Result {
		if j.Rate == 0.02 {
			panic("injected point panic")
		}
		return sweep.Result{Job: j}
	}})
	st := decodeStatus(t, postSpec(t, base+"/v1/sweeps", testSpec(0.01, 0.02, 0.03)))
	final := waitDone(t, base, st.ID)
	if final.State != StateDone || final.Errors != 1 {
		t.Fatalf("final = %+v, want done with 1 error", final)
	}
	if failed := metricValue(t, base, "flovd_jobs_failed_total"); failed != 1 {
		t.Fatalf("flovd_jobs_failed_total = %d, want 1", failed)
	}
	if pfailed := metricValue(t, base, "flovd_points_failed_total"); pfailed != 1 {
		t.Fatalf("flovd_points_failed_total = %d, want 1", pfailed)
	}
}

// TestFaultMetrics: a fault-scenario spec submitted through the daemon
// is observable on /metrics — injected faults and classified drops from
// a real run, and the violated-trial counter when a fault point errors.
func TestFaultMetrics(t *testing.T) {
	_, base, _ := startNode(t, FrontDoorConfig{}, &Worker{})
	spec := testSpec(0.02)
	spec.Faults = &fault.Spec{
		Seed: 11,
		// Kill an interior router for good early on and classify stuck
		// packets quickly so drops land inside the short test run.
		Schedule:    []fault.Event{{At: 600, Kind: "router", Node: 5}},
		DropTimeout: 200,
	}
	st := decodeStatus(t, postSpec(t, base+"/v1/sweeps", spec))
	final := waitDone(t, base, st.ID)
	if final.State != StateDone || final.Errors != 0 {
		t.Fatalf("final = %+v, want done with 0 errors", final)
	}
	if got := metricValue(t, base, "flovd_faults_injected_total"); got == 0 {
		t.Fatal("flovd_faults_injected_total = 0 after a scheduled fault fired")
	}
	if got := metricValue(t, base, "flovd_packets_dropped_total"); got == 0 {
		t.Fatal("flovd_packets_dropped_total = 0 after a permanent router kill")
	}
	if got := metricValue(t, base, "flovd_trials_violated_total"); got != 0 {
		t.Fatalf("flovd_trials_violated_total = %d on a clean run, want 0", got)
	}
}

// TestFaultTrialViolatedMetric: a fault-scenario point that errors bumps
// flovd_trials_violated_total; the same failure on a fault-free point
// does not.
func TestFaultTrialViolatedMetric(t *testing.T) {
	_, base, _ := startNode(t, FrontDoorConfig{}, &Worker{runJob: func(j sweep.Job) sweep.Result {
		return sweep.Result{Job: j, Err: "oracle: flit conservation violated"}
	}})
	plain := testSpec(0.02)
	st := decodeStatus(t, postSpec(t, base+"/v1/sweeps", plain))
	waitDone(t, base, st.ID)
	if got := metricValue(t, base, "flovd_trials_violated_total"); got != 0 {
		t.Fatalf("flovd_trials_violated_total = %d after fault-free error, want 0", got)
	}

	faulty := testSpec(0.02)
	faulty.Faults = &fault.Spec{Seed: 3, LinkRate: 1e-4}
	st = decodeStatus(t, postSpec(t, base+"/v1/sweeps", faulty))
	waitDone(t, base, st.ID)
	if got := metricValue(t, base, "flovd_trials_violated_total"); got != 1 {
		t.Fatalf("flovd_trials_violated_total = %d after fault-scenario error, want 1", got)
	}
}

// TestHandlerPanicRecovered: a panicking handler answers 500 and bumps
// the panic counter instead of killing the daemon.
func TestHandlerPanicRecovered(t *testing.T) {
	fd, base, _ := startNode(t, FrontDoorConfig{}, &Worker{})
	h := fd.recoverPanics(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("handler bug")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("recovered panic: HTTP %d, want 500", rec.Code)
	}
	if got := metricValue(t, base, "flovd_handler_panics_total"); got != 1 {
		t.Fatalf("flovd_handler_panics_total = %d, want 1", got)
	}
}

// TestBadSpecRejected: parse and expansion failures answer 400.
func TestBadSpecRejected(t *testing.T) {
	_, base, _ := startNode(t, FrontDoorConfig{}, &Worker{})
	resp, err := http.Post(base+"/v1/sweeps", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: HTTP %d, want 400", resp.StatusCode)
	}
	_ = resp.Body.Close()

	bad := testSpec(0.02)
	bad.Mechanisms = []string{"warp-drive"}
	resp2 := postSpec(t, base+"/v1/sweeps", bad)
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad mechanism: HTTP %d, want 400", resp2.StatusCode)
	}
	_ = resp2.Body.Close()
}

// TestDebugEventsTail: the ring records the lifecycle and /debug/events
// serves it.
func TestDebugEventsTail(t *testing.T) {
	_, base, _ := startNode(t, FrontDoorConfig{}, &Worker{})
	st := decodeStatus(t, postSpec(t, base+"/v1/sweeps", testSpec(0.02)))
	waitDone(t, base, st.ID)
	resp, err := http.Get(base + "/debug/events?n=50")
	if err != nil {
		t.Fatal(err)
	}
	data := readAll(t, resp)
	for _, want := range []string{"accepted " + st.ID, "start " + st.ID, "finish " + st.ID} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("/debug/events missing %q:\n%s", want, data)
		}
	}
}

// TestJobTimeout: a job exceeding the ceiling cancels and reports why.
func TestJobTimeout(t *testing.T) {
	run, release := blockingRunner()
	_, base, _ := startNode(t, FrontDoorConfig{JobTimeout: 50 * time.Millisecond}, &Worker{Workers: 1, runJob: run})
	st := decodeStatus(t, postSpec(t, base+"/v1/sweeps", testSpec(0.01, 0.02)))
	waitState(t, base, st.ID, StateRunning)
	time.Sleep(100 * time.Millisecond) // let the ceiling expire
	release(0.01)
	release(0.02)
	final := waitDone(t, base, st.ID)
	if final.State != StateCanceled || !strings.Contains(final.Err, "timeout") {
		t.Fatalf("final = %+v, want canceled with timeout note", final)
	}
}

// TestCompactKeepsNewestFinished: Retain bounds the finished jobs kept
// in the store, compacting the oldest finished job first and never an
// unfinished one.
func TestCompactKeepsNewestFinished(t *testing.T) {
	s := openStore(t)
	var ids []string
	for i, rate := range []float64{0.1, 0.2, 0.3} {
		rec := submitJob(t, s, mustPoints(t, testSpec(rate)))
		ids = append(ids, rec.ID)
		if i < 2 {
			lease, err := s.Claim(rec.ID, "w", time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.finish(rec, lease, assembleRows(rec.Points, nil, nil), StateCanceled, "test"); err != nil {
				t.Fatal(err)
			}
			time.Sleep(20 * time.Millisecond) // distinct done-marker times
		}
	}
	s.Retain = 1
	s.Compact()
	if s.exists(ids[0]) {
		t.Error("oldest finished job survived compaction")
	}
	if !s.exists(ids[1]) {
		t.Error("newest finished job was compacted")
	}
	if !s.exists(ids[2]) {
		t.Error("unfinished job was compacted")
	}
	if lines, _ := s.Events(ids[0], 0); len(lines) != 0 {
		t.Error("compacted job's feed survived")
	}
}
