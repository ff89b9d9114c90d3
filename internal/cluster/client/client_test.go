package client_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"flov/internal/cluster"
	"flov/internal/cluster/client"
	"flov/internal/sweep"
)

// testSpec mirrors the serving-layer tests: a tiny 4x4 baseline point
// per rate, fast enough to simulate in milliseconds.
func testSpec(rates ...float64) sweep.Spec {
	return sweep.Spec{
		Patterns:   []string{"uniform"},
		Rates:      rates,
		GatedFracs: []float64{0.5},
		Mechanisms: []string{"baseline"},
		Width:      4, Height: 4,
		Cycles: 4_000, Warmup: 500,
		Seed: 7,
	}
}

// newNode stands up single-node flovd in-process — a front door and
// one worker over one fresh store — and returns its HTTP handler. The
// worker stops with the test.
func newNode(t *testing.T, cache *sweep.Cache) http.Handler {
	t.Helper()
	store, err := cluster.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fd := cluster.NewFrontDoor(store, cluster.FrontDoorConfig{Cache: cache})
	w := &cluster.Worker{Store: store, Cache: cache, Name: "local", Metrics: fd.Metrics()}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(ctx) // returns when ctx ends
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return fd.Handler()
}

// newServer serves a daemon over HTTP and returns a client pointed at it.
func newServer(t *testing.T, cache *sweep.Cache) *client.Client {
	t.Helper()
	ts := httptest.NewServer(newNode(t, cache))
	t.Cleanup(ts.Close)
	return client.New(ts.URL)
}

// stripTransient zeroes the per-invocation fields (wall time, cache
// provenance) so rows from different runs compare equal.
func stripTransient(rows []sweep.Result) []sweep.Result {
	out := make([]sweep.Result, len(rows))
	for i, r := range rows {
		r.Wall = 0
		r.CacheHit = false
		out[i] = r
	}
	return out
}

// TestRunMatchesDirectEngine checks the client's streaming Run path
// returns the same rows (and restored CacheHit metadata) a local engine
// run would produce.
func TestRunMatchesDirectEngine(t *testing.T) {
	cache, err := sweep.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := newServer(t, cache)
	spec := testSpec(0.01, 0.02)

	points, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	direct := (&sweep.Engine{}).Run(context.Background(), points)

	var events int
	served, stats, err := c.Run(context.Background(), spec, func(cluster.StreamEvent) { events++ })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripTransient(served), stripTransient(direct)) {
		t.Fatalf("served rows differ from direct engine run:\nserved %+v\ndirect %+v", served, direct)
	}
	for i, r := range served {
		if r.CacheHit {
			t.Errorf("point %d: CacheHit on a cold cache", i)
		}
	}
	// accepted + one line per point + summary, at minimum.
	if events < len(points)+2 {
		t.Errorf("onEvent saw %d events, want at least %d", events, len(points)+2)
	}
	if stats.Jobs != len(points) || stats.Errors != 0 {
		t.Errorf("stats = %+v, want %d jobs, 0 errors", stats, len(points))
	}

	// A second Run is answered from the finished job's stored rows, and
	// the client restores the CacheHit flag the result JSON omits.
	again, _, err := c.Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripTransient(again), stripTransient(direct)) {
		t.Fatal("cached rows differ from the original run")
	}
	for i, r := range again {
		if !r.CacheHit {
			t.Errorf("point %d: CacheHit not restored on the cached rerun", i)
		}
	}
}

// TestSubmitStatusResults drives the async path: fire-and-forget
// submit, poll to completion, fetch rows.
func TestSubmitStatusResults(t *testing.T) {
	c := newServer(t, nil)
	ctx := context.Background()

	st, err := c.Submit(ctx, testSpec(0.01))
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Deduped {
		t.Fatalf("submit status = %+v, want fresh job with an ID", st)
	}
	final, err := c.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != cluster.StateDone || final.Done != 1 || final.Errors != 0 {
		t.Fatalf("final status = %+v, want done with 1 point", final)
	}
	rows, err := c.Results(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Err != "" {
		t.Fatalf("results = %+v, want one clean row", rows)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m, "flovd_jobs_accepted_total") {
		t.Error("metrics exposition missing flovd_jobs_accepted_total")
	}
}

// TestRunContextCancel checks client-side cancellation surfaces as an
// error instead of a hang.
func TestRunContextCancel(t *testing.T) {
	c := newServer(t, nil)
	spec := testSpec(0.01)
	// Slow enough that cancel wins the race, small enough that the
	// non-preempted in-flight point doesn't stall test teardown.
	spec.Cycles = 150_000

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Run(ctx, spec, nil)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Run returned nil after context cancellation")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after context cancellation")
	}
}

// TestUnknownJobErrors checks API errors carry the server's message and
// status code.
func TestUnknownJobErrors(t *testing.T) {
	c := newServer(t, nil)
	if _, err := c.Status(context.Background(), "no-such-job"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("Status(unknown) = %v, want an HTTP 404 error", err)
	}
	if _, err := c.Results(context.Background(), "no-such-job"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("Results(unknown) = %v, want an HTTP 404 error", err)
	}
}

// throttleServer answers 429 (with the given Retry-After header) for
// the first n requests, then proxies to the real daemon handler.
func throttleServer(t *testing.T, n int, retryAfter string, next http.Handler) (*httptest.Server, *int32) {
	t.Helper()
	var seen int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if int(atomic.AddInt32(&seen, 1)) <= n {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = w.Write([]byte(`{"error":"queue full"}`))
			return
		}
		next.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, &seen
}

// TestSubmitRetriesThrottled: a 429 with Retry-After is retried within
// the attempt budget and the submission eventually lands.
func TestSubmitRetriesThrottled(t *testing.T) {
	srv, seen := throttleServer(t, 2, "0", newNode(t, nil))

	c := client.New(srv.URL)
	c.Retry = client.RetryPolicy{Attempts: 4, BaseDelay: time.Millisecond}
	st, err := c.Submit(context.Background(), testSpec(0.01))
	if err != nil {
		t.Fatalf("submit with retries: %v", err)
	}
	if st.ID == "" {
		t.Fatal("no job id")
	}
	if got := atomic.LoadInt32(seen); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (two throttled + one admitted)", got)
	}
}

// TestSubmitRetryExhausted: when every attempt is throttled the final
// 429 surfaces as an error after exactly Attempts tries.
func TestSubmitRetryExhausted(t *testing.T) {
	srv, seen := throttleServer(t, 1<<30, "0", nil)
	c := client.New(srv.URL)
	c.Retry = client.RetryPolicy{Attempts: 3, BaseDelay: time.Millisecond}
	_, err := c.Submit(context.Background(), testSpec(0.01))
	if err == nil || !strings.Contains(err.Error(), "429") {
		t.Fatalf("err = %v, want surfaced 429", err)
	}
	if got := atomic.LoadInt32(seen); got != 3 {
		t.Fatalf("server saw %d requests, want exactly the attempt budget (3)", got)
	}
}

// TestRetryHonorsRetryAfter: the server's whole-second hint is waited
// out rather than the (much shorter) backoff schedule.
func TestRetryHonorsRetryAfter(t *testing.T) {
	srv, _ := throttleServer(t, 1, "1", newNode(t, nil))

	c := client.New(srv.URL)
	c.Retry = client.RetryPolicy{Attempts: 2, BaseDelay: time.Millisecond}
	start := time.Now()
	if _, err := c.Submit(context.Background(), testSpec(0.01)); err != nil {
		t.Fatal(err)
	}
	if wait := time.Since(start); wait < 900*time.Millisecond {
		t.Fatalf("retried after %v, want >= ~1s per Retry-After", wait)
	}
}

// TestRetryAbortsOnContextCancel: a canceled context ends the wait
// immediately instead of sleeping out the backoff.
func TestRetryAbortsOnContextCancel(t *testing.T) {
	srv, _ := throttleServer(t, 1<<30, "30", nil)
	c := client.New(srv.URL)
	c.Retry = client.RetryPolicy{Attempts: 5}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Submit(ctx, testSpec(0.01))
	if err == nil {
		t.Fatal("submit succeeded against a permanently throttled server")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("context cancellation did not interrupt the retry wait")
	}
}

// TestNoRetryOnClientError: 4xx other than 429 fails immediately.
func TestNoRetryOnClientError(t *testing.T) {
	var seen int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&seen, 1)
		w.WriteHeader(http.StatusBadRequest)
		_, _ = w.Write([]byte(`{"error":"bad spec"}`))
	}))
	t.Cleanup(srv.Close)
	c := client.New(srv.URL)
	c.Retry = client.RetryPolicy{Attempts: 5, BaseDelay: time.Millisecond}
	if _, err := c.Submit(context.Background(), testSpec(0.01)); err == nil {
		t.Fatal("want error")
	}
	if got := atomic.LoadInt32(&seen); got != 1 {
		t.Fatalf("client retried a 400 (%d requests)", got)
	}
}

// TestRunRejectsMalformedStream: a stream whose rows cannot be placed —
// a point before "accepted", an index out of range, a second
// "accepted" — fails Run loudly instead of returning zeroed or dropped
// rows. The well-formed body is the control.
func TestRunRejectsMalformedStream(t *testing.T) {
	const (
		accepted = `{"type":"accepted","id":"j1","total":2,"state":"queued"}`
		point0   = `{"type":"point","index":0,"total":2,"status":"done","id":"j1","result":{"err":"p0"}}`
		point1   = `{"type":"point","index":1,"total":2,"status":"done","id":"j1","result":{"err":"p1"}}`
		summary  = `{"type":"summary","id":"j1","total":2,"state":"done","stats":{}}`
	)
	cases := []struct {
		name    string
		lines   []string
		wantErr string // "" = well-formed
	}{
		{"well-formed", []string{accepted, point1, point0, summary}, ""},
		{"point before accepted", []string{point0, accepted, point1, summary}, "before"},
		{"index past total", []string{accepted, point0, point1,
			`{"type":"point","index":2,"total":2,"status":"done","id":"j1","result":{}}`, summary}, "outside"},
		{"negative index", []string{accepted,
			`{"type":"point","index":-1,"total":2,"status":"done","id":"j1","result":{}}`, summary}, "outside"},
		{"second accepted", []string{accepted, point0, accepted, point1, summary}, "second"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := strings.Join(tc.lines, "\n") + "\n"
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/x-ndjson")
				_, _ = w.Write([]byte(body))
			}))
			defer srv.Close()
			rows, _, err := client.New(srv.URL).Run(context.Background(), testSpec(0.01), nil)
			if tc.wantErr == "" {
				if err != nil || len(rows) != 2 || rows[0].Err != "p0" || rows[1].Err != "p1" {
					t.Fatalf("well-formed stream: rows=%+v err=%v", rows, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want one mentioning %q (rows %+v)", err, tc.wantErr, rows)
			}
		})
	}
}
