package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"flov/internal/sweep"
)

func newFrontDoor(t *testing.T, store *Store, cfg FrontDoorConfig) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewFrontDoor(store, cfg).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func postClusterSpec(t *testing.T, url string, spec sweep.Spec, tenant string) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Flov-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeClusterStatus(t *testing.T, resp *http.Response) JobStatus {
	t.Helper()
	defer func() { _ = resp.Body.Close() }()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestFrontDoorSubmitAndDedup(t *testing.T) {
	store := openStore(t)
	srv := newFrontDoor(t, store, FrontDoorConfig{JobTimeout: time.Hour})

	resp := postClusterSpec(t, srv.URL, testSpec(0.1), "acme")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	st := decodeClusterStatus(t, resp)
	if st.ID == "" || st.State != "queued" || st.Points != 1 || st.Tenant != "acme" {
		t.Fatalf("status = %+v", st)
	}
	if st.DeadlineMS == 0 {
		t.Fatal("JobTimeout did not stamp an absolute deadline")
	}
	// Identical resubmission coincides with the stored job.
	st2 := decodeClusterStatus(t, postClusterSpec(t, srv.URL, testSpec(0.1), "acme"))
	if st2.ID != st.ID || !st2.Deduped {
		t.Fatalf("resubmit = %+v", st2)
	}
	// The accepted event is on the durable feed exactly once.
	lines, err := store.Events(st.ID, 0)
	if err != nil || len(lines) != 1 {
		t.Fatalf("events = %d lines, err %v", len(lines), err)
	}
}

func TestFrontDoorRateLimit429RetryAfter(t *testing.T) {
	store := openStore(t)
	srv := newFrontDoor(t, store, FrontDoorConfig{RatePerMinute: 60, Burst: 1})

	resp := postClusterSpec(t, srv.URL, testSpec(0.1), "")
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d", resp.StatusCode)
	}
	resp = postClusterSpec(t, srv.URL, testSpec(0.2), "")
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit = %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive whole-second value", resp.Header.Get("Retry-After"))
	}
	// Another tenant has its own bucket.
	resp2 := postClusterSpec(t, srv.URL, testSpec(0.3), "other")
	_ = resp2.Body.Close()
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant = %d, want 202", resp2.StatusCode)
	}
}

func TestFrontDoorTenantQuota(t *testing.T) {
	store := openStore(t)
	srv := newFrontDoor(t, store, FrontDoorConfig{MaxActivePerTenant: 1, RatePerMinute: 6000})

	resp := postClusterSpec(t, srv.URL, testSpec(0.1), "acme")
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first = %d", resp.StatusCode)
	}
	// No worker is draining the store, so the slot stays occupied.
	resp = postClusterSpec(t, srv.URL, testSpec(0.2), "acme")
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over quota = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("quota 429 missing Retry-After")
	}
	// Other tenants are unaffected.
	resp2 := postClusterSpec(t, srv.URL, testSpec(0.2), "other")
	_ = resp2.Body.Close()
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant = %d", resp2.StatusCode)
	}
}

// readStream collects NDJSON lines from a stream response.
func readStream(t *testing.T, resp *http.Response) []string {
	t.Helper()
	defer func() { _ = resp.Body.Close() }()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestFrontDoorResumableStream pins statelessness: a client that
// counted its received lines can reconnect — to a brand-new front door
// process — with ?from=N and receive exactly the remainder of the feed.
func TestFrontDoorResumableStream(t *testing.T) {
	store := openStore(t)
	srv := newFrontDoor(t, store, FrontDoorConfig{})

	points := mustPoints(t, testSpec(0.1, 0.2))
	st := decodeClusterStatus(t, postClusterSpec(t, srv.URL, testSpec(0.1, 0.2), ""))

	w := &Worker{Store: store, Name: "w1", LeaseTTL: time.Minute, Workers: 2}
	driveToDone(t, w, store, st.ID)

	resp, err := http.Get(srv.URL + "/v1/sweeps/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	all := readStream(t, resp)
	if len(all) < 3 { // accepted, claimed, points..., summary
		t.Fatalf("full stream = %d lines", len(all))
	}
	var last StreamEvent
	if err := json.Unmarshal([]byte(all[len(all)-1]), &last); err != nil || last.Type != EventSummary {
		t.Fatalf("last line = %q (err %v), want summary", all[len(all)-1], err)
	}
	if last.Total != len(points) || last.State != StateDone {
		t.Fatalf("summary = %+v", last)
	}

	// "Restart" the front door: a second instance over the same store
	// serves the resumed stream identically.
	srv2 := newFrontDoor(t, store, FrontDoorConfig{})
	from := len(all) - 2
	resp, err = http.Get(srv2.URL + "/v1/sweeps/" + st.ID + "/stream?from=" + strconv.Itoa(from))
	if err != nil {
		t.Fatal(err)
	}
	tail := readStream(t, resp)
	if len(tail) != 2 || tail[0] != all[from] || tail[1] != all[from+1] {
		t.Fatalf("resumed tail = %q, want last two lines of %d", tail, len(all))
	}
}

func TestFrontDoorResults(t *testing.T) {
	store := openStore(t)
	srv := newFrontDoor(t, store, FrontDoorConfig{})

	points := mustPoints(t, testSpec(0.1))
	ref := referenceBytes(t, points)
	st := decodeClusterStatus(t, postClusterSpec(t, srv.URL, testSpec(0.1), ""))

	// Unfinished: 409.
	resp, err := http.Get(srv.URL + "/v1/sweeps/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("unfinished results = %d, want 409", resp.StatusCode)
	}

	w := &Worker{Store: store, Name: "w1", LeaseTTL: time.Minute, Workers: 2}
	driveToDone(t, w, store, st.ID)

	resp, err = http.Get(srv.URL + "/v1/sweeps/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results = %d", resp.StatusCode)
	}
	if !bytes.Equal(got, ref) {
		t.Error("served results differ from single-node reference bytes")
	}

	// Status reflects completion.
	resp, err = http.Get(srv.URL + "/v1/sweeps/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	final := decodeClusterStatus(t, resp)
	if final.State != StateDone || final.Done != 1 {
		t.Fatalf("final status = %+v", final)
	}
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer func() { _ = resp.Body.Close() }()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFrontDoorUnknownJob(t *testing.T) {
	srv := newFrontDoor(t, openStore(t), FrontDoorConfig{})
	for _, path := range []string{"/v1/sweeps/jnope", "/v1/sweeps/jnope/stream", "/v1/sweeps/jnope/results"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s = %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestFrontDoorTimeoutParam(t *testing.T) {
	store := openStore(t)
	srv := newFrontDoor(t, store, FrontDoorConfig{})

	body, _ := json.Marshal(testSpec(0.1))
	resp, err := http.Post(srv.URL+"/v1/sweeps?timeout_ms=60000", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	st := decodeClusterStatus(t, resp)
	if st.DeadlineMS == 0 {
		t.Fatal("timeout_ms did not set a deadline")
	}
	rec, err := store.Job(st.ID)
	if err != nil || rec.DeadlineMS != st.DeadlineMS {
		t.Fatalf("record deadline %d vs status %d (err %v)", rec.DeadlineMS, st.DeadlineMS, err)
	}
	want := time.Now().Add(time.Minute).UnixMilli()
	if d := rec.DeadlineMS - want; d < -5000 || d > 5000 {
		t.Fatalf("deadline %d not ~60s out (want ~%d)", rec.DeadlineMS, want)
	}
}
