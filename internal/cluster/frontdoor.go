package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flov/internal/nlog"
	"flov/internal/sweep"
)

// Front door: the job plane's HTTP layer. All job state lives in the
// store, so any number of front doors can serve one store and a
// restarted front door resumes exactly where the old one stopped — a
// client re-requests its stream with ?from=<lines already seen> and
// replay continues from the durable event feed. The in-memory state is
// deliberately lossy across restarts: token buckets (forgetting one
// briefly over-admits), the streams attached to each job (a restart
// forgets them, so no abandonment fires), metrics and the debug ring.

// maxSpecBytes bounds a submitted spec body; real specs are a few
// hundred bytes, so 1 MiB is generous and still DoS-safe.
const maxSpecBytes = 1 << 20

// DefaultTenantQuota is the default cap on a tenant's unfinished jobs:
// sixteen waiting plus the one a single worker runs.
const DefaultTenantQuota = 17

// Admission errors mapped to HTTP statuses by the handlers.
var (
	// ErrQuotaExceeded reports a tenant at its unfinished-job quota (429).
	ErrQuotaExceeded = errors.New("cluster: tenant quota exceeded")
	// ErrRateLimited reports a tenant submitting faster than its rate (429).
	ErrRateLimited = errors.New("cluster: tenant rate limited")
	// ErrDraining rejects a submission during graceful shutdown (503).
	ErrDraining = errors.New("cluster: draining, not admitting jobs")
)

// FrontDoorConfig tunes admission control and the serving surface.
type FrontDoorConfig struct {
	// MaxActivePerTenant caps a tenant's unfinished (queued or running)
	// jobs; further submissions answer 429 until one finishes. <= 0
	// means DefaultTenantQuota.
	MaxActivePerTenant int
	// RatePerMinute caps a tenant's submission rate (token bucket).
	// <= 0 disables rate limiting.
	RatePerMinute int
	// Burst is the bucket depth. <= 0 means max(4, RatePerMinute/10).
	Burst int
	// JobTimeout, when positive, stamps submissions that carry no
	// explicit timeout with an absolute deadline this far out.
	JobTimeout time.Duration
	// Cache is the shared result cache: /v1/opt/run evaluates through
	// it and /metrics reports its counters. Nil disables both uses.
	Cache *sweep.Cache
	// Workers is the engine pool size for /v1/opt/run (<= 0 means
	// GOMAXPROCS).
	Workers int
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// Logf, when non-nil, also receives every /debug/events line.
	Logf func(format string, args ...any)
}

func (c FrontDoorConfig) maxActive() int {
	if c.MaxActivePerTenant > 0 {
		return c.MaxActivePerTenant
	}
	return DefaultTenantQuota
}

func (c FrontDoorConfig) burst() int {
	if c.Burst > 0 {
		return c.Burst
	}
	if b := c.RatePerMinute / 10; b > 4 {
		return b
	}
	return 4
}

// bucket is one tenant's token bucket.
type bucket struct {
	tokens float64
	last   time.Time
}

// FrontDoor serves the job plane's API over a store.
type FrontDoor struct {
	store    *Store
	cfg      FrontDoorConfig
	metrics  *Metrics
	events   *nlog.Shared
	draining atomic.Bool

	mu      sync.Mutex
	buckets map[string]*bucket
	refs    map[string]int // job id -> streaming submitters attached here
}

// eventLogSize is the /debug/events ring capacity.
const eventLogSize = 512

// NewFrontDoor builds a front door over store.
func NewFrontDoor(store *Store, cfg FrontDoorConfig) *FrontDoor {
	return &FrontDoor{store: store, cfg: cfg, metrics: &Metrics{},
		events: nlog.NewShared(eventLogSize), buckets: make(map[string]*bucket), refs: make(map[string]int)}
}

// Metrics returns the front door's counter set, for an in-process
// worker to share.
func (f *FrontDoor) Metrics() *Metrics { return f.metrics }

// Logf records a lifecycle line on the /debug/events ring (stamped with
// unix milliseconds in the ring's cycle slot) and mirrors it to the
// configured Logf.
func (f *FrontDoor) Logf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	f.events.Add(time.Now().UnixMilli(), nlog.KService, -1, msg)
	if f.cfg.Logf != nil {
		f.cfg.Logf("%s", msg)
	}
}

// Handler returns the daemon's HTTP API:
//
//	POST /v1/sweeps                submit a spec, return immediately (202)
//	POST /v1/sweeps/run            submit a spec and stream NDJSON until done
//	POST /v1/opt/run               run a design-space search, stream generations
//	GET  /v1/sweeps/{id}           job status
//	GET  /v1/sweeps/{id}/stream    NDJSON feed; ?from=N resumes after N lines
//	GET  /v1/sweeps/{id}/results   canonical result rows of a finished job
//	GET  /metrics                  Prometheus counters and histograms
//	GET  /debug/events             tail of the lifecycle event ring
//	GET  /healthz                  liveness (503 while draining)
//
// Every route runs behind a panic-isolating middleware: a crashing
// handler answers 500 (when headers are still writable) and the daemon
// keeps serving.
func (f *FrontDoor) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", f.handleSubmit)
	mux.HandleFunc("POST /v1/sweeps/run", f.handleRun)
	mux.HandleFunc("POST /v1/opt/run", f.handleOptRun)
	mux.HandleFunc("GET /v1/sweeps/{id}", f.handleStatus)
	mux.HandleFunc("GET /v1/sweeps/{id}/stream", f.handleStream)
	mux.HandleFunc("GET /v1/sweeps/{id}/results", f.handleResults)
	mux.HandleFunc("GET /metrics", f.handleMetrics)
	mux.HandleFunc("GET /debug/events", f.handleEvents)
	mux.HandleFunc("GET /healthz", f.handleHealthz)
	if f.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return f.recoverPanics(mux)
}

// recoverPanics is the outermost middleware: handler panics become 500s
// and a ring event instead of a dead daemon.
func (f *FrontDoor) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				f.metrics.panics.Add(1)
				buf := make([]byte, 4096)
				buf = buf[:runtime.Stack(buf, false)]
				f.Logf("handler panic on %s %s: %v", r.Method, r.URL.Path, p)
				f.Logf("%s", firstLines(string(buf), 6))
				// Headers may already be gone on a streaming route; the
				// write error is then the client's signal.
				writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", p))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// firstLines truncates s to its first n lines (panic stacks on the ring).
func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Committed response: an encode error means the client went away.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorBody{Error: msg})
}

// tenant extracts the caller's tenant: the X-Flov-Tenant header, else
// "default". Authentication is out of scope; the quota machinery only
// needs a stable identity per caller.
func tenant(r *http.Request) string {
	if t := strings.TrimSpace(r.Header.Get("X-Flov-Tenant")); t != "" {
		return t
	}
	return "default"
}

// admitRate charges one token from the tenant's bucket. On refusal it
// returns how long until a token is available, which the handler
// surfaces as Retry-After.
func (f *FrontDoor) admitRate(ten string, now time.Time) (time.Duration, error) {
	if f.cfg.RatePerMinute <= 0 {
		return 0, nil
	}
	rate := float64(f.cfg.RatePerMinute) / 60.0 // tokens per second
	depth := float64(f.cfg.burst())
	f.mu.Lock()
	defer f.mu.Unlock()
	b, ok := f.buckets[ten]
	if !ok {
		b = &bucket{tokens: depth, last: now}
		f.buckets[ten] = b
	}
	b.tokens = math.Min(depth, b.tokens+now.Sub(b.last).Seconds()*rate)
	b.last = now
	if b.tokens < 1 {
		wait := time.Duration((1 - b.tokens) / rate * float64(time.Second))
		return wait, ErrRateLimited
	}
	b.tokens--
	return 0, nil
}

// activeJobs counts a tenant's unfinished jobs that are not being
// canceled (store scan; the store is the only job state).
func (f *FrontDoor) activeJobs(ten string) (int, error) {
	ids, err := f.store.Pending()
	if err != nil {
		return 0, err
	}
	if len(ids) < f.cfg.maxActive() {
		return len(ids), nil // under quota whoever owns them
	}
	n := 0
	for _, id := range ids {
		if _, canceling := f.store.CancelRequested(id); canceling {
			continue
		}
		if rec, err := f.store.Job(id); err == nil && rec.Tenant == ten {
			n++
		}
	}
	return n, nil
}

// retryAfterSeconds renders a wait as a whole-second Retry-After value,
// rounding up so clients never retry early (minimum 1).
func retryAfterSeconds(wait time.Duration) string {
	s := int(math.Ceil(wait.Seconds()))
	if s < 1 {
		s = 1
	}
	return strconv.Itoa(s)
}

// readSpec parses and expands the request body into a point list.
func readSpec(r *http.Request) ([]sweep.Job, error) {
	data, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		return nil, fmt.Errorf("read body: %w", err)
	}
	if len(data) > maxSpecBytes {
		return nil, fmt.Errorf("spec larger than %d bytes", maxSpecBytes)
	}
	var spec sweep.Spec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("parse spec: %w", err)
	}
	points, err := spec.Jobs()
	if err != nil {
		return nil, err
	}
	if len(points) == 0 {
		return nil, errors.New("spec expands to zero jobs")
	}
	return points, nil
}

// admission is how a submission resolved against the store.
type admission struct {
	id      string
	deduped bool // attached to an existing unfinished or finished job
	// done and results are set when the spec's job already finished
	// cleanly: the submission is answered from the stored rows.
	done    *DoneRecord
	results []byte
}

// admit runs a submission through draining, rate, spec and quota checks
// and resolves it to a job, answering the error itself when it fails.
// pin marks a fire-and-forget submission; otherwise the caller is a
// streaming submitter and holds a reference it must release.
func (f *FrontDoor) admit(w http.ResponseWriter, r *http.Request, pin bool) ([]sweep.Job, admission, bool) {
	if f.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, ErrDraining.Error())
		return nil, admission{}, false
	}
	ten := tenant(r)
	now := time.Now()
	if wait, err := f.admitRate(ten, now); err != nil {
		f.metrics.jobsRejected.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds(wait))
		writeError(w, http.StatusTooManyRequests, err.Error())
		return nil, admission{}, false
	}
	points, err := readSpec(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return nil, admission{}, false
	}
	// The deadline is absolute from admission time: requeues and steals
	// inherit it unchanged, so a job's wall budget never restarts.
	timeout := f.cfg.JobTimeout
	if q := r.URL.Query().Get("timeout_ms"); q != "" {
		ms, err := strconv.ParseInt(q, 10, 64)
		if err != nil || ms < 0 {
			writeError(w, http.StatusBadRequest, "timeout_ms must be a non-negative integer")
			return nil, admission{}, false
		}
		timeout = time.Duration(ms) * time.Millisecond
	}
	var deadlineMS int64
	if timeout > 0 {
		deadlineMS = now.Add(timeout).UnixMilli()
	}
	a, err := f.resolve(points, ten, now, deadlineMS, pin)
	switch {
	case errors.Is(err, ErrQuotaExceeded):
		// A finishing job frees the quota slot; a short fixed hint keeps
		// well-behaved clients from hammering the scan.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err.Error())
		return nil, admission{}, false
	case err != nil:
		writeError(w, http.StatusInternalServerError, err.Error())
		return nil, admission{}, false
	}
	return points, a, true
}

// resolve finds or creates the job for points. The spec's runs are
// tried in order: an unfinished run is shared (dedup), a run that
// finished cleanly answers from its stored rows, and a run that was
// canceled, is being canceled or finished with failed points is passed
// over, so the spec runs again under the next run id.
func (f *FrontDoor) resolve(points []sweep.Job, ten string, now time.Time, deadlineMS int64, pin bool) (admission, error) {
	s := f.store
	hash := SpecHash(points)
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	var id string
	for run := 1; ; run++ {
		id = runID(hash, run)
		if !s.exists(id) {
			break
		}
		if d, finished := s.Done(id); finished {
			if d.State == StateDone && d.Errors == 0 {
				if data, ok := s.Results(id); ok {
					return admission{id: id, deduped: true, done: &d, results: data}, nil
				}
			}
			continue
		}
		if _, canceling := s.CancelRequested(id); canceling {
			continue
		}
		f.metrics.jobsDeduped.Add(1)
		f.Logf("dedup %s (%d points)", id, len(points))
		return admission{id: id, deduped: true}, f.attach(id, pin)
	}

	active, err := f.activeJobs(ten)
	if err != nil {
		return admission{}, err
	}
	if active >= f.cfg.maxActive() {
		f.metrics.jobsRejected.Add(1)
		f.Logf("rejected submission from %s (%d points): quota %d reached", ten, len(points), f.cfg.maxActive())
		return admission{}, ErrQuotaExceeded
	}
	stored, created, err := s.Submit(JobRecord{ID: id, Tenant: ten, SpecHash: hash, Points: points,
		SubmittedMS: now.UnixMilli(), DeadlineMS: deadlineMS})
	if err != nil {
		return admission{}, err
	}
	if created { // Submit wrote the feed's "accepted" line
		f.metrics.jobsAccepted.Add(1)
		f.Logf("accepted %s from %s (%d points)", stored.ID, ten, len(points))
	} else {
		f.metrics.jobsDeduped.Add(1) // another front door published it first
	}
	return admission{id: stored.ID, deduped: !created}, f.attach(stored.ID, pin)
}

// attach records who holds the job open: a fire-and-forget submission
// pins it for good, a streaming submitter takes a reference here.
func (f *FrontDoor) attach(id string, pin bool) error {
	if pin {
		return f.store.Pin(id)
	}
	f.mu.Lock()
	f.refs[id]++
	f.mu.Unlock()
	return nil
}

// release drops a streaming submitter's reference. When the last one on
// this front door disconnects before the job finished, and no
// fire-and-forget submission pinned it, the job is canceled.
func (f *FrontDoor) release(id string, disconnected bool) {
	s := f.store
	s.admitMu.Lock()
	f.mu.Lock()
	f.refs[id]--
	left := f.refs[id]
	if left <= 0 {
		delete(f.refs, id)
	}
	f.mu.Unlock()
	abandon := false
	if disconnected && left <= 0 && !s.Pinned(id) {
		if _, finished := s.Done(id); !finished {
			abandon = s.Cancel(id, "abandoned by client") == nil
		}
	}
	s.admitMu.Unlock()
	if abandon {
		f.Logf("cancel %s: abandoned by client", id)
		f.finishUnclaimed(id, "abandoned by client")
	}
}

// frontDoorWorker names the front door in the leases it takes to finish
// canceled jobs no worker holds.
const frontDoorWorker = "frontdoor"

// finishUnclaimed finishes a job with a cancel request as canceled when
// no worker holds it, so its quota slot frees at once. A held job is
// left to its worker, which observes the request at its next pause
// poll.
func (f *FrontDoor) finishUnclaimed(id, reason string) {
	s := f.store
	lease, err := s.Claim(id, frontDoorWorker, time.Minute)
	if err != nil {
		return
	}
	if _, finished := s.Done(id); finished {
		s.RemoveLeases(id) // a worker finished it first
		return
	}
	rec, err := s.Job(id)
	if err != nil {
		_ = lease.Release()
		return
	}
	durable, err := s.Rows(id, rec.Points)
	if err != nil {
		_ = lease.Release()
		return
	}
	d, err := s.finish(rec, lease, assembleRows(rec.Points, durable, nil), StateCanceled, reason)
	if err != nil {
		f.Logf("finish %s: %v", id, err)
		_ = lease.Release()
		return
	}
	f.metrics.finished(d)
	f.Logf("finish %s: %s (%s)", id, StateCanceled, reason)
}

// handleSubmit is the fire-and-forget path: admit and answer 202 with
// the job's status; the job runs to completion server-side.
func (f *FrontDoor) handleSubmit(w http.ResponseWriter, r *http.Request) {
	_, a, ok := f.admit(w, r, true)
	if !ok {
		return
	}
	st, err := f.status(a.id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	st.Deduped = a.deduped
	writeJSON(w, http.StatusAccepted, st)
}

// handleRun is the interactive path: admit, then stream the job's feed
// until the summary. Closing the connection before completion drops
// this submitter's reference; see release. A spec whose job already
// finished cleanly is answered from the stored rows.
func (f *FrontDoor) handleRun(w http.ResponseWriter, r *http.Request) {
	points, a, ok := f.admit(w, r, false)
	if !ok {
		return
	}
	if a.done != nil {
		f.replay(w, a, points)
		return
	}
	complete := f.follow(w, r, a.id, 0)
	f.release(a.id, !complete)
}

// replay answers a finished job from its stored rows: "accepted", one
// "cached" point per row, then "summary", with no simulation. Rows are
// spliced into the point lines as stored, never decoded.
func (f *FrontDoor) replay(w http.ResponseWriter, a admission, points []sweep.Job) {
	start := time.Now()
	var rows []json.RawMessage
	if err := json.Unmarshal(a.results, &rows); err != nil || len(rows) != len(points) {
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("stored rows of %s unreadable", a.id))
		return
	}
	var buf, row bytes.Buffer
	enc := json.NewEncoder(&buf)
	// Encoding plain data into a buffer cannot fail.
	_ = enc.Encode(StreamEvent{Type: EventAccepted, ID: a.id, Total: len(points), State: StateDone})
	for i, raw := range rows {
		row.Reset()
		if err := json.Compact(&row, raw); err != nil {
			writeError(w, http.StatusInternalServerError, fmt.Sprintf("stored rows of %s unreadable", a.id))
			return
		}
		line, err := withResult(StreamEvent{Type: EventPoint, Index: i, Total: len(points),
			Desc: points[i].Desc(), Status: PointCached, ID: a.id}, row.Bytes())
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	st := a.done.Stats
	st.CacheHits, st.WorkWall, st.Wall = len(points), 0, time.Since(start)
	_ = enc.Encode(StreamEvent{Type: EventSummary, ID: a.id, Total: len(points), State: StateDone, Stats: &st})
	f.metrics.pointsReplayed.Add(int64(len(points)))
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	// Committed response: a failed write means the client went away.
	_, _ = w.Write(buf.Bytes())
}

// status derives a job's externally visible status from the store.
func (f *FrontDoor) status(id string) (JobStatus, error) {
	rec, err := f.store.Job(id)
	if err != nil {
		return JobStatus{}, err
	}
	st := JobStatus{ID: rec.ID, Tenant: rec.Tenant, Points: len(rec.Points), DeadlineMS: rec.DeadlineMS}
	if d, ok := f.store.Done(id); ok {
		st.State, st.Err = d.State, d.Reason
		st.Done, st.CacheHits, st.Errors = len(rec.Points), d.Stats.CacheHits, d.Errors
		st.WallMS = float64(d.Stats.Wall) / float64(time.Millisecond)
		st.Resumes = d.Resumes
		return st, nil
	}
	st.State = StateQueued
	if li, ok := f.store.CurrentLease(id); ok {
		st.Resumes = li.Epoch - 1
		if !li.Expired(time.Now()) {
			st.State = StateRunning
		}
	}
	if rows, err := f.store.Rows(id, rec.Points); err == nil {
		st.Done = len(rows)
		for _, r := range rows {
			if r.CacheHit {
				st.CacheHits++
			}
		}
	}
	return st, nil
}

func (f *FrontDoor) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := f.status(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// streamPoll is how often a live stream re-reads the feed when no write
// through this process's store handle woke it (writes by other
// processes).
const streamPoll = 150 * time.Millisecond

// handleStream replays a job's event feed as NDJSON and follows it live
// until the terminal summary. ?from=N skips the first N lines: a client
// that counted its received lines resumes exactly where its previous
// connection (possibly to a different front door) dropped. Watchers
// hold no reference: disconnecting one never cancels the job.
func (f *FrontDoor) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !f.store.exists(id) {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, "from must be a non-negative integer")
			return
		}
		from = v
	}
	f.follow(w, r, id, from)
}

// summaryPrefix starts every summary line: the type is the first field
// of every encoded StreamEvent.
var summaryPrefix = []byte(`{"type":"` + EventSummary + `"`)

// follow writes the job's feed from line from onward, flushing per line
// so progress is visible while points are still simulating, and
// reports whether it reached the summary (false: the client went away).
func (f *FrontDoor) follow(w http.ResponseWriter, r *http.Request, id string, from int) (complete bool) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	var off int64
	var graceEnd time.Time // set once the job is seen finished without a summary
	for {
		changed := f.store.Changed()
		lines, next, err := f.store.readFeed(id, off)
		if err != nil {
			return false
		}
		off = next
		for _, line := range lines {
			if from > 0 {
				from--
				continue
			}
			if _, err := w.Write(line); err != nil {
				return false // client gone
			}
			if _, err := w.Write([]byte{'\n'}); err != nil {
				return false
			}
			if flusher != nil {
				flusher.Flush()
			}
			if bytes.HasPrefix(line, summaryPrefix) {
				return true
			}
		}
		if len(lines) == 0 {
			// The summary follows the done marker within microseconds, so
			// a finished (or compacted) job whose summary is still missing
			// a poll later had a finisher die between the two: the feed
			// has ended.
			if !graceEnd.IsZero() {
				if time.Now().After(graceEnd) {
					return true
				}
			} else if _, done := f.store.Done(id); done || !f.store.exists(id) {
				graceEnd = time.Now().Add(streamPoll)
			}
		}
		select {
		case <-r.Context().Done():
			return false
		case <-changed:
		case <-time.After(streamPoll):
		}
	}
}

// handleResults serves the canonical results file raw — the same bytes
// every worker computed, byte-identical to a local flovsweep run.
func (f *FrontDoor) handleResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !f.store.exists(id) {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	d, ok := f.store.Done(id)
	if !ok {
		writeError(w, http.StatusConflict, "job not finished: "+f.store.JobState(id))
		return
	}
	if d.State == StateCanceled {
		writeError(w, http.StatusGone, "job canceled: "+d.Reason)
		return
	}
	data, ok := f.store.Results(id)
	if !ok {
		writeError(w, http.StatusInternalServerError, "results of a finished job are missing")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// Committed response: a failed write means the client went away.
	_, _ = w.Write(data)
}

func (f *FrontDoor) handleMetrics(w http.ResponseWriter, r *http.Request) {
	queued, running := 0, 0
	if ids, err := f.store.Pending(); err == nil {
		now := time.Now()
		for _, id := range ids {
			if li, ok := f.store.CurrentLease(id); ok && !li.Expired(now) {
				running++
			} else {
				queued++
			}
		}
	}
	var b strings.Builder
	f.metrics.render(&b, queued, running, f.draining.Load(), f.cfg.Cache)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	// Committed response: a failed write means the scraper disconnected.
	_, _ = io.WriteString(w, b.String())
}

func (f *FrontDoor) handleEvents(w http.ResponseWriter, r *http.Request) {
	n := 100
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			writeError(w, http.StatusBadRequest, "n must be a positive integer")
			return
		}
		n = v
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	var b strings.Builder
	for _, e := range f.events.Tail(n) {
		// The ring's cycle slot carries unix milliseconds here.
		fmt.Fprintf(&b, "%s  %s\n", time.UnixMilli(e.Cycle).UTC().Format("2006-01-02T15:04:05.000Z"), e.Note)
	}
	_, _ = io.WriteString(w, b.String())
}

func (f *FrontDoor) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if f.Draining() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{"ok"})
}

// Draining reports whether the front door has stopped admitting work.
func (f *FrontDoor) Draining() bool { return f.draining.Load() }

// Drain stops admitting work and waits until the store holds no
// unfinished job. If ctx expires first, every unfinished job is
// canceled — at once when no worker holds it, at its worker's next
// pause poll otherwise — and Drain waits for those cancellations to
// land before returning ctx's error. Jobs only finish while some worker
// runs, so single-node flovd stops its in-process worker after Drain.
func (f *FrontDoor) Drain(ctx context.Context) error {
	f.draining.Store(true)
	f.Logf("draining")
	expired := ctx.Done()
	for {
		changed := f.store.Changed()
		ids, err := f.store.Pending()
		if err != nil {
			return err
		}
		if len(ids) == 0 {
			if ctx.Err() != nil {
				f.Logf("drain grace expired; in-flight jobs canceled")
				return ctx.Err()
			}
			f.Logf("drained cleanly")
			return nil
		}
		select {
		case <-expired:
			expired = nil
			for _, id := range ids {
				if err := f.store.Cancel(id, "drain grace expired"); err != nil {
					f.Logf("cancel %s: %v", id, err)
					continue
				}
				f.finishUnclaimed(id, "drain grace expired")
			}
		case <-changed:
		case <-time.After(streamPoll):
		}
	}
}
