// Package client is the Go client for a running flovd daemon. It is
// used by `flovsweep -server` and by end-to-end tests; the wire types
// live in the cluster package so client and server cannot drift.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"flov/internal/cluster"
	"flov/internal/sweep"
)

// Client talks to one flovd base URL. The zero HTTP client is replaced
// with a default whose transport has no overall timeout: streams are
// long-lived by design, per-call lifetimes come from the context.
type Client struct {
	base string
	http *http.Client
	// Retry tunes transient-failure handling; the zero value uses the
	// defaults documented on RetryPolicy.
	Retry RetryPolicy
}

// RetryPolicy bounds the client's automatic retry of throttled (429)
// and server-failure (5xx) responses. Waits honor the server's
// Retry-After header when present — flovd emits it on 429 — and
// otherwise back off exponentially with jitter, so a herd of throttled
// clients does not re-arrive in lockstep.
type RetryPolicy struct {
	// Attempts is the total number of tries per request. <= 0 means 4;
	// 1 disables retry.
	Attempts int
	// BaseDelay seeds the exponential backoff. <= 0 means 200ms.
	BaseDelay time.Duration
	// MaxDelay caps one backoff wait (Retry-After may exceed it).
	// <= 0 means 5s.
	MaxDelay time.Duration
}

func (p RetryPolicy) attempts() int {
	if p.Attempts > 0 {
		return p.Attempts
	}
	return 4
}

func (p RetryPolicy) baseDelay() time.Duration {
	if p.BaseDelay > 0 {
		return p.BaseDelay
	}
	return 200 * time.Millisecond
}

func (p RetryPolicy) maxDelay() time.Duration {
	if p.MaxDelay > 0 {
		return p.MaxDelay
	}
	return 5 * time.Second
}

// New returns a client for the daemon at base (e.g. "http://host:8080").
func New(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), http: &http.Client{}}
}

// retryable reports whether a status is worth re-trying: throttling and
// server-side failures. Everything 4xx-but-429 is the caller's bug.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status >= 500
}

// retryAfter parses a response's Retry-After header (whole seconds; the
// HTTP-date form is ignored as no flov server emits it).
func retryAfter(resp *http.Response) time.Duration {
	s, err := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After")))
	if err != nil || s < 0 {
		return 0
	}
	return time.Duration(s) * time.Second
}

// backoff computes the jittered exponential wait for a retry attempt
// (0-based): a random value in [d/2, d] where d doubles per attempt up
// to the cap.
func (p RetryPolicy) backoff(attempt int) time.Duration {
	d := p.baseDelay() << attempt
	if max := p.maxDelay(); d > max || d <= 0 {
		d = max
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// doRetry issues a request built by mk, retrying 429/5xx responses up
// to the policy's attempt budget. mk is called per attempt because a
// request body is consumed by the transport. The final response (or
// transport error) is returned as-is, so callers' status handling is
// unchanged when retries are exhausted.
func (c *Client) doRetry(ctx context.Context, mk func() (*http.Request, error)) (*http.Response, error) {
	attempts := c.Retry.attempts()
	for attempt := 0; ; attempt++ {
		req, err := mk()
		if err != nil {
			return nil, err
		}
		resp, err := c.http.Do(req)
		if err != nil {
			return nil, err // transport errors are not retried: the request may have executed
		}
		if !retryable(resp.StatusCode) || attempt >= attempts-1 {
			return resp, nil
		}
		wait := retryAfter(resp)
		if wait == 0 {
			wait = c.Retry.backoff(attempt)
		}
		// Drain so the connection can be reused across the wait.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		_ = resp.Body.Close()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(wait):
		}
	}
}

// apiError decodes a non-2xx response into an error carrying the
// server's message and status code.
func apiError(resp *http.Response) error {
	defer func() { _ = resp.Body.Close() }()
	var body cluster.ErrorBody
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err == nil && json.Unmarshal(data, &body) == nil && body.Error != "" {
		return fmt.Errorf("flovd: %s (HTTP %d)", body.Error, resp.StatusCode)
	}
	return fmt.Errorf("flovd: HTTP %d", resp.StatusCode)
}

func (c *Client) postSpec(ctx context.Context, path string, spec sweep.Spec) (*http.Response, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("client: encode spec: %w", err)
	}
	return c.doRetry(ctx, func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	})
}

func (c *Client) getJSON(ctx context.Context, path string, v any) error {
	resp, err := c.doRetry(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	})
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	defer func() { _ = resp.Body.Close() }()
	return json.NewDecoder(resp.Body).Decode(v)
}

// Submit enqueues a spec fire-and-forget and returns its job status
// (ID, queue state, dedup flag). The job runs server-side regardless of
// this client's lifetime.
func (c *Client) Submit(ctx context.Context, spec sweep.Spec) (cluster.JobStatus, error) {
	resp, err := c.postSpec(ctx, "/v1/sweeps", spec)
	if err != nil {
		return cluster.JobStatus{}, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return cluster.JobStatus{}, apiError(resp)
	}
	defer func() { _ = resp.Body.Close() }()
	var st cluster.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return cluster.JobStatus{}, fmt.Errorf("client: decode submit response: %w", err)
	}
	return st, nil
}

// Status polls a job.
func (c *Client) Status(ctx context.Context, id string) (cluster.JobStatus, error) {
	var st cluster.JobStatus
	err := c.getJSON(ctx, "/v1/sweeps/"+id, &st)
	return st, err
}

// Results fetches the result rows of a finished job.
func (c *Client) Results(ctx context.Context, id string) ([]sweep.Result, error) {
	var rows []sweep.Result
	if err := c.getJSON(ctx, "/v1/sweeps/"+id+"/results", &rows); err != nil {
		return nil, err
	}
	return rows, nil
}

// Metrics fetches the raw /metrics exposition (tests and diagnostics).
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", apiError(resp)
	}
	defer func() { _ = resp.Body.Close() }()
	data, err := io.ReadAll(resp.Body)
	return string(data), err
}

// Run submits a spec on the streaming path and follows it to
// completion, returning one result per point in job order plus the
// server's summary stats. onEvent, when non-nil, sees every stream
// event as it arrives (progress tickers). Cancelling ctx tears the
// stream down; if no other submitter shares the job, the server cancels
// it and frees its queue slot.
//
// Per-invocation fields the result JSON intentionally omits (CacheHit,
// Wall) are restored from the stream's progress metadata, so callers
// see the same rows a local engine run would produce.
func (c *Client) Run(ctx context.Context, spec sweep.Spec, onEvent func(cluster.StreamEvent)) ([]sweep.Result, sweep.Stats, error) {
	resp, err := c.postSpec(ctx, "/v1/sweeps/run", spec)
	if err != nil {
		return nil, sweep.Stats{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, sweep.Stats{}, apiError(resp)
	}
	defer func() { _ = resp.Body.Close() }()

	var (
		results []sweep.Result
		stats   sweep.Stats
		state   string
		failure string
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev cluster.StreamEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, sweep.Stats{}, fmt.Errorf("client: bad stream line: %w", err)
		}
		if onEvent != nil {
			onEvent(ev)
		}
		switch ev.Type {
		case cluster.EventAccepted:
			if results != nil {
				return nil, sweep.Stats{}, fmt.Errorf("client: malformed stream: second %q event", ev.Type)
			}
			results = make([]sweep.Result, ev.Total)
		case cluster.EventPoint:
			// A row the stream cannot place is an error, never a silently
			// zeroed or dropped row.
			if results == nil {
				return nil, sweep.Stats{}, fmt.Errorf("client: malformed stream: point %d before %q", ev.Index, cluster.EventAccepted)
			}
			if ev.Index < 0 || ev.Index >= len(results) {
				return nil, sweep.Stats{}, fmt.Errorf("client: malformed stream: point index %d outside [0, %d)", ev.Index, len(results))
			}
			if ev.Result != nil {
				r := *ev.Result
				r.CacheHit = ev.Status == cluster.PointCached
				r.Wall = time.Duration(ev.WallMS * float64(time.Millisecond))
				results[ev.Index] = r
			}
		case cluster.EventSummary:
			state = ev.State
			failure = ev.Err
			if ev.Stats != nil {
				stats = *ev.Stats
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, sweep.Stats{}, fmt.Errorf("client: stream: %w", err)
	}
	switch state {
	case cluster.StateDone:
		return results, stats, nil
	case cluster.StateCanceled:
		return nil, sweep.Stats{}, fmt.Errorf("flovd: job canceled: %s", failure)
	default:
		return nil, sweep.Stats{}, fmt.Errorf("flovd: stream ended without a summary")
	}
}

// Wait polls until the job reaches a terminal state or ctx expires.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (cluster.JobStatus, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return st, err
		}
		if st.State == cluster.StateDone || st.State == cluster.StateCanceled {
			return st, nil
		}
		select {
		case <-t.C:
		case <-ctx.Done():
			return st, ctx.Err()
		}
	}
}
