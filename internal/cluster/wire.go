package cluster

import (
	"flov/internal/opt"
	"flov/internal/sweep"
)

// Job lifecycle states as reported by the API. A job is queued until a
// worker holds a live lease on it, running while one does, and done or
// canceled once its terminal marker is published.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateCanceled = "canceled"
)

// Event types on a job's feed, in rough lifecycle order: one
// "accepted", a "claimed" when a worker first leases the job, "point"
// lines as points finish, "preempted" when a slice ends with points
// unfinished, "resumed" (same worker) or "stolen" (another worker)
// when a later lease epoch picks the job back up, and one terminal
// "summary".
const (
	EventAccepted  = "accepted"
	EventClaimed   = "claimed"
	EventPoint     = "point"
	EventPreempted = "preempted"
	EventResumed   = "resumed"
	EventStolen    = "stolen"
	EventSummary   = "summary"
)

// Point statuses on "point" events.
const (
	PointDone   = "done"
	PointCached = "cached"
	PointError  = "error"
)

// StreamEvent is one NDJSON line of a job's feed. Workers append the
// lines to the store and every front door streams them verbatim, so a
// stream resumed with ?from=N on any front door continues exactly
// where an earlier connection stopped.
type StreamEvent struct {
	Type string `json:"type"`

	// Point progress.
	Index     int     `json:"index,omitempty"`
	Total     int     `json:"total,omitempty"`
	Desc      string  `json:"desc,omitempty"`
	Status    string  `json:"status,omitempty"`  // done|cached|error
	WallMS    float64 `json:"wall_ms,omitempty"` // point execution time
	SimCycles int64   `json:"sim_cycles,omitempty"`
	Err       string  `json:"err,omitempty"`

	// Job identity, terminal state and summary.
	ID    string       `json:"id,omitempty"`
	State string       `json:"state,omitempty"`
	Stats *sweep.Stats `json:"stats,omitempty"`

	// Remaining is the number of unfinished points on preempted and
	// resume events (the rest are durable rows already).
	Remaining int `json:"remaining,omitempty"`
	// Worker and Epoch name the lease that wrote the line.
	Worker string `json:"worker,omitempty"`
	Epoch  int    `json:"epoch,omitempty"`

	// Result is the finished row of a point event. It is the last field
	// so a replayed row can be spliced onto an encoded event.
	Result *sweep.Result `json:"result,omitempty"`
}

// JobStatus is the poll/submit response body.
type JobStatus struct {
	ID        string  `json:"id"`
	State     string  `json:"state"`
	Tenant    string  `json:"tenant,omitempty"`
	Points    int     `json:"points"`
	Done      int     `json:"done"` // durable rows; all points once finished
	CacheHits int     `json:"cache_hits"`
	Errors    int     `json:"errors"`
	WallMS    float64 `json:"wall_ms,omitempty"`
	Err       string  `json:"err,omitempty"`
	// Deduped marks a submission that coincided with an existing job
	// (unfinished, or finished and answered from its stored rows).
	Deduped bool `json:"deduped,omitempty"`
	// Resumes counts lease epochs after the first: preemptions picked
	// back up and steals.
	Resumes int `json:"resumes,omitempty"`
	// DeadlineMS is the job's absolute deadline (unix ms; 0 = none).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// ErrorBody is the JSON error payload for non-2xx API responses.
type ErrorBody struct {
	Error string `json:"error"`
}

// OptStreamLine is one NDJSON line of the POST /v1/opt/run stream:
// "generation" lines carry per-round progress, a final "done" line
// carries the full outcome (Pareto front included), and an "error"
// line reports a search that failed after streaming began.
type OptStreamLine struct {
	Type    string       `json:"type"`
	Event   *opt.Event   `json:"event,omitempty"`
	Outcome *opt.Outcome `json:"outcome,omitempty"`
	Error   string       `json:"error,omitempty"`
}
