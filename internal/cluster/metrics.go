package cluster

import (
	"fmt"
	"strings"
	"sync/atomic"

	"flov/internal/stats"
	"flov/internal/sweep"
)

// Metrics is flovd's counter/histogram set, exported in Prometheus text
// format by the front door's /metrics. A front door and an in-process
// worker share one set; every method is safe on a nil receiver, so a
// worker without a front door simply counts nothing. Counters are
// monotonic over the process lifetime.
type Metrics struct {
	jobsAccepted  atomic.Int64
	jobsRejected  atomic.Int64 // admission refusals (quota, rate)
	jobsDeduped   atomic.Int64 // submissions attached to an unfinished twin
	jobsCompleted atomic.Int64
	jobsFailed    atomic.Int64 // completed with >= 1 error-carrying point
	jobsCanceled  atomic.Int64
	jobsPreempted atomic.Int64 // slice expiries that requeued a job
	jobsResumed   atomic.Int64 // later lease epochs that picked a job back up

	pointsDone        atomic.Int64
	pointsCached      atomic.Int64
	pointsFailed      atomic.Int64
	pointsSnapshotted atomic.Int64 // mid-run checkpoints taken for preemption
	pointsReplayed    atomic.Int64 // points answered from a finished job's stored rows

	// Fault-scenario observability (points whose job carries a fault spec).
	faultsInjected atomic.Int64
	packetsDropped atomic.Int64
	trialsViolated atomic.Int64

	// Design-space optimizer observability (POST /v1/opt/run).
	optRuns        atomic.Int64
	optGenerations atomic.Int64
	optEvaluations atomic.Int64
	optFailed      atomic.Int64

	panics atomic.Int64 // handler panics caught by the recovery middleware

	jobWallMS   stats.Histogram // submit-to-finish latency per job
	pointWallMS stats.Histogram // execution time per simulated point
}

// point folds one engine event into the point counters.
func (m *Metrics) point(ev sweep.Event) {
	if m == nil {
		return
	}
	switch ev.Type {
	case sweep.JobStart, sweep.CacheWriteError:
		// Not point outcomes.
	case sweep.JobDone:
		m.pointsDone.Add(1)
		m.pointWallMS.Observe(ev.Wall.Milliseconds())
		m.faults(ev)
	case sweep.JobCacheHit:
		m.pointsCached.Add(1)
		m.faults(ev)
	case sweep.JobError:
		m.pointsFailed.Add(1)
		m.pointWallMS.Observe(ev.Wall.Milliseconds())
		if ev.Job.Faults != nil {
			m.trialsViolated.Add(1)
		}
	case sweep.JobPaused:
		m.pointsSnapshotted.Add(1)
	}
}

// faults folds a finished point's reliability counters in. Fault-free
// points report zeros for both.
func (m *Metrics) faults(ev sweep.Event) {
	if ev.Result == nil {
		return
	}
	if n := ev.Result.Res.FaultsInjected; n > 0 {
		m.faultsInjected.Add(n)
	}
	if n := ev.Result.Res.LostPkts; n > 0 {
		m.packetsDropped.Add(n)
	}
}

// lease counts a lease epoch after the first (resumed or stolen).
func (m *Metrics) lease() {
	if m != nil {
		m.jobsResumed.Add(1)
	}
}

// preempt counts a slice that ended with points unfinished.
func (m *Metrics) preempt() {
	if m != nil {
		m.jobsPreempted.Add(1)
	}
}

// finished counts a job's terminal state.
func (m *Metrics) finished(d DoneRecord) {
	if m == nil {
		return
	}
	m.jobWallMS.Observe(d.Stats.Wall.Milliseconds())
	switch {
	case d.State == StateCanceled:
		m.jobsCanceled.Add(1)
	default:
		m.jobsCompleted.Add(1)
		if d.Errors > 0 {
			m.jobsFailed.Add(1)
		}
	}
}

// render writes the Prometheus exposition. Gauges and cache counters
// come from the caller, which owns them.
func (m *Metrics) render(b *strings.Builder, queued, running int, draining bool, cache *sweep.Cache) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("flovd_jobs_accepted_total", "jobs admitted to the store", m.jobsAccepted.Load())
	counter("flovd_jobs_rejected_total", "submissions refused by tenant quota or rate limit", m.jobsRejected.Load())
	counter("flovd_jobs_deduped_total", "submissions attached to an identical unfinished job", m.jobsDeduped.Load())
	counter("flovd_jobs_completed_total", "jobs run to completion", m.jobsCompleted.Load())
	counter("flovd_jobs_failed_total", "completed jobs with at least one failed point", m.jobsFailed.Load())
	counter("flovd_jobs_canceled_total", "jobs canceled before completion", m.jobsCanceled.Load())
	counter("flovd_jobs_preempted_total", "jobs checkpointed and requeued at a slice boundary", m.jobsPreempted.Load())
	counter("flovd_jobs_resumed_total", "preempted or stolen jobs picked back up from their checkpoints", m.jobsResumed.Load())
	counter("flovd_points_done_total", "points simulated to completion", m.pointsDone.Load())
	counter("flovd_points_cached_total", "points served from the result cache or a finished job's stored rows", m.pointsCached.Load()+m.pointsReplayed.Load())
	counter("flovd_points_failed_total", "points that errored or panicked", m.pointsFailed.Load())
	counter("flovd_points_snapshotted_total", "mid-run point checkpoints taken for preemption", m.pointsSnapshotted.Load())
	counter("flovd_faults_injected_total", "faults injected across finished fault-scenario points", m.faultsInjected.Load())
	counter("flovd_packets_dropped_total", "packets classified as lost across finished points", m.packetsDropped.Load())
	counter("flovd_trials_violated_total", "fault-scenario points that tripped a correctness oracle", m.trialsViolated.Load())
	counter("flovd_opt_runs_total", "design-space searches started", m.optRuns.Load())
	counter("flovd_opt_generations_total", "optimizer generations completed", m.optGenerations.Load())
	counter("flovd_opt_evaluations_total", "optimizer candidates scored", m.optEvaluations.Load())
	counter("flovd_opt_failed_total", "design-space searches that ended in an error", m.optFailed.Load())
	counter("flovd_handler_panics_total", "HTTP handler panics recovered", m.panics.Load())
	if cache != nil {
		hits, misses, writes := cache.Counters()
		counter("flovd_cache_hits_total", "point lookups served from the result cache or a finished job's stored rows", hits+m.pointsReplayed.Load())
		counter("flovd_cache_misses_total", "result-cache lookups that missed", misses)
		counter("flovd_cache_writes_total", "result-cache entries written", writes)
	}
	gauge("flovd_queue_depth", "unfinished jobs no worker holds", int64(queued))
	gauge("flovd_jobs_running", "jobs under a live worker lease", int64(running))
	var d int64
	if draining {
		d = 1
	}
	gauge("flovd_draining", "1 while the daemon refuses new work and drains", d)
	histogram(b, "flovd_job_wall_milliseconds", "submit-to-finish job latency", m.jobWallMS.Snapshot())
	histogram(b, "flovd_point_wall_milliseconds", "per-point execution time", m.pointWallMS.Snapshot())
}

// histogram renders a stats.Histogram snapshot as a Prometheus summary:
// coarse power-of-two quantile upper bounds plus exact sum and count.
func histogram(b *strings.Builder, name, help string, s stats.HistogramSnapshot) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s summary\n", name, help, name)
	for _, q := range []float64{50, 90, 99} {
		fmt.Fprintf(b, "%s{quantile=\"0.%.0f\"} %d\n", name, q, s.Percentile(q))
	}
	fmt.Fprintf(b, "%s_sum %d\n%s_count %d\n", name, s.Sum, name, s.Count)
}
