package cluster

import (
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"

	"flov/internal/sweep"
)

// Worker pulls leased jobs from a store and executes them through the
// sweep engine. One worker in the front door's process is single-node
// flovd; more workers on one shared store form a cluster. Each claims
// claimable jobs (never claimed, released at a preemption boundary, or
// abandoned by a dead worker whose lease expired), adopts whatever
// durable rows and checkpoint snapshots earlier epochs left, and
// simulates only what remains. Determinism makes all interleavings
// equivalent: the final row set is byte-identical however execution
// was sliced or stolen.
type Worker struct {
	Store *Store
	// Cache is the node-local content-addressed result cache; with
	// Peers set it participates in cluster-wide cache federation.
	Cache *sweep.Cache
	Peers *Peers
	// Name identifies this worker in leases and events.
	Name string
	// LeaseTTL is how long a claim lasts between renewals; a worker that
	// dies stops renewing and its job becomes stealable one TTL later.
	// Default 10s.
	LeaseTTL time.Duration
	// Poll is the fallback scan interval for writes by other processes;
	// writes through the worker's own Store handle wake it at once.
	// Default 250ms.
	Poll time.Duration
	// Slice, when positive, preempts jobs that run longer: in-flight
	// points checkpoint to the store and the lease is released, so any
	// worker (this one included) can continue the job. 0 runs each
	// claimed job to completion under lease renewal.
	Slice time.Duration
	// Workers is the engine pool size per job (<= 0 means GOMAXPROCS).
	Workers int
	// Metrics, when non-nil, receives job and point counters (a front
	// door's set, so /metrics covers the in-process worker).
	Metrics *Metrics
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)

	// runJob substitutes the per-point runner (tests block points on
	// demand to observe streaming and cancellation mid-flight).
	runJob func(sweep.Job) sweep.Result

	jobsClaimed   atomic.Int64
	jobsStolen    atomic.Int64
	jobsFinished  atomic.Int64
	jobsPreempted atomic.Int64
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

func (w *Worker) leaseTTL() time.Duration {
	if w.LeaseTTL > 0 {
		return w.LeaseTTL
	}
	return 10 * time.Second
}

func (w *Worker) poll() time.Duration {
	if w.Poll > 0 {
		return w.Poll
	}
	return 250 * time.Millisecond
}

// Counters reports lifetime execution counts (claimed includes stolen).
func (w *Worker) Counters() (claimed, stolen, finished, preempted int64) {
	return w.jobsClaimed.Load(), w.jobsStolen.Load(), w.jobsFinished.Load(), w.jobsPreempted.Load()
}

// Run scans and executes until ctx is canceled. Claimed work is
// released (not abandoned) on shutdown: in-flight points checkpoint,
// and the lease expires immediately so another worker continues
// without waiting out the TTL.
func (w *Worker) Run(ctx context.Context) error {
	for {
		changed := w.Store.Changed()
		worked, err := w.Step(ctx)
		if err != nil {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if worked {
			continue // drain eagerly while claimable work exists
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-changed:
		case <-time.After(w.poll()):
		}
	}
}

// Step makes one scan pass: claim and execute at most one slice of each
// claimable job. It reports whether any work was done (callers wait
// when idle). Steps are the unit tests drive directly for
// deterministic orchestration.
func (w *Worker) Step(ctx context.Context) (worked bool, err error) {
	ids, err := w.Store.Pending()
	if err != nil {
		return false, err
	}
	for _, id := range ids {
		if ctx.Err() != nil {
			return worked, nil
		}
		prev, hadPrev := w.Store.CurrentLease(id)
		lease, err := w.Store.Claim(id, w.Name, w.leaseTTL())
		if err != nil {
			continue // held, vanished, or store hiccup: next job
		}
		rec, err := w.Store.Job(id)
		if err != nil {
			_ = lease.Release()
			continue
		}
		w.jobsClaimed.Add(1)
		// A steal is adopting a lease that lapsed in someone else's
		// hands; re-claiming a job this worker itself preempted (or
		// whose prior lease is unreadable) at a higher epoch counts
		// only when the previous holder was a different worker.
		stolen := lease.Epoch > 1 && (!hadPrev || prev.Worker != w.Name)
		if stolen {
			w.jobsStolen.Add(1)
		}
		w.execute(ctx, rec, lease, stolen)
		worked = true
	}
	return worked, nil
}

// sliceObserver receives engine progress for one execution slice: it
// persists finished rows to the store as they complete (durable
// incremental progress), collects error rows in memory (errors are
// retried on adoption, never persisted), and appends point events to
// the feed. Called from engine worker goroutines.
type sliceObserver struct {
	w     *Worker
	job   string
	epoch int
	idx   []int // engine index -> original point index
	total int

	mu   sync.Mutex
	errs map[int]sweep.Result
}

// Event implements sweep.Progress.
func (o *sliceObserver) Event(ev sweep.Event) {
	o.w.Metrics.point(ev)
	i := o.idx[ev.Index]
	var status string
	switch ev.Type {
	case sweep.JobStart, sweep.JobPaused:
		// Starts are noise on a durable feed; pauses are covered by the
		// job-level preempted event.
		return
	case sweep.CacheWriteError:
		o.w.logf("cache write failed for %s: %s", ev.Job.Desc(), ev.Err)
		return
	case sweep.JobError:
		o.mu.Lock()
		o.errs[i] = *ev.Result
		o.mu.Unlock()
		status = PointError
	case sweep.JobDone:
		status = PointDone
	case sweep.JobCacheHit:
		status = PointCached
	}
	// The row is encoded once, for both the row log and the feed line.
	res, err := json.Marshal(ev.Result)
	if err != nil {
		o.w.logf("encode row for %s point %d: %v", o.job, i, err)
		return
	}
	if status != PointError {
		if err := o.w.Store.appendRow(o.job, i, o.epoch, ev.Result.CacheHit, res); err != nil {
			// Row persistence is best-effort per row; the terminal results
			// write is the gate that matters, and it merges this slice's
			// in-memory rows.
			o.w.logf("row append failed for %s point %d: %v", o.job, i, err)
		}
	}
	line, err := withResult(StreamEvent{Type: EventPoint, Index: i, Total: o.total,
		Desc: ev.Job.Desc(), Status: status, Err: ev.Err, ID: o.job, Worker: o.w.Name, Epoch: o.epoch,
		WallMS: float64(ev.Wall) / float64(time.Millisecond), SimCycles: ev.SimCycles}, res)
	if err == nil {
		err = o.w.Store.AppendEvent(o.job, line)
	}
	if err != nil {
		o.w.logf("event append failed for %s: %v", o.job, err)
	}
}

// errors snapshots the slice's error rows.
func (o *sliceObserver) errors() map[int]sweep.Result {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make(map[int]sweep.Result, len(o.errs))
	for k, v := range o.errs {
		out[k] = v
	}
	return out
}

// appendEvent appends one feed line stamped with this worker, best-effort.
func (w *Worker) appendEvent(id string, ev StreamEvent) {
	ev.Worker = w.Name
	if err := w.Store.appendEvent(id, ev); err != nil {
		w.logf("event append failed for %s: %v", id, err)
	}
}

// execute runs one leased slice of a job: adopt durable rows and
// checkpoints, simulate pending points until done, preempted, canceled,
// deadline, or shutdown, then persist the outcome and release the lease.
func (w *Worker) execute(ctx context.Context, rec JobRecord, lease *Lease, stolen bool) {
	durable, err := w.Store.Rows(rec.ID, rec.Points)
	if err != nil {
		w.logf("rows read failed for %s: %v", rec.ID, err)
		_ = lease.Release()
		return
	}
	var idx []int
	for i := range rec.Points {
		if _, ok := durable[i]; !ok {
			idx = append(idx, i)
		}
	}
	kind := EventClaimed
	switch {
	case stolen:
		kind = EventStolen
	case lease.Epoch > 1:
		kind = EventResumed
	}
	if lease.Epoch > 1 {
		w.Metrics.lease()
	}
	w.appendEvent(rec.ID, StreamEvent{Type: kind, Epoch: lease.Epoch,
		Total: len(rec.Points), Remaining: len(idx)})
	verb := "start"
	if lease.Epoch > 1 {
		verb = kind
	}
	w.logf("%s %s (epoch %d, %d of %d points pending)", verb, rec.ID, lease.Epoch, len(idx), len(rec.Points))

	if reason, ok := w.Store.CancelRequested(rec.ID); ok {
		w.finish(rec, lease, durable, nil, StateCanceled, reason)
		return
	}
	if len(idx) == 0 {
		// Every point already has a durable row — the previous holder
		// died between its last row and the terminal write. Finish the
		// bookkeeping it never got to.
		w.finish(rec, lease, durable, nil, StateDone, "")
		return
	}
	// An already-lapsed absolute deadline cancels before the engine
	// starts. Requeues and steals never restart the clock, and a
	// pre-canceled context racing the engine's dispatch would leave it
	// nondeterministic which points error; skipping the engine makes
	// every pending point a clean cancellation.
	if rec.DeadlineMS > 0 && time.Now().UnixMilli() >= rec.DeadlineMS {
		w.finish(rec, lease, durable, nil, StateCanceled, deadlineReason)
		return
	}

	pending := make([]sweep.Job, len(idx))
	snaps := make([][]byte, len(idx))
	adoptedSnaps := 0
	for k, i := range idx {
		pending[k] = rec.Points[i]
		if snap, ok := w.Store.Snapshot(rec.ID, i); ok {
			snaps[k] = snap
			adoptedSnaps++
		}
	}
	if adoptedSnaps > 0 {
		w.logf("%s: adopted %d checkpoint snapshot(s)", rec.ID, adoptedSnaps)
	}

	// Cache federation: pull rows computed elsewhere into the local cache
	// before simulating.
	if w.Peers.Len() > 0 && w.Cache != nil {
		if n := w.Peers.Warm(w.Cache, pending); n > 0 {
			w.logf("%s: federated %d cache entr(ies) from peers", rec.ID, n)
		}
	}

	// The job's deadline is absolute (set once at submit), so requeues
	// and steals never restart the clock.
	dctx := ctx
	cancel := func() {}
	if rec.DeadlineMS > 0 {
		dctx, cancel = context.WithDeadline(ctx, time.UnixMilli(rec.DeadlineMS))
	}
	defer cancel()

	// Watch the lease and cancel requests while executing. Losing the
	// lease (a steal after a renew gap) or a cancel request pauses the
	// engine, so this epoch stops burning CPU at the next quantum. A
	// request made through this process's store handle is seen at once;
	// one from another process at the next poll.
	var lost, marked atomic.Bool
	canceled := func() bool { return marked.Load() || w.Store.cancelSignaled(rec.ID) }
	watchCtx, stopWatch := context.WithCancel(dctx)
	var watchWG sync.WaitGroup
	watchWG.Add(1)
	go func() {
		defer watchWG.Done()
		renew := time.NewTicker(w.leaseTTL() / 3)
		defer renew.Stop()
		poll := time.NewTicker(w.poll())
		defer poll.Stop()
		for {
			select {
			case <-watchCtx.Done():
				return
			case <-renew.C:
				if err := lease.Renew(w.leaseTTL()); err != nil {
					lost.Store(true)
					return
				}
			case <-poll.C:
				if _, ok := w.Store.CancelRequested(rec.ID); ok {
					marked.Store(true)
					return
				}
			}
		}
	}()

	var sliceExpired atomic.Bool
	if w.Slice > 0 {
		timer := time.AfterFunc(w.Slice, func() { sliceExpired.Store(true) })
		defer timer.Stop()
	}

	obs := &sliceObserver{w: w, job: rec.ID, epoch: lease.Epoch,
		idx: idx, total: len(rec.Points), errs: make(map[int]sweep.Result)}
	engine := &sweep.Engine{
		Workers:   w.Workers,
		Cache:     w.Cache,
		Progress:  obs,
		RunJob:    w.runJob,
		Snapshots: snaps,
		Pause: func() bool {
			return sliceExpired.Load() || lost.Load() || canceled() || dctx.Err() != nil
		},
	}
	results := engine.Run(dctx, pending)
	stopWatch()
	watchWG.Wait()

	if ctx.Err() != nil {
		// Worker shutdown: persist whatever checkpoints the engine took,
		// release so another worker resumes without waiting out the TTL.
		w.persistSnapshots(rec.ID, idx, results)
		_ = lease.Release()
		return
	}
	if lost.Load() {
		// Stolen mid-slice. The thief owns the job now; rows this slice
		// already appended are valid (byte-identical by determinism), the
		// rest of this epoch's state is abandoned.
		w.logf("%s: lease lost mid-slice, abandoning epoch %d", rec.ID, lease.Epoch)
		return
	}

	// Rows finished this slice merge from memory, so a full disk degrades
	// durability of intermediate progress, never the final row set.
	// Unfinished points paused, or never started under a canceled context.
	errs := obs.errors()
	unfinished := 0
	for k, r := range results {
		i := idx[k]
		if _, failed := errs[i]; failed {
			continue
		}
		if r.Paused || r.Err != "" {
			unfinished++
			continue
		}
		durable[i] = r
	}
	switch {
	case unfinished == 0:
		w.finish(rec, lease, durable, errs, StateDone, "")
	case canceled():
		reason, _ := w.Store.CancelRequested(rec.ID)
		w.finish(rec, lease, durable, errs, StateCanceled, reason)
	case dctx.Err() != nil:
		w.finish(rec, lease, durable, errs, StateCanceled, deadlineReason)
	default:
		w.persistSnapshots(rec.ID, idx, results)
		w.jobsPreempted.Add(1)
		w.Metrics.preempt()
		w.appendEvent(rec.ID, StreamEvent{Type: EventPreempted, Epoch: lease.Epoch,
			Total: len(rec.Points), Remaining: unfinished})
		w.logf("preempt %s: %d point(s) remaining", rec.ID, unfinished)
		_ = lease.Release() // requeue: claimable immediately, by anyone
	}
}

// deadlineReason is the failure note of a job whose absolute deadline
// passed before it finished.
const deadlineReason = "job timeout: deadline exceeded"

// persistSnapshots stores checkpoints of paused points.
func (w *Worker) persistSnapshots(id string, idx []int, results []sweep.Result) {
	for k, r := range results {
		if !r.Paused || r.Snapshot == nil {
			continue
		}
		if err := w.Store.PutSnapshot(id, idx[k], r.Snapshot); err != nil {
			// Best effort: a lost checkpoint re-simulates from the last
			// durable one (or cold); progress slows, rows stay identical.
			w.logf("snapshot write failed for %s point %d: %v", id, idx[k], err)
		}
	}
}

// finish assembles the final row set and publishes the terminal state.
// First finisher wins the done marker; byte-identical determinism makes
// raced finishers equivalent.
func (w *Worker) finish(rec JobRecord, lease *Lease, durable, sliceErrs map[int]sweep.Result, state, reason string) {
	d, err := w.Store.finish(rec, lease, assembleRows(rec.Points, durable, sliceErrs), state, reason)
	if err != nil {
		w.logf("finish %s: %v", rec.ID, err)
		_ = lease.Release()
		return
	}
	w.jobsFinished.Add(1)
	w.Metrics.finished(d)
	w.logf("finish %s: %s (%d points, %d errors)", rec.ID, state, len(rec.Points), d.Errors)
}
