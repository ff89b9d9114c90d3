package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"flov/internal/sweep"
)

// Store is the job plane's persistent job/row store: a directory of
// append-only files that any number of processes open concurrently.
// Every mutation is either an atomic filesystem operation (link, rename)
// or a single O_APPEND write of one complete NDJSON line, so a crash at
// any instant leaves at worst a torn final line, which every reader
// tolerates. A Store handle is safe for concurrent use.
//
// Writes made through a handle wake that handle's waiters (Changed), so
// an in-process worker and in-process streams never poll; writes by
// other processes are seen at the waiters' poll fallback.
type Store struct {
	dir string
	// Retain, when positive, bounds the finished jobs kept in the store:
	// each finish compacts the oldest finished jobs beyond it. Set it
	// before the handle is shared.
	Retain int

	mu sync.Mutex // serializes this handle's appends (cross-process safety is O_APPEND)

	// admitMu serializes this handle's admissions against compaction, so
	// a resubmission never races the removal of its predecessor's files.
	admitMu sync.Mutex

	wakeMu   sync.Mutex
	wake     chan struct{}   // closed and replaced on every write through this handle
	canceled map[string]bool // cancel requests made through this handle
}

// Store errors.
var (
	// ErrUnknownJob reports a job id with no record in the store.
	ErrUnknownJob = errors.New("cluster: unknown job")
	// ErrLeaseHeld reports a claim attempt on a job whose current lease
	// has not expired.
	ErrLeaseHeld = errors.New("cluster: lease held by another worker")
	// ErrLeaseLost reports a renew on a lease that was superseded by a
	// higher epoch (another worker stole the job).
	ErrLeaseLost = errors.New("cluster: lease lost")
)

// JobRecord is the durable description of one submitted job: the fully
// expanded point list plus identity and scheduling metadata. The record
// is immutable once published; all execution state (rows, leases,
// snapshots) lives beside it.
type JobRecord struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant,omitempty"`
	// SpecHash is the dedup identity: the hash of the expanded point
	// hashes.
	SpecHash string      `json:"spec_hash"`
	Points   []sweep.Job `json:"points"`
	// SubmittedMS stamps admission (unix milliseconds).
	SubmittedMS int64 `json:"submitted_ms"`
	// DeadlineMS is the absolute completion deadline (unix milliseconds;
	// 0 = none). Absolute, not a duration: the clock must not restart
	// when the job is requeued or stolen.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// DoneRecord is the terminal marker of a finished job.
type DoneRecord struct {
	State      string `json:"state"` // done | canceled
	Reason     string `json:"reason,omitempty"`
	FinishedMS int64  `json:"finished_ms"`
	Errors     int    `json:"errors"` // error-carrying rows in the final set
	// Resumes counts lease epochs after the first.
	Resumes int `json:"resumes,omitempty"`
	// Stats summarizes the final row set; Wall is submit-to-finish.
	Stats sweep.Stats `json:"stats"`
}

// rowRecord is one line of rows/<id>.ndjson. Epoch records which lease
// wrote the row — diagnostics only; determinism makes duplicate rows
// from raced epochs byte-identical, so readers just take the last valid
// record per point (last-write-wins). Cached keeps the row's provenance,
// which the result JSON omits.
type rowRecord struct {
	Point  int           `json:"point"`
	Epoch  int           `json:"epoch"`
	Cached bool          `json:"cached,omitempty"`
	Result *sweep.Result `json:"result,omitempty"`
}

// withResult encodes v — a record whose result member is empty and
// declared last — with res spliced in as that member, so a row encoded
// once can go into several lines.
func withResult(v any, res []byte) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(data)+len(res)+len(`,"result":`))
	out = append(out, data[:len(data)-1]...)
	out = append(out, `,"result":`...)
	out = append(out, res...)
	return append(out, '}'), nil
}

// Open opens (creating if needed) a store rooted at dir.
func Open(dir string) (*Store, error) {
	for _, sub := range []string{"jobs", "leases", "rows", "events", "results", "snaps"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("cluster: create store: %w", err)
		}
	}
	return &Store{dir: dir, wake: make(chan struct{}), canceled: make(map[string]bool)}, nil
}

// Dir returns the store root.
func (s *Store) Dir() string { return s.dir }

// Changed returns a channel closed at the next write through this
// handle (submit, event append, cancel request, done marker). Take it
// before reading the state it guards, then wait on it.
func (s *Store) Changed() <-chan struct{} {
	s.wakeMu.Lock()
	defer s.wakeMu.Unlock()
	return s.wake
}

// notify wakes every waiter on the current Changed channel.
func (s *Store) notify() {
	s.wakeMu.Lock()
	defer s.wakeMu.Unlock()
	close(s.wake)
	s.wake = make(chan struct{})
}

// cancelSignaled reports a cancel request made through this handle: an
// in-process worker's pause poll sees it at once, without a file read.
func (s *Store) cancelSignaled(id string) bool {
	s.wakeMu.Lock()
	defer s.wakeMu.Unlock()
	return s.canceled[id]
}

// SpecHash is the identity of a point list: the hash of the expanded
// point hashes, so two spellings of the same grid coincide.
func SpecHash(points []sweep.Job) string {
	h := sha256.New()
	for _, p := range points {
		// hash.Hash.Write never returns an error.
		_, _ = fmt.Fprintf(h, "%s\n", p.Hash())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// JobID derives the job id of a point list's first run. Content-
// addressed: the same spec is the same job on every front door, which
// makes submission idempotent and dedups identical concurrent
// submissions for free.
func JobID(points []sweep.Job) string {
	return runID(SpecHash(points), 1)
}

// runID names the n-th run of a spec. A spec whose earlier run was
// canceled or failed points runs again under the next id.
func runID(specHash string, n int) string {
	if n <= 1 {
		return "j" + specHash[:16]
	}
	return fmt.Sprintf("j%s-%d", specHash[:16], n)
}

func (s *Store) jobPath(id string) string     { return filepath.Join(s.dir, "jobs", id+".json") }
func (s *Store) donePath(id string) string    { return filepath.Join(s.dir, "jobs", id+".done.json") }
func (s *Store) cancelPath(id string) string  { return filepath.Join(s.dir, "jobs", id+".cancel") }
func (s *Store) pinPath(id string) string     { return filepath.Join(s.dir, "jobs", id+".pin") }
func (s *Store) rowsPath(id string) string    { return filepath.Join(s.dir, "rows", id+".ndjson") }
func (s *Store) eventsPath(id string) string  { return filepath.Join(s.dir, "events", id+".ndjson") }
func (s *Store) resultsPath(id string) string { return filepath.Join(s.dir, "results", id+".json") }
func (s *Store) snapPath(id string, point int) string {
	return filepath.Join(s.dir, "snaps", id, fmt.Sprintf("%d.snap", point))
}

// publish writes data to a unique temp file and links it to path: the
// link is the atomic commit, failing with EEXIST when another process
// published first. Content is complete at commit time by construction.
func publish(path string, data []byte) (won bool, err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return false, err
	}
	name := tmp.Name()
	defer func() { _ = os.Remove(name) }() // best effort; the link keeps the inode alive
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		return false, err
	}
	if err := tmp.Close(); err != nil {
		return false, err
	}
	if err := os.Link(name, path); err != nil {
		if os.IsExist(err) {
			return false, nil
		}
		return false, err
	}
	return true, nil
}

// replaceFile atomically replaces path with data (temp file + rename),
// so readers see the old content or the new, never a mix.
func replaceFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	return nil
}

// appendLine appends one complete line to path with a single write, so
// concurrent appenders (including other processes) interleave whole
// lines, never fragments, on local filesystems.
func (s *Store) appendLine(path string, line []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if !bytes.HasSuffix(line, []byte("\n")) {
		line = append(line, '\n')
	}
	_, werr := f.Write(line)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// Submit publishes a job record. Submission is idempotent on the
// content-addressed id: a record already present is returned as-is with
// created=false, so concurrent identical submissions coincide instead
// of racing.
//
// The job's feed is published first, holding its one "accepted" line,
// with the same exclusive link as the record: a worker can only find a
// job through its record, so every line a worker appends lands after
// line 0. A submitter that loses the feed link appends nothing, so
// "accepted" is written exactly once however many submitters race.
func (s *Store) Submit(rec JobRecord) (JobRecord, bool, error) {
	if rec.SpecHash == "" {
		rec.SpecHash = SpecHash(rec.Points)
	}
	if rec.ID == "" {
		rec.ID = runID(rec.SpecHash, 1)
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return JobRecord{}, false, fmt.Errorf("cluster: encode job: %w", err)
	}
	accepted, err := json.Marshal(StreamEvent{Type: EventAccepted, ID: rec.ID, Total: len(rec.Points), State: StateQueued})
	if err != nil {
		return JobRecord{}, false, fmt.Errorf("cluster: encode accepted event: %w", err)
	}
	if _, err := publish(s.eventsPath(rec.ID), append(accepted, '\n')); err != nil {
		return JobRecord{}, false, fmt.Errorf("cluster: publish feed: %w", err)
	}
	won, err := publish(s.jobPath(rec.ID), data)
	if err != nil {
		return JobRecord{}, false, fmt.Errorf("cluster: publish job: %w", err)
	}
	if won {
		s.notify()
		return rec, true, nil
	}
	existing, err := s.Job(rec.ID)
	if err != nil {
		return JobRecord{}, false, err
	}
	return existing, false, nil
}

// Job reads a job record by id.
func (s *Store) Job(id string) (JobRecord, error) {
	data, err := os.ReadFile(s.jobPath(id))
	if err != nil {
		return JobRecord{}, ErrUnknownJob
	}
	var rec JobRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return JobRecord{}, fmt.Errorf("cluster: corrupt job record %s: %w", id, err)
	}
	return rec, nil
}

// exists reports whether a job record is present.
func (s *Store) exists(id string) bool {
	_, err := os.Stat(s.jobPath(id))
	return err == nil
}

// Pending returns the ids of unfinished jobs (a record and no done
// marker), sorted for deterministic scans, from one directory read.
func (s *Store) Pending() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, "jobs"))
	if err != nil {
		return nil, err
	}
	var ids []string
	done := make(map[string]bool)
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".done.json"):
			done[strings.TrimSuffix(name, ".done.json")] = true
		case strings.HasSuffix(name, ".json") && !strings.HasPrefix(name, "."):
			ids = append(ids, strings.TrimSuffix(name, ".json"))
		}
	}
	pending := ids[:0]
	for _, id := range ids {
		if !done[id] {
			pending = append(pending, id)
		}
	}
	sort.Strings(pending)
	return pending, nil
}

// MarkDone publishes the terminal marker. First writer wins; a losing
// write (a raced steal finishing the same job) is not an error — both
// computed byte-identical results.
func (s *Store) MarkDone(id string, rec DoneRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("cluster: encode done record: %w", err)
	}
	if _, err := publish(s.donePath(id), data); err != nil {
		return fmt.Errorf("cluster: publish done record: %w", err)
	}
	s.notify()
	return nil
}

// Done reports the terminal marker of a job, if present.
func (s *Store) Done(id string) (DoneRecord, bool) {
	data, err := os.ReadFile(s.donePath(id))
	if err != nil {
		return DoneRecord{}, false
	}
	var rec DoneRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return DoneRecord{}, false
	}
	return rec, true
}

// Cancel requests cancellation of an unfinished job. The request is a
// marker beside the record: the worker holding the job observes it at
// its next pause poll and finishes the job canceled; a worker claiming
// the job later finishes it canceled without running it.
func (s *Store) Cancel(id, reason string) error {
	if _, err := publish(s.cancelPath(id), []byte(reason)); err != nil {
		return fmt.Errorf("cluster: publish cancel request: %w", err)
	}
	s.wakeMu.Lock()
	s.canceled[id] = true
	s.wakeMu.Unlock()
	s.notify()
	return nil
}

// CancelRequested reports a job's pending cancel request and its reason.
func (s *Store) CancelRequested(id string) (string, bool) {
	data, err := os.ReadFile(s.cancelPath(id))
	if err != nil {
		return "", false
	}
	return string(data), true
}

// Pin marks a job as owned by a fire-and-forget submission: it runs to
// completion even when every streaming client disconnects.
func (s *Store) Pin(id string) error {
	if _, err := publish(s.pinPath(id), nil); err != nil {
		return fmt.Errorf("cluster: publish pin: %w", err)
	}
	return nil
}

// Pinned reports whether a fire-and-forget submission owns the job.
func (s *Store) Pinned(id string) bool {
	_, err := os.Stat(s.pinPath(id))
	return err == nil
}

// AppendRow records a durable finished row for one point. Error-carrying
// results are the caller's to keep out (errors re-simulate on adoption).
func (s *Store) AppendRow(id string, point, epoch int, r sweep.Result) error {
	res, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("cluster: encode row: %w", err)
	}
	return s.appendRow(id, point, epoch, r.CacheHit, res)
}

// appendRow appends a row whose result is already encoded.
func (s *Store) appendRow(id string, point, epoch int, cached bool, res []byte) error {
	line, err := withResult(rowRecord{Point: point, Epoch: epoch, Cached: cached}, res)
	if err != nil {
		return fmt.Errorf("cluster: encode row: %w", err)
	}
	return s.appendLine(s.rowsPath(id), line)
}

// Rows reads the durable rows of a job, keyed by point index; see
// decodeRows for the tolerance contract.
func (s *Store) Rows(id string, points []sweep.Job) (map[int]sweep.Result, error) {
	data, err := os.ReadFile(s.rowsPath(id))
	if err != nil {
		if os.IsNotExist(err) {
			return map[int]sweep.Result{}, nil
		}
		return nil, err
	}
	return decodeRows(data, points), nil
}

// decodeRows is the torn-tail-tolerant counterpart of AppendRow: a
// partially written final record (crash mid-append), blank lines,
// garbage and error-carrying rows are all skipped, and duplicate
// records for one point resolve last-write-wins. points, when non-nil,
// additionally pins each row to the job hash of its point — a row for
// the wrong point (foreign writer, corrupted index) is dropped rather
// than adopted.
func decodeRows(data []byte, points []sweep.Job) map[int]sweep.Result {
	rows := make(map[int]sweep.Result)
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec rowRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Result == nil || rec.Result.Err != "" || rec.Point < 0 {
			continue
		}
		if points != nil {
			if rec.Point >= len(points) || rec.Result.Job.Hash() != points[rec.Point].Hash() {
				continue
			}
		}
		rec.Result.CacheHit = rec.Cached
		rows[rec.Point] = *rec.Result
	}
	return rows
}

// PutSnapshot stores a point's mid-run checkpoint (atomic replace).
func (s *Store) PutSnapshot(id string, point int, data []byte) error {
	if err := os.MkdirAll(filepath.Join(s.dir, "snaps", id), 0o755); err != nil {
		return err
	}
	return replaceFile(s.snapPath(id, point), data)
}

// Snapshot reads a point's checkpoint; a missing file is simply absent
// (the point starts cold). Integrity is the restorer's concern — the
// snapshot container is CRC-guarded, and a corrupt checkpoint fails the
// resume loudly rather than silently diverging.
func (s *Store) Snapshot(id string, point int) ([]byte, bool) {
	data, err := os.ReadFile(s.snapPath(id, point))
	if err != nil || len(data) == 0 {
		return nil, false
	}
	return data, true
}

// RemoveSnapshots deletes a finished job's checkpoint directory.
func (s *Store) RemoveSnapshots(id string) {
	_ = os.RemoveAll(filepath.Join(s.dir, "snaps", id))
}

// AppendEvent appends one event line to the job's feed.
func (s *Store) AppendEvent(id string, line []byte) error {
	if err := s.appendLine(s.eventsPath(id), line); err != nil {
		return err
	}
	s.notify()
	return nil
}

// appendEvent encodes and appends one feed event.
func (s *Store) appendEvent(id string, ev StreamEvent) error {
	ev.ID = id
	line, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	return s.AppendEvent(id, line)
}

// Events returns the feed lines from index from onward. A torn final
// line (a writer crashed or is mid-append) is withheld until complete,
// so replayed offsets are stable: line i is line i forever.
func (s *Store) Events(id string, from int) ([][]byte, error) {
	lines, _, err := s.readFeed(id, 0)
	if err != nil || from >= len(lines) {
		return nil, err
	}
	return lines[from:], nil
}

// readFeed returns the complete feed lines after byte offset off and
// the offset just past them, so a follower reads each byte once.
func (s *Store) readFeed(id string, off int64) ([][]byte, int64, error) {
	f, err := os.Open(s.eventsPath(id))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, off, nil
		}
		return nil, off, err
	}
	defer func() { _ = f.Close() }() // read-only
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return nil, off, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, off, err
	}
	lines, n := splitFeed(data)
	return lines, off + int64(n), nil
}

// splitFeed cuts data into its newline-terminated, non-blank lines and
// reports how many bytes they span. Bytes after the last newline are a
// torn (or in-flight) tail and are left for a later read.
func splitFeed(data []byte) (lines [][]byte, consumed int) {
	for {
		i := bytes.IndexByte(data[consumed:], '\n')
		if i < 0 {
			return lines, consumed
		}
		line := data[consumed : consumed+i]
		consumed += i + 1
		if len(bytes.TrimSpace(line)) > 0 {
			lines = append(lines, line)
		}
	}
}

// WriteResults publishes the canonical final row set (atomic replace;
// raced writers produce byte-identical bytes, so last-wins is safe).
func (s *Store) WriteResults(id string, data []byte) error {
	return replaceFile(s.resultsPath(id), data)
}

// Results reads the canonical final row set of a finished job.
func (s *Store) Results(id string) ([]byte, bool) {
	data, err := os.ReadFile(s.resultsPath(id))
	if err != nil {
		return nil, false
	}
	return data, true
}

// assembleRows builds the job's final row set in point order from the
// durable rows plus a slice's in-memory error rows (error rows are
// never persisted). Points with neither — a deadline or cancellation
// hit before they ran — report canceled. Pure and deterministic by
// construction: it is a flovlint reach root, because its output is the
// byte-compared artifact of the plane's equivalence contract.
func assembleRows(points []sweep.Job, durable, slice map[int]sweep.Result) []sweep.Result {
	full := make([]sweep.Result, len(points))
	for i := range points {
		if r, ok := durable[i]; ok {
			full[i] = r
			continue
		}
		if r, ok := slice[i]; ok {
			full[i] = r
			continue
		}
		full[i] = sweep.Result{Job: points[i], Err: context.Canceled.Error()}
	}
	return full
}

// MarshalResults renders rows exactly as `flovsweep -format json` does
// (indented encoder, trailing newline), so a job's results file diffs
// byte-identically against a local run of the same spec.
func MarshalResults(rows []sweep.Result) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(rows); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// JobState derives a job's lifecycle state from the store: the terminal
// marker wins, a live lease means running, anything else is queued.
func (s *Store) JobState(id string) string {
	if done, ok := s.Done(id); ok {
		return done.State
	}
	if info, ok := s.CurrentLease(id); ok && !info.Expired(time.Now()) {
		return StateRunning
	}
	return StateQueued
}

// finish publishes a job's terminal state — canonical results, the done
// marker, the summary event — then drops its execution state and
// compacts the store. lease is the caller's hold on the job.
func (s *Store) finish(rec JobRecord, lease *Lease, full []sweep.Result, state, reason string) (DoneRecord, error) {
	now := time.Now()
	var wall time.Duration
	if rec.SubmittedMS > 0 {
		wall = now.Sub(time.UnixMilli(rec.SubmittedMS))
	}
	st := sweep.Summarize(full, wall)
	data, err := MarshalResults(full)
	if err != nil {
		return DoneRecord{}, fmt.Errorf("encode results for %s: %w", rec.ID, err)
	}
	if err := s.WriteResults(rec.ID, data); err != nil {
		return DoneRecord{}, fmt.Errorf("write results for %s: %w", rec.ID, err)
	}
	d := DoneRecord{State: state, Reason: reason, FinishedMS: now.UnixMilli(),
		Errors: st.Errors, Resumes: lease.Epoch - 1, Stats: st}
	if err := s.MarkDone(rec.ID, d); err != nil {
		return DoneRecord{}, err
	}
	// The summary goes after the done marker, so a client that read it
	// and resubmits finds the job finished. Best effort: a stream that
	// sees the marker but no summary ends after a short grace.
	_ = s.appendEvent(rec.ID, StreamEvent{Type: EventSummary, Total: len(rec.Points),
		State: state, Err: reason, Stats: &st, Worker: lease.Worker, Epoch: lease.Epoch})
	s.wakeMu.Lock()
	delete(s.canceled, rec.ID)
	s.wakeMu.Unlock()
	s.RemoveSnapshots(rec.ID)
	s.RemoveLeases(rec.ID)
	s.Compact()
	return d, nil
}

// Compact removes the oldest finished jobs beyond Retain, oldest done
// marker first. Unfinished jobs are never touched.
func (s *Store) Compact() {
	if s.Retain <= 0 {
		return
	}
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	entries, err := os.ReadDir(filepath.Join(s.dir, "jobs"))
	if err != nil {
		return
	}
	var marks []os.DirEntry
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".done.json") {
			marks = append(marks, e)
		}
	}
	if len(marks) <= s.Retain {
		return
	}
	type finished struct {
		id string
		at time.Time
	}
	var done []finished
	for _, e := range marks {
		if info, err := e.Info(); err == nil {
			done = append(done, finished{strings.TrimSuffix(e.Name(), ".done.json"), info.ModTime()})
		}
	}
	if len(done) <= s.Retain {
		return
	}
	sort.Slice(done, func(i, j int) bool {
		if !done[i].at.Equal(done[j].at) {
			return done[i].at.Before(done[j].at)
		}
		return done[i].id < done[j].id
	})
	for _, d := range done[:len(done)-s.Retain] {
		s.remove(d.id)
	}
}

// remove deletes every file of a finished job. The feed goes first and
// the record right after it, so a submitter that finds the id free also
// finds the feed free and publishes a fresh line 0; a reader that
// resolves the id mid-removal sees an empty feed or an unknown job.
func (s *Store) remove(id string) {
	for _, path := range []string{s.eventsPath(id), s.jobPath(id), s.donePath(id), s.cancelPath(id),
		s.pinPath(id), s.rowsPath(id), s.resultsPath(id)} {
		_ = os.Remove(path)
	}
	s.RemoveSnapshots(id)
	s.RemoveLeases(id)
	s.wakeMu.Lock()
	delete(s.canceled, id)
	s.wakeMu.Unlock()
}
