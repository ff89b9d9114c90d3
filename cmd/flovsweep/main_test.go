package main

import (
	"os"
	"path/filepath"
	"testing"

	"flov/internal/cluster"
	"flov/internal/sweep"
)

func testJobs(t *testing.T) []sweep.Job {
	t.Helper()
	spec := sweep.Spec{
		Patterns:   []string{"uniform"},
		Rates:      []float64{0.1, 0.2},
		GatedFracs: []float64{0.5},
		Mechanisms: []string{"baseline"},
		Width:      4, Height: 4,
		Cycles: 100, Warmup: 10,
		Seed: 7,
	}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// runDir opens a run directory's store the way flovsweep -run-dir does
// and returns it with the sweep's job id.
func runDir(t *testing.T, jobs []sweep.Job) (*cluster.Store, string) {
	t.Helper()
	store, err := cluster.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := store.Submit(cluster.JobRecord{Points: jobs})
	if err != nil {
		t.Fatal(err)
	}
	return store, rec.ID
}

// appendRaw appends bytes to the sweep's row log as a crash or a foreign
// writer would.
func appendRaw(t *testing.T, store *cluster.Store, id, raw string) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(store.Dir(), "rows", id+".ndjson"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(raw); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func mustRows(t *testing.T, store *cluster.Store, id string, jobs []sweep.Job) map[int]sweep.Result {
	t.Helper()
	rows, err := store.Rows(id, jobs)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestLoadRowsTornTail pins the resume reader's crash tolerance: a
// partial final record (crash mid-append) is skipped and every complete
// row before it still loads.
func TestLoadRowsTornTail(t *testing.T) {
	jobs := testJobs(t)
	store, id := runDir(t, jobs)
	log := &rowLog{store: store, id: id, idx: []int{0, 1}}
	for i, j := range jobs {
		r := sweep.Result{Job: j}
		log.Event(sweep.Event{Type: sweep.JobDone, Index: i, Job: j, Result: &r})
	}
	appendRaw(t, store, id, `{"point":1,"epoch":0,"result":{"job":{"kind":"synth`) // torn tail, no newline
	got := mustRows(t, store, id, jobs)
	if len(got) != 2 {
		t.Fatalf("loaded %d rows, want 2 (torn tail skipped)", len(got))
	}
	for i, j := range jobs {
		if got[i].Job.Hash() != j.Hash() {
			t.Errorf("row for %s lost", j.Desc())
		}
	}
}

// TestLoadRowsZeroByteAndMissing: both degenerate files mean "no durable
// rows", never an error.
func TestLoadRowsZeroByteAndMissing(t *testing.T) {
	jobs := testJobs(t)
	store, id := runDir(t, jobs)
	if got := mustRows(t, store, id, jobs); len(got) != 0 {
		t.Fatalf("missing file loaded %d rows", len(got))
	}
	appendRaw(t, store, id, "")
	if got := mustRows(t, store, id, jobs); len(got) != 0 {
		t.Fatalf("zero-byte file loaded %d rows", len(got))
	}
}

// TestLoadRowsDuplicateLastWriteWins: re-appended rows for the same
// point (an interrupted run resumed twice) resolve to the last record.
func TestLoadRowsDuplicateLastWriteWins(t *testing.T) {
	jobs := testJobs(t)
	store, id := runDir(t, jobs)
	first := sweep.Result{Job: jobs[0]}
	second := first
	second.Res.AvgLatency = first.Res.AvgLatency + 1 // distinguishable duplicate
	for _, r := range []sweep.Result{first, second} {
		if err := store.AppendRow(id, 0, 0, r); err != nil {
			t.Fatal(err)
		}
	}
	got := mustRows(t, store, id, jobs)
	if len(got) != 1 {
		t.Fatalf("loaded %d rows, want 1", len(got))
	}
	if r := got[0]; r.Res.AvgLatency != second.Res.AvgLatency {
		t.Fatalf("AvgLatency = %v, want last write %v", r.Res.AvgLatency, second.Res.AvgLatency)
	}
}

// TestLoadRowsSkipsErrorAndBlankLines: error-carrying rows re-simulate
// (they are never adopted), and blank lines and garbage are tolerated.
func TestLoadRowsSkipsErrorAndBlankLines(t *testing.T) {
	jobs := testJobs(t)
	store, id := runDir(t, jobs)
	if err := store.AppendRow(id, 0, 0, sweep.Result{Job: jobs[0]}); err != nil {
		t.Fatal(err)
	}
	appendRaw(t, store, id, "\n\n")
	if err := store.AppendRow(id, 1, 0, sweep.Result{Job: jobs[1], Err: "transient simulator failure"}); err != nil {
		t.Fatal(err)
	}
	appendRaw(t, store, id, "not json at all\n")
	got := mustRows(t, store, id, jobs)
	if len(got) != 1 {
		t.Fatalf("loaded %d rows, want 1", len(got))
	}
	if _, ok := got[1]; ok {
		t.Fatal("error row adopted")
	}
}
