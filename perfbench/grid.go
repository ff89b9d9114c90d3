package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime/pprof"
	"sync"
	"time"

	"flov/internal/sweep"
)

// gridWorkers is the engine pool size: the machine the benchmark targets
// has two cores, and the grid's tail imbalance needs more than one.
const gridWorkers = 2

// gridJobs is the sweep-grid workload in spec order: the 16 synthetic
// points first, then canneal under every mechanism. canneal runs a
// quarter of its per-phase quota so one grid fits a run several times;
// it keeps its three phases, its mask re-draws (RP reconfigurations)
// and the full-system 3-vnet, 12-VC router.
func gridJobs(seed uint64) ([]sweep.Job, error) {
	syn := sweep.Spec{Patterns: []string{"uniform"}, Rates: []float64{0.02, 0.08},
		GatedFracs: []float64{0, 0.5}, Width: 8, Height: 8, Cycles: 4000, Warmup: 1000, Seed: seed}
	par := sweep.Spec{Benchmarks: []string{"canneal"}, Seed: seed}
	jobs, err := syn.Jobs()
	if err != nil {
		return nil, err
	}
	pj, err := par.Jobs()
	if err != nil {
		return nil, err
	}
	for i := range pj {
		pj[i].Profile.QuotaPerCore /= 4
	}
	return append(jobs, pj...), nil
}

// canonicalRows encodes results in job order; Wall and CacheHit are not
// part of a row's JSON, so equal simulations give equal bytes.
func canonicalRows(rs []sweep.Result) ([][]byte, error) {
	out := make([][]byte, len(rs))
	for i, r := range rs {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// spanRecorder is a sweep.Progress that records when each point started
// and finished, relative to the start of the run, indexed by job.
type spanRecorder struct {
	mu         sync.Mutex
	t0         time.Time
	start, end []time.Duration
}

func (s *spanRecorder) Event(ev sweep.Event) {
	at := since(s.t0)
	s.mu.Lock()
	defer s.mu.Unlock()
	switch ev.Type {
	case sweep.JobStart:
		s.start[ev.Index] = at
	case sweep.JobDone, sweep.JobError, sweep.JobCacheHit:
		s.end[ev.Index] = at
	default:
		// Cache write errors and pauses neither start nor end a point.
	}
}

type gridRep struct {
	setup, wall time.Duration
	cycles      int64
	digest      string
	bad         int // points that failed, or hit the fresh cache
	results     []sweep.Result
	spans       *spanRecorder
}

func runGrid(e *env) (*result, error) {
	res := &result{}
	var plain, traced []gridRep
	var setups []float64
	for i := 0; i < gridSetupSamples; i++ {
		t0 := now()
		_, _, dir, err := newGrid(e)
		if err != nil {
			return nil, err
		}
		setups = append(setups, since(t0).Seconds())
		removeAll(dir)
	}
	cpu := newCPUSplit()
	start := now()
	for i := 0; ; i++ {
		enough := len(plain) >= 3 && (!e.trace || len(traced) >= 2)
		if enough && since(start) >= e.seconds {
			break
		}
		trace := e.trace && i%2 == 1
		var prof *bytes.Buffer
		if trace {
			prof = &bytes.Buffer{}
		}
		rep, err := gridRun(e, prof)
		if err != nil {
			return nil, err
		}
		if trace {
			if err := cpu.add(prof.Bytes()); err != nil {
				return nil, err
			}
		}
		res.attempted += len(rep.results)
		if rep.bad > 0 {
			res.problem("grid repetition %d: %d points failed or hit a fresh cache", i, rep.bad)
			res.failed += rep.bad
		} else if !res.checkDigest(e, rep.digest) {
			res.failed += len(rep.results)
		}
		if trace {
			traced = append(traced, rep)
		} else {
			plain = append(plain, rep)
		}
	}

	// Totals rather than medians, for the reason given in runKernel.
	var walls []float64
	var cycles int64
	var total float64
	for _, r := range plain {
		walls = append(walls, r.wall.Seconds())
		cycles += r.cycles
		total += r.wall.Seconds()
	}
	for _, r := range append(append([]gridRep(nil), plain...), traced...) {
		setups = append(setups, r.setup.Seconds())
	}
	reps := fmt.Sprintf("%d grids", len(plain))
	res.add("sim_cycles_per_s", float64(cycles)/total, "cycles/s", len(plain), reps+": simulated cycles of all points / Engine.Run wall, summed")
	res.add("wall_s", mean(walls), "s", len(plain), reps+": mean Engine.Run of the whole grid (sweep_wall_s)")
	res.add("setup_s", median(setups), "s", len(setups), fmt.Sprintf("median of cache, job list and engine creation: %d extra set-ups plus every grid", gridSetupSamples))
	rss, err := selfPeakRSSMB()
	if err != nil {
		return nil, err
	}
	res.add("peak_rss_mb", rss, "MB", 1, "this process")
	if !e.trace {
		return res, nil
	}

	res.add("sweep_wall_s", mean(walls), "s", len(plain), reps+", untraced, mean")
	res.metrics = append(res.metrics, cpu.metrics()...)
	var points, busy, tail, twalls []float64
	for _, r := range traced {
		twalls = append(twalls, r.wall.Seconds())
		var sum time.Duration
		var lastStart time.Duration
		for i, s := range r.spans.start {
			d := r.spans.end[i] - s
			points = append(points, d.Seconds())
			sum += d
			if s > lastStart {
				lastStart = s
			}
		}
		// The first worker to find the queue empty goes idle at the
		// first completion after the last point started.
		firstIdle := r.wall
		for _, end := range r.spans.end {
			if end >= lastStart && end < firstIdle {
				firstIdle = end
			}
		}
		busy = append(busy, sum.Seconds()/(gridWorkers*r.wall.Seconds()))
		tail = append(tail, (r.wall - firstIdle).Seconds())
	}
	res.addPercentile("sweep.point_s_p50", points, 50, "s")
	res.add("sweep.point_s_max", largest(points), "s", len(points), "JobStart to JobDone")
	res.add("sweep.busy_frac", median(busy), "frac", len(busy), "median over traced grids of point time / (workers x wall)")
	res.add("sweep.tail_s", median(tail), "s", len(tail), "median over traced grids of first idle worker to end")

	put, get, bad, err := cacheTimings(e, traced[0].results)
	if err != nil {
		return nil, err
	}
	res.attempted += len(get)
	if bad > 0 {
		res.failed += bad
		res.problem("%d cache round trips changed the row", bad)
	}
	res.addPercentile("sweep.cache_put_us", put, 50, "us")
	res.addPercentile("sweep.cache_get_us", get, 50, "us")

	var fpc []float64
	for _, r := range plain[0].results {
		if r.Job.Kind == sweep.Synthetic {
			fpc = append(fpc, r.Res.ThroughputFpc)
		}
	}
	res.add("network.flits_per_cycle", mean(fpc), "flits/node/cycle", len(fpc), "mean Results.ThroughputFpc of the synthetic points (exact)")
	res.add("bench.trace_overhead_ratio", mean(twalls)/mean(walls), "ratio", len(traced), "traced / plain wall_s")
	return res, nil
}

// gridSetupSamples is how many extra times a run sets the grid up, so
// the median set-up time rests on more samples than there are grids.
const gridSetupSamples = 50

// newGrid creates the grid's engine over a fresh cache directory, which
// the caller removes.
func newGrid(e *env) (*sweep.Engine, []sweep.Job, string, error) {
	dir, err := os.MkdirTemp(e.work, "grid-cache-")
	if err != nil {
		return nil, nil, "", err
	}
	cache, err := sweep.NewCache(dir)
	if err != nil {
		removeAll(dir)
		return nil, nil, "", err
	}
	jobs, err := gridJobs(e.seed)
	if err != nil {
		removeAll(dir)
		return nil, nil, "", err
	}
	return &sweep.Engine{Workers: gridWorkers, Cache: cache}, jobs, dir, nil
}

// gridRun runs the whole grid once into a fresh cache. With prof
// non-nil, the run is CPU-profiled into it and point spans recorded.
func gridRun(e *env, prof *bytes.Buffer) (gridRep, error) {
	var rep gridRep
	t0 := now()
	eng, jobs, dir, err := newGrid(e)
	if err != nil {
		return rep, err
	}
	rep.setup = since(t0)
	defer removeAll(dir)

	if prof != nil {
		rep.spans = &spanRecorder{start: make([]time.Duration, len(jobs)), end: make([]time.Duration, len(jobs))}
		eng.Progress = rep.spans
		if err := pprof.StartCPUProfile(prof); err != nil {
			return rep, err
		}
		defer pprof.StopCPUProfile()
	}
	t1 := now()
	if rep.spans != nil {
		rep.spans.t0 = t1
	}
	rep.results = eng.Run(context.Background(), jobs)
	rep.wall = since(t1)

	for _, r := range rep.results {
		if r.Err != "" || r.CacheHit {
			rep.bad++
		}
		rep.cycles += r.SimCycles()
	}
	rows, err := canonicalRows(rep.results)
	if err != nil {
		return rep, err
	}
	rep.digest = digestOf(rows...)
	return rep, nil
}

// cacheTimings times Cache.Put of each row into a fresh cache, then
// Cache.Get of each, and counts rows that do not read back unchanged.
func cacheTimings(e *env, rows []sweep.Result) (put, get []float64, bad int, err error) {
	dir, err := os.MkdirTemp(e.work, "grid-cache-timing-")
	if err != nil {
		return nil, nil, 0, err
	}
	defer removeAll(dir)
	c, err := sweep.NewCache(dir)
	if err != nil {
		return nil, nil, 0, err
	}
	// Each row is written and read several times so the median has
	// enough samples beyond it.
	for round := 0; round < 2; round++ {
		for _, r := range rows {
			t := now()
			if err := c.Put(r); err != nil {
				return nil, nil, 0, err
			}
			put = append(put, float64(since(t).Nanoseconds())/1e3)
		}
		for _, r := range rows {
			t := now()
			got, ok := c.Get(r.Job)
			get = append(get, float64(since(t).Nanoseconds())/1e3)
			a, err := json.Marshal(got)
			if err != nil {
				return nil, nil, 0, err
			}
			b, err := json.Marshal(r)
			if err != nil {
				return nil, nil, 0, err
			}
			if !ok || !bytes.Equal(a, b) {
				bad++
			}
		}
	}
	return put, get, bad, nil
}
