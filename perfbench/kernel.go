package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"flov"
	"flov/internal/network"
	"flov/internal/sim"
)

// kernelPoint is one synthetic point stepped directly with
// Network.Step. Each repetition builds the network, warms it up
// untimed, then times a fixed number of cycles, so every repetition of
// one seed simulates exactly the same thing and ends in the same
// Results.
type kernelPoint struct {
	mech     flov.Mechanism
	rate     float64
	gated    float64
	warmup   int64
	measured int64
}

var (
	lowload  = kernelPoint{mech: flov.GFLOV, rate: 0.02, gated: 0.5, warmup: 2000, measured: 16000}
	highload = kernelPoint{mech: flov.Baseline, rate: 0.30, gated: 0, warmup: 2000, measured: 4000}
)

func (k kernelPoint) options(seed uint64) flov.SyntheticOptions {
	cfg := flov.Default()
	cfg.Seed = seed
	cfg.WarmupCycles = k.warmup
	cfg.TotalCycles = k.warmup + k.measured
	return flov.SyntheticOptions{Config: cfg, Mechanism: k.mech, Pattern: flov.Uniform,
		InjRate: k.rate, GatedFraction: k.gated, GatedSeed: seed}
}

// kernelRep is one repetition's measurements.
type kernelRep struct {
	setup, wall time.Duration
	steps       int64
	digest      string
	res         flov.Results
	mallocs     uint64 // heap allocations during the timed steps
	allocBytes  uint64
}

// timedMech decorates a network's mechanism to time TickRouters and to
// count, each cycle before the routers tick, how many routers hold or
// are about to receive flits and how many are power-gated. It forwards
// every call unchanged, so the simulation is the same as without it.
type timedMech struct {
	network.Mechanism
	n                      *flov.Network
	tick                   time.Duration
	activeRouters, routers int64
	gatedRouters           int64
}

func (m *timedMech) TickRouters(cycle int64) {
	for _, r := range m.n.Routers {
		if !r.BuffersEmpty() || r.ArrivalsPending() {
			m.activeRouters++
		}
	}
	on, gated := m.Mechanism.RouterPowerCounts()
	m.routers += int64(on + gated)
	m.gatedRouters += int64(gated)
	start := now()
	m.Mechanism.TickRouters(cycle)
	m.tick += since(start)
}

// kernelTrace accumulates the traced repetitions' layer measurements.
type kernelTrace struct {
	cpu       *cpuSplit
	stepUS    []float64
	stepTotal time.Duration
	mech      timedMech
}

// kernelPoints is how many points, each with its own traffic seed and
// gated mask drawn from the workload seed, a run cycles through. One
// mask alone makes host time depend on which routers it gates;
// averaging over several describes the load point.
const kernelPoints = 8

// kernelSeed is the seed of point i of a run.
func kernelSeed(seed uint64, i int) uint64 { return sim.DeriveSeed(seed, 0, labelKernel, i) }

func runKernel(e *env, k kernelPoint) (*result, error) {
	res := &result{}
	// Per point: the plain repetitions, and the digest they all share.
	plain := make([][]kernelRep, kernelPoints)
	digests := make([]string, kernelPoints)
	var traced []kernelRep
	tr := &kernelTrace{cpu: newCPUSplit()}
	// Traced runs pair each plain repetition with a traced one of the
	// same point: the plain ones give the end-to-end numbers and the
	// tracing overhead, and the pair must end in identical Results.
	per := 1
	if e.trace {
		per = 2
	}
	start := now()
	for i := 0; i < per*kernelPoints || i%per != 0 || since(start) < e.seconds; i++ {
		point := (i / per) % kernelPoints
		trace := e.trace && i%2 == 1
		var t *kernelTrace
		if trace {
			t = tr
		}
		rep, err := kernelRun(k.options(kernelSeed(e.seed, point)), k, t)
		if err != nil {
			return nil, err
		}
		res.attempted++
		ok := true
		if digests[point] == "" {
			digests[point] = rep.digest
		} else if rep.digest != digests[point] {
			res.problem("point %d repetition %d: digest %s differs from the point's first %s (traced=%v)", point, i, rep.digest, digests[point], trace)
			ok = false
		}
		if rep.res.Packets <= 0 || rep.res.ThroughputFpc <= 0 {
			res.problem("point %d repetition %d delivered nothing: %d packets, %g flits/cycle", point, i, rep.res.Packets, rep.res.ThroughputFpc)
			ok = false
		}
		if !ok {
			res.failed++
		}
		if trace {
			traced = append(traced, rep)
		} else {
			plain[point] = append(plain[point], rep)
		}
	}
	var parts [][]byte
	for _, d := range digests {
		parts = append(parts, []byte(d))
	}
	if !res.checkDigest(e, digestOf(parts...)) {
		res.failed++
	}

	var walls, setups []float64
	var all []kernelRep
	for _, reps := range plain {
		all = append(all, reps...)
	}
	for _, r := range all {
		walls = append(walls, r.wall.Seconds())
	}
	for _, r := range append(append([]kernelRep(nil), all...), traced...) {
		setups = append(setups, r.setup.Seconds())
	}
	// Host speed on a shared machine alternates between fast and slow
	// phases a few seconds long, so per-repetition times are bimodal and
	// their median jumps between the modes from run to run. Totals move
	// only as much as the share of slow time does.
	steps := float64(k.measured - 1)
	total := 0.0
	for _, w := range walls {
		total += w
	}
	note := fmt.Sprintf("%d repetitions over %d points", len(all), kernelPoints)
	res.add("sim_cycles_per_s", steps*float64(len(walls))/total, "cycles/s", len(all), note+": timed cycles / timed wall, summed")
	res.add("wall_s", mean(walls), "s", len(all), note+fmt.Sprintf(": mean wall of %d timed cycles", k.measured-1))
	res.add("setup_s", median(setups), "s", len(setups), "median of Build plus untimed warm-up, every repetition")
	rss, err := selfPeakRSSMB()
	if err != nil {
		return nil, err
	}
	res.add("peak_rss_mb", rss, "MB", 1, "this process")
	if !e.trace {
		return res, nil
	}

	res.metrics = append(res.metrics, tr.cpu.metrics()...)
	m := &tr.mech
	res.add("router.active_frac", ratio(m.activeRouters, m.routers), "frac", int(m.routers), "router-cycles with buffered or arriving flits")
	res.add("core.gated_router_frac", ratio(m.gatedRouters, m.routers), "frac", int(m.routers), "router-cycles power-gated (Mech.RouterPowerCounts)")
	res.addPercentile("network.step_us_p50", tr.stepUS, 50, "us")
	res.addPercentile("network.step_us_p99", tr.stepUS, 99, "us")
	res.add("network.tick_routers_frac", m.tick.Seconds()/tr.stepTotal.Seconds(), "frac", len(tr.stepUS), "TickRouters time / Step time")
	var mallocs, bytes, fpc float64
	for _, r := range all {
		mallocs += float64(r.mallocs)
		bytes += float64(r.allocBytes)
		fpc += r.res.ThroughputFpc
	}
	n := float64(len(all))
	res.add("network.allocs_per_cycle", mallocs/(n*steps), "count", len(all), "runtime.MemStats delta over plain repetitions")
	res.add("network.alloc_bytes_per_cycle", bytes/(n*steps), "B", len(all), "runtime.MemStats delta over plain repetitions")
	res.add("network.flits_per_cycle", fpc/n, "flits/node/cycle", len(all), "mean Results.ThroughputFpc (exact per point)")
	var tw []float64
	for _, r := range traced {
		tw = append(tw, r.wall.Seconds())
	}
	res.add("bench.trace_overhead_ratio", mean(tw)/mean(walls), "ratio", len(traced), "traced / plain wall_s")
	return res, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// kernelRun performs one repetition. With tr non-nil the mechanism is
// decorated, every Step is timed and the timed cycles are CPU-profiled;
// otherwise only heap allocations are counted, outside the timed loop.
func kernelRun(opts flov.SyntheticOptions, k kernelPoint, tr *kernelTrace) (kernelRep, error) {
	var rep kernelRep
	t0 := now()
	n, err := flov.Build(opts)
	if err != nil {
		return rep, err
	}
	// Crossing the warmup boundary inside RunTo enables energy
	// accounting exactly as a full Run would.
	n.RunTo(k.warmup + 1)
	rep.setup = since(t0)
	rep.steps = k.measured - 1

	if tr == nil {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t1 := now()
		for i := int64(0); i < rep.steps; i++ {
			n.Step()
		}
		rep.wall = since(t1)
		runtime.ReadMemStats(&after)
		rep.mallocs = after.Mallocs - before.Mallocs
		rep.allocBytes = after.TotalAlloc - before.TotalAlloc
	} else {
		tm := &tr.mech
		tm.Mechanism, tm.n = n.Mech, n
		n.Mech = tm
		times := make([]float64, rep.steps)
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return rep, err
		}
		t1 := now()
		for i := range times {
			s := now()
			n.Step()
			times[i] = float64(since(s).Nanoseconds()) / 1e3
		}
		rep.wall = since(t1)
		pprof.StopCPUProfile()
		n.Mech = tm.Mechanism
		for _, t := range times {
			tr.stepTotal += time.Duration(t * 1e3)
		}
		tr.stepUS = append(tr.stepUS, times...)
		if err := tr.cpu.add(prof.Bytes()); err != nil {
			return rep, err
		}
	}
	rep.res = n.Collect()
	js, err := json.Marshal(rep.res)
	if err != nil {
		return rep, err
	}
	rep.digest = digestOf(js)
	return rep, nil
}
