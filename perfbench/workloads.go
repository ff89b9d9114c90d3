package main

// defaultSeed is the workload seed used when -seed is not given. The
// committed digests cover it and heldOutSeed, a seed never used while
// the benchmark was tuned.
const (
	defaultSeed = 1
	heldOutSeed = 2
)

// workload is one set of inputs the benchmark runs. Every workload
// reports every end-to-end metric:
//
//   - sim_cycles_per_s: simulated cycles per host second while timed;
//   - wall_s: mean wall time of the workload's unit of user work;
//   - setup_s: median set-up time, set up several times per run;
//   - peak_rss_mb: peak resident memory of the process doing the work.
type workload struct {
	name string
	why  string
	run  func(*env) (*result, error)
}

var workloads = []*workload{
	{
		name: "lowload-gflov",
		// The paper's low-load point and BenchmarkStep's setup. Most
		// routers are empty or gated, so per-cycle scans over idle VCs
		// and the FLOV sleep/latch path (core) dominate host time; an
		// O(active) router pipeline should gain most here.
		why: "8x8 gFLOV, uniform 0.02 flits/node/cycle, 50% cores gated: mostly idle or gated routers, so idle VC scans and the FLOV latch path dominate host time",
		run: func(e *env) (*result, error) { return runKernel(e, lowload) },
	},
	{
		name: "highload-baseline",
		// Just below Baseline saturation: real VA/SA arbitration and
		// per-packet allocation dominate and core does no work. A change
		// that speeds idle routers at the cost of busy ones shows here.
		why: "8x8 Baseline, uniform 0.30 flits/node/cycle, nothing gated: busy routers just below saturation, so VA/SA arbitration and allocation dominate",
		run: func(e *env) (*result, error) { return runKernel(e, highload) },
	},
	{
		name: "sweep-grid",
		// The ROADMAP's wall time for a fixed grid. The only workload
		// with engine parallelism and tail imbalance (PARSEC points come
		// last), cache writes, RP reconfiguration and the 12-VC
		// full-system router.
		why: "sweep.Engine with 2 workers and a fresh cache: 16 synthetic 8x8 points then canneal under all 4 mechanisms; parallelism, tail imbalance, cache writes, RP",
		run: runGrid,
	},
	{
		name: "serve-mix",
		// The only workload through the job plane, over HTTP so it
		// outlives a rewrite of internal/service. Hits measure
		// admission, queueing, cache reads and streaming; misses add
		// simulation and cache writes.
		why: "flovd over HTTP, 2 closed-loop clients, 3 cached resubmits to 1 fresh 4x4 8-point spec: admission, queueing, cache reads, streaming and simulation",
		run: runServe,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// Labels of the seed streams derived from the workload seed.
const (
	labelKernel uint64 = iota + 1
	labelServePrimed
	labelServeFresh
	labelServeOrder
)
