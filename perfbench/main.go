// Command perfbench is the repository's benchmark: it runs one workload
// for a fixed time, checks the simulated outputs against committed
// digests, and prints every metric by name with its unit and sample
// count. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics; with -trace 1
// the same workload runs again with its layers timed and CPU-profiled
// from outside, and the metrics are the per-layer ones. Build and run it
// through run.sh, which also builds the flovd daemon serve-mix drives.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one measured number. N is the number of samples behind it
// (repetitions, requests, profile samples); Note says how it was
// summarized when that is not obvious.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
	Note  string
}

// result is what a workload run reports.
type result struct {
	attempted int
	failed    int
	// digest is the SHA-256 of the workload's canonical simulated
	// outputs, identical across repetitions and between traced and
	// untraced runs of one seed.
	digest   string
	metrics  []metric
	problems []string
}

func (r *result) add(name string, v float64, unit string, n int, note string) {
	r.metrics = append(r.metrics, metric{Name: name, Value: v, Unit: unit, N: n, Note: note})
}

// addPercentile reports a percentile, or records why it was refused.
func (r *result) addPercentile(name string, xs []float64, p float64, unit string) {
	v, beyond, ok := percentile(xs, p)
	note := fmt.Sprintf("p%g of %d, %d beyond", p, len(xs), beyond)
	if !ok {
		note = fmt.Sprintf("refused: %d samples, %d beyond p%g (need %d)", len(xs), beyond, p, minBeyond)
	}
	r.add(name, v, unit, len(xs), note)
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// checkDigest compares one repetition's digest with the run's expected
// value: the committed digest for this workload and seed when there is
// one, else the first repetition's. It reports whether they agree.
func (r *result) checkDigest(env *env, got string) bool {
	if r.digest == "" {
		r.digest = got
		if want, ok := committedDigest(env.workload.name, env.seed); ok && want != got {
			r.problem("digest %s does not match the committed digest %s for seed %d", got, want, env.seed)
			return false
		}
		return true
	}
	if got != r.digest {
		r.problem("digest %s differs from the run's first digest %s", got, r.digest)
		return false
	}
	return true
}

// endToEnd lists the metrics a -trace 0 run prints, in BENCHMARK.json
// order. Every workload measures every one of them; see workloads.go for
// what each means on each workload.
var endToEnd = []metricSpec{
	{"sim_cycles_per_s", "cycles/s"},
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a -trace 1 run prints, in BENCHMARK.json
// order. A layer the workload does not exercise reports 0.
var perLayer = []metricSpec{
	{"router.cpu_frac", "frac"},
	{"router.rc_cpu_frac", "frac"},
	{"router.va_cpu_frac", "frac"},
	{"router.sa_cpu_frac", "frac"},
	{"router.local_activity_cpu_frac", "frac"},
	{"router.active_frac", "frac"},
	{"core.cpu_frac", "frac"},
	{"core.gated_router_frac", "frac"},
	{"sim.cpu_frac", "frac"},
	{"network.cpu_frac", "frac"},
	{"power.cpu_frac", "frac"},
	{"network.step_us_p50", "us"},
	{"network.step_us_p99", "us"},
	{"network.tick_routers_frac", "frac"},
	{"network.allocs_per_cycle", "count"},
	{"network.alloc_bytes_per_cycle", "B"},
	{"network.flits_per_cycle", "flits/node/cycle"},
	{"sweep.point_s_p50", "s"},
	{"sweep.point_s_max", "s"},
	{"sweep.busy_frac", "frac"},
	{"sweep.tail_s", "s"},
	{"sweep.cache_put_us", "us"},
	{"sweep.cache_get_us", "us"},
	{"trace.cpu_frac", "frac"},
	{"rp.cpu_frac", "frac"},
	{"sweep.cpu_frac", "frac"},
	{"flovd.hit.header_ms_p50", "ms"},
	{"flovd.hit.first_row_ms_p50", "ms"},
	{"flovd.hit.last_row_ms_p50", "ms"},
	{"flovd.miss.header_ms_p50", "ms"},
	{"flovd.miss.first_row_ms_p50", "ms"},
	{"flovd.miss.last_row_ms_p50", "ms"},
	{"service.point_wall_ms_p50", "ms"},
	{"service.cache_hit_frac", "frac"},
	{"service.cpu_frac", "frac"},
	{"encoding_json.cpu_frac", "frac"},
	{"net_http.cpu_frac", "frac"},
	{"other.cpu_frac", "frac"},
	{"sweep_wall_s", "s"},
	{"serve_hit_p50_ms", "ms"},
	{"serve_hit_p95_ms", "ms"},
	{"serve_miss_p50_ms", "ms"},
	{"serve_miss_p95_ms", "ms"},
	{"bench.trace_overhead_ratio", "ratio"},
}

type metricSpec struct{ name, unit string }

// env is one invocation's settings.
type env struct {
	workload *workload
	seed     uint64
	seconds  time.Duration
	trace    bool
	flovd    string // flovd binary (serve-mix)
	work     string // scratch directory for caches
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run executes the selected workloads, writing results to stdout and
// diagnostics to stderr, and returns the exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all of them in turn")
	seed := fs.Uint64("seed", defaultSeed, "workload seed; inputs are a pure function of it")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	traceFlag := fs.Int("trace", 0, "1 measures the per-layer metrics instead of the end-to-end ones")
	flovd := fs.String("flovd", "", "flovd binary (required by serve-mix)")
	work := fs.String("work", ".bench_build/work", "scratch directory for result caches")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	selected := workloads
	if *name != "all" {
		selected = nil
		if w := findWorkload(*name); w != nil {
			selected = []*workload{w}
		}
	}
	if len(selected) == 0 || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s or all), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	code := 0
	for _, w := range selected {
		e := &env{workload: w, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
			trace: *traceFlag == 1, flovd: *flovd, work: *work}
		res, err := w.run(e)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			code = 1
			continue
		}
		correct, out, err := report(e, res)
		if err == nil {
			_, err = io.WriteString(stdout, out)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		}
		if err != nil || !correct {
			code = 1
		}
	}
	return code
}

// report renders the run's metadata, its metric table and, as the last
// line, the result object, and says whether the run was correct.
func report(e *env, res *result) (bool, string, error) {
	mj, err := json.Marshal(runMeta(e))
	if err != nil {
		return false, "", err
	}
	var w strings.Builder
	fmt.Fprintf(&w, "# perfbench %s seed=%d trace=%v\n# meta %s\n", e.workload.name, e.seed, e.trace, mj)

	byName := map[string]metric{}
	for _, m := range res.metrics {
		byName[m.Name] = m
	}
	want := endToEnd
	if e.trace {
		want = perLayer
	}
	out := map[string]jsonMetric{}
	for _, s := range want {
		m, ok := byName[s.name]
		if !ok {
			if !e.trace {
				res.problem("end-to-end metric %s was not measured", s.name)
			}
			m = metric{Name: s.name, Unit: s.unit, Note: "layer not exercised by this workload"}
			res.metrics = append(res.metrics, m)
		}
		if m.Unit != s.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.problem("metric %s: value %v %s, want a finite value in %s", s.name, m.Value, m.Unit, s.unit)
			m.Value = 0
		}
		out[s.name] = jsonMetric{Value: m.Value, Unit: s.unit}
	}

	fmt.Fprintf(&w, "%-32s %16s %-9s %7s  %s\n", "metric", "value", "unit", "n", "note")
	ms := append([]metric(nil), res.metrics...)
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	for _, m := range ms {
		fmt.Fprintf(&w, "%-32s %16.6g %-9s %7d  %s\n", m.Name, m.Value, m.Unit, m.N, m.Note)
	}
	frac := 0.0
	if res.attempted > 0 {
		frac = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(&w, "%-32s %16.6g %-9s %7d  %d of %d operations failed, were refused or were wrong\n",
		"failed_frac", frac, "frac", res.attempted, res.failed, res.attempted)
	committed, known := committedDigest(e.workload.name, e.seed)
	switch {
	case !known:
		fmt.Fprintf(&w, "digest %s (no committed digest for seed %d)\n", res.digest, e.seed)
	case committed == res.digest:
		fmt.Fprintf(&w, "digest %s matches the committed digest for seed %d\n", res.digest, e.seed)
	}
	for _, p := range res.problems {
		fmt.Fprintf(&w, "WRONG: %s\n", p)
	}
	correct := res.failed == 0 && len(res.problems) == 0 && res.attempted > 0
	fmt.Fprintf(&w, "correct: %v\n", correct)

	attempted := res.attempted
	if attempted < 1 {
		attempted = 1
	}
	failed := res.failed
	if !correct && failed == 0 {
		failed = 1
	}
	if failed > attempted {
		failed = attempted
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, attempted, failed, out})
	if err != nil {
		return false, "", err
	}
	w.Write(line)
	w.WriteByte('\n')
	return correct, w.String(), nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runMeta describes the machine and build a result was measured on.
func runMeta(e *env) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":   e.workload.name,
		"seed":       e.seed,
		"trace":      e.trace,
		"seconds":    e.seconds.Seconds(),
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// selfPeakRSSMB is this process's peak resident set size.
func selfPeakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil // Maxrss is in KiB on Linux
}

// procPeakRSSMB reads another process's peak resident set size (VmHWM).
func procPeakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
