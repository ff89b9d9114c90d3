package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"flov/internal/sim"
	"flov/internal/sweep"
)

const (
	serveClients = 2
	// serveSetups is how many times a run starts flovd and primes its
	// cache; setup_s is their median and the last daemon takes the load.
	serveSetups = 5
)

// serveSpec is one request body: a 4x4, 8-point synthetic sweep (all
// four mechanisms at two loads) whose simulation seed is the spec's
// identity, so a new seed is a cache miss and a repeated one a hit.
func serveSpec(seed uint64) sweep.Spec {
	return sweep.Spec{Patterns: []string{"uniform"}, Rates: []float64{0.02, 0.08},
		GatedFracs: []float64{0.5}, Width: 4, Height: 4, Cycles: 1000, Warmup: 200, Seed: seed}
}

// Spec seeds: client c resubmits primedSeed(c) for its hits and posts
// freshSeed(c, k) for the miss of its k-th block of four requests.
func primedSeed(seed uint64, c int) uint64 { return sim.DeriveSeed(seed, 0, labelServePrimed, c) }

func freshSeed(seed uint64, c, k int) uint64 {
	return sim.DeriveSeed(seed, 0, labelServeFresh, k*serveClients+c)
}

// missAt is the position of the miss within client c's k-th block;
// the other three requests are hits.
func missAt(seed uint64, c, k int) int {
	return int(sim.DeriveSeed(seed, 0, labelServeOrder, k*serveClients+c) % 4)
}

// sample is one request's client-side timing.
type sample struct {
	miss      bool
	header    time.Duration // POST to response headers
	firstRow  time.Duration // headers to the first point row
	lastRow   time.Duration // first row to the last point row
	total     time.Duration // POST to the last point row
	simCycles int64         // cycles simulated (not cached) for this request
	ok        bool
}

// streamEvent is the part of a flovd NDJSON stream line the benchmark
// reads.
type streamEvent struct {
	Type   string        `json:"type"`
	Index  int           `json:"index"`
	Status string        `json:"status"`
	Err    string        `json:"err"`
	Result *sweep.Result `json:"result"`
}

// daemon is one flovd child process.
type daemon struct {
	cmd      *exec.Cmd
	base     string
	cacheDir string
	stderr   bytes.Buffer
	done     chan error
}

func startDaemon(e *env) (*daemon, error) {
	if e.flovd == "" {
		return nil, errors.New("serve-mix needs -flovd")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.work, "flovd-cache-")
	if err != nil {
		return nil, err
	}
	d := &daemon{base: "http://" + addr, cacheDir: dir, done: make(chan error, 1)}
	d.cmd = exec.Command(e.flovd, "-addr", addr, "-cache-dir", dir, "-pprof")
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		removeAll(dir)
		return nil, err
	}
	go func() { d.done <- d.cmd.Wait() }()
	deadline := now().Add(20 * time.Second)
	for {
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			_ = resp.Body.Close() // nothing read; the status is the answer
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if d.exited() {
			d.stop()
			return nil, fmt.Errorf("flovd exited before answering: %s", d.stderr.String())
		}
		if now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("flovd did not answer within 20s: %s", d.stderr.String())
		}
		pause(2 * time.Millisecond)
	}
}

// exited reports whether flovd has ended, keeping the exit for stop.
func (d *daemon) exited() bool {
	select {
	case err := <-d.done:
		d.done <- err
		return true
	default:
		return false
	}
}

// stop terminates flovd, waits for it to exit and removes its cache.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an exited process is fine
	for deadline := now().Add(10 * time.Second); !d.exited(); pause(5 * time.Millisecond) {
		if now().After(deadline) {
			_ = d.cmd.Process.Kill() // the wait below reaps it either way
			break
		}
	}
	<-d.done
	removeAll(d.cacheDir)
}

// post submits a spec to /v1/sweeps/run and reads the stream to its end.
func post(ctx context.Context, hc *http.Client, base string, spec sweep.Spec) (sample, []sweep.Result, error) {
	var s sample
	body, err := json.Marshal(spec)
	if err != nil {
		return s, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/sweeps/run", bytes.NewReader(body))
	if err != nil {
		return s, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := now()
	resp, err := hc.Do(req)
	if err != nil {
		return s, nil, err
	}
	defer func() { _ = resp.Body.Close() }() // read to the end or abandoned on error
	s.header = since(t0)
	if resp.StatusCode != http.StatusOK {
		msg, err := io.ReadAll(io.LimitReader(resp.Body, 512))
		if err != nil {
			return s, nil, fmt.Errorf("status %d: %w", resp.StatusCode, err)
		}
		return s, nil, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	var rows []sweep.Result
	var first, last time.Time
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	summary := false
	for sc.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return s, nil, fmt.Errorf("stream line: %w", err)
		}
		switch ev.Type {
		case "point":
			last = now()
			if first.IsZero() {
				first = last
			}
			if ev.Status == "error" || ev.Result == nil || ev.Index < 0 {
				return s, nil, fmt.Errorf("point %d: %s %s", ev.Index, ev.Status, ev.Err)
			}
			for len(rows) <= ev.Index {
				rows = append(rows, sweep.Result{})
			}
			rows[ev.Index] = *ev.Result
			if ev.Status == "done" {
				s.simCycles += ev.Result.SimCycles()
			}
		case "summary":
			summary = true
		}
	}
	if err := sc.Err(); err != nil {
		return s, nil, err
	}
	if !summary || first.IsZero() {
		return s, nil, errors.New("stream ended without rows and a summary")
	}
	s.firstRow = first.Sub(t0) - s.header
	s.lastRow = last.Sub(first)
	s.total = last.Sub(t0)
	return s, rows, nil
}

// requestTimeout bounds any one HTTP exchange with flovd, so a hung
// daemon fails the run instead of stalling it.
const requestTimeout = 60 * time.Second

// probe is the client for health checks, /metrics and the profile.
var probe = &http.Client{Timeout: requestTimeout}

// newClient is one load client: a single connection, reused.
func newClient() *http.Client {
	return &http.Client{Timeout: requestTimeout,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// serveLoad is what one timed window of client load observed.
type serveLoad struct {
	samples   []sample
	attempted int
	failed    int
	problems  []string
	firstMiss [serveClients][][]byte
	wall      time.Duration
}

// runLoad runs the closed-loop clients for the given time. Each
// request's rows are checked: a hit must return the client's primed
// rows, all cached; a miss must simulate every point. The first miss of
// each client (block blockBase) is kept for the digest.
func runLoad(ctx context.Context, e *env, base string, primed [serveClients][][]byte, dur time.Duration, blockBase int) *serveLoad {
	out := &serveLoad{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := now()
	deadline := t0.Add(dur)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := newClient()
			defer hc.CloseIdleConnections()
			for k := blockBase; ; k++ {
				for pos := 0; pos < 4; pos++ {
					miss := pos == missAt(e.seed, c, k)
					// The first block always completes, so every run
					// checks one miss per client against the digest.
					if k > blockBase && now().After(deadline) {
						return
					}
					seed := primedSeed(e.seed, c)
					if miss {
						seed = freshSeed(e.seed, c, k)
					}
					s, rows, err := post(ctx, hc, base, serveSpec(seed))
					s.miss = miss
					problem := ""
					if err != nil {
						problem = err.Error()
					} else if enc, err := canonicalRows(rows); err != nil {
						problem = err.Error()
					} else if len(enc) != 8 {
						problem = fmt.Sprintf("%d rows, want 8", len(enc))
					} else if !miss && (s.simCycles != 0 || !equalRows(enc, primed[c])) {
						problem = "a resubmitted spec was simulated again or its rows differ from the primed rows"
					} else if miss && s.simCycles == 0 {
						problem = "a fresh spec was served without simulating"
					} else {
						s.ok = true
						if miss && k == blockBase {
							mu.Lock()
							out.firstMiss[c] = enc
							mu.Unlock()
						}
					}
					mu.Lock()
					out.attempted++
					out.samples = append(out.samples, s)
					if problem != "" {
						out.failed++
						out.problems = append(out.problems, fmt.Sprintf("client %d block %d miss=%v: %s", c, k, miss, problem))
					}
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	out.wall = since(t0)
	return out
}

func equalRows(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// primeAndCheck posts each client's primed spec once (a miss that fills
// the cache) and checks the rows against the in-process reference.
func primeAndCheck(d *daemon, e *env, ref [serveClients][][]byte) error {
	hc := newClient()
	defer hc.CloseIdleConnections()
	for c := 0; c < serveClients; c++ {
		_, rows, err := post(context.Background(), hc, d.base, serveSpec(primedSeed(e.seed, c)))
		if err != nil {
			return fmt.Errorf("priming client %d: %w", c, err)
		}
		enc, err := canonicalRows(rows)
		if err != nil {
			return err
		}
		if !equalRows(enc, ref[c]) {
			return fmt.Errorf("flovd rows for client %d's primed spec differ from an in-process sweep of the same spec", c)
		}
	}
	return nil
}

// reference computes the primed specs' rows in-process with the sweep
// engine, the library path flovd wraps.
func reference(e *env) ([serveClients][][]byte, error) {
	var ref [serveClients][][]byte
	for c := 0; c < serveClients; c++ {
		jobs, err := serveSpec(primedSeed(e.seed, c)).Jobs()
		if err != nil {
			return ref, err
		}
		rows := (&sweep.Engine{Workers: gridWorkers}).Run(context.Background(), jobs)
		for _, r := range rows {
			if r.Err != "" {
				return ref, fmt.Errorf("reference point %s: %s", r.Job.Desc(), r.Err)
			}
		}
		if ref[c], err = canonicalRows(rows); err != nil {
			return ref, err
		}
	}
	return ref, nil
}

func runServe(e *env) (*result, error) {
	ref, err := reference(e)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var d *daemon
	for i := 0; i < serveSetups; i++ {
		if d != nil {
			d.stop()
		}
		t0 := now()
		if d, err = startDaemon(e); err != nil {
			return nil, err
		}
		if err := primeAndCheck(d, e, ref); err != nil {
			d.stop()
			return nil, err
		}
		setups = append(setups, since(t0).Seconds())
	}
	defer d.stop()

	res := &result{}
	ctx := context.Background()
	plain := runLoad(ctx, e, d.base, ref, e.seconds, 0)
	var traced *serveLoad
	var before, after map[string]float64
	cpu := newCPUSplit()
	if e.trace {
		if before, err = scrapeMetrics(d.base); err != nil {
			return nil, err
		}
		secs := int(e.seconds.Seconds() + 0.5)
		if secs < 1 {
			secs = 1
		}
		profc := make(chan []byte, 1)
		errc := make(chan error, 1)
		go func() {
			b, err := fetch(d.base + "/debug/pprof/profile?seconds=" + strconv.Itoa(secs))
			profc <- b
			errc <- err
		}()
		// Traced blocks are numbered from a million up, so no traced miss
		// repeats a fresh spec of the plain window.
		traced = runLoad(ctx, e, d.base, ref, time.Duration(secs)*time.Second, 1_000_000)
		prof, perr := <-profc, <-errc
		if perr != nil {
			return nil, fmt.Errorf("flovd CPU profile: %w", perr)
		}
		if err := cpu.add(prof); err != nil {
			return nil, err
		}
		if after, err = scrapeMetrics(d.base); err != nil {
			return nil, err
		}
	}
	rss, err := procPeakRSSMB(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}

	var parts [][]byte
	for c := 0; c < serveClients; c++ {
		parts = append(parts, ref[c]...)
	}
	for _, l := range []*serveLoad{plain, traced} {
		if l == nil {
			continue
		}
		res.attempted += l.attempted
		res.failed += l.failed
		res.problems = append(res.problems, l.problems...)
	}
	for c := 0; c < serveClients; c++ {
		parts = append(parts, plain.firstMiss[c]...)
	}
	if !res.checkDigest(e, digestOf(parts...)) {
		res.failed++
	}

	all, hits, misses, cycles := split(plain.samples)
	res.add("sim_cycles_per_s", float64(cycles)/plain.wall.Seconds(), "cycles/s", len(misses), "cycles simulated for fresh specs / load wall")
	// Hits that queue behind a running miss make the latency bimodal;
	// the median jumps between the modes from run to run, the mean moves
	// only as much as the mix does.
	res.add("wall_s", mean(all), "s", len(all), "mean POST-to-last-row over the 3:1 hit/miss mix")
	res.add("setup_s", median(setups), "s", len(setups), "median of flovd start until it answers plus cache priming")
	res.add("peak_rss_mb", rss, "MB", 1, "flovd VmHWM")
	if !e.trace {
		return res, nil
	}

	ms := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * 1e3
		}
		return out
	}
	res.addPercentile("serve_hit_p50_ms", ms(hits), 50, "ms")
	res.addPercentile("serve_hit_p95_ms", ms(hits), 95, "ms")
	res.addPercentile("serve_miss_p50_ms", ms(misses), 50, "ms")
	res.addPercentile("serve_miss_p95_ms", ms(misses), 95, "ms")
	for _, class := range []struct {
		name string
		miss bool
	}{{"hit", false}, {"miss", true}} {
		var hdr, first, last []float64
		for _, s := range traced.samples {
			if s.ok && s.miss == class.miss {
				hdr = append(hdr, float64(s.header.Nanoseconds())/1e6)
				first = append(first, float64(s.firstRow.Nanoseconds())/1e6)
				last = append(last, float64(s.lastRow.Nanoseconds())/1e6)
			}
		}
		res.addPercentile("flovd."+class.name+".header_ms_p50", hdr, 50, "ms")
		res.addPercentile("flovd."+class.name+".first_row_ms_p50", first, 50, "ms")
		res.addPercentile("flovd."+class.name+".last_row_ms_p50", last, 50, "ms")
	}
	res.metrics = append(res.metrics, cpu.metrics()...)
	dh := after["flovd_cache_hits_total"] - before["flovd_cache_hits_total"]
	dm := after["flovd_cache_misses_total"] - before["flovd_cache_misses_total"]
	res.add("service.cache_hit_frac", dh/(dh+dm), "frac", int(dh+dm), "delta of flovd cache hit/miss counters over the traced load")
	res.add("service.point_wall_ms_p50", after[`flovd_point_wall_milliseconds{quantile="0.50"}`], "ms",
		int(after["flovd_point_wall_milliseconds_count"]), "flovd /metrics summary (power-of-two bound) after the traced load")
	tall, _, _, _ := split(traced.samples)
	res.add("bench.trace_overhead_ratio", mean(tall)/mean(all), "ratio", len(tall), "traced / plain wall_s")
	return res, nil
}

// split returns request latencies in seconds (all, hits, misses) of the
// successful samples, and the cycles they simulated.
func split(ss []sample) (all, hits, misses []float64, cycles int64) {
	for _, s := range ss {
		if !s.ok {
			continue
		}
		t := s.total.Seconds()
		all = append(all, t)
		if s.miss {
			misses = append(misses, t)
		} else {
			hits = append(hits, t)
		}
		cycles += s.simCycles
	}
	return all, hits, misses, cycles
}

func fetch(url string) ([]byte, error) {
	resp, err := probe.Get(url)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }() // read to the end below
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// scrapeMetrics reads flovd's Prometheus text exposition into a map
// from series (name plus labels) to value.
func scrapeMetrics(base string) (map[string]float64, error) {
	b, err := fetch(base + "/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}
