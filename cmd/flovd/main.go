// Command flovd is the simulation-serving daemon: a long-lived HTTP
// service over the sweep engine, for workloads that issue many small
// simulation requests programmatically (design-space exploration,
// dashboards) and want a shared result cache instead of per-process
// cold starts.
//
//	flovd -addr :8080                      # serve with the default cache
//	flovsweep -server http://host:8080 ... # delegate a sweep to it
//
// API: POST /v1/sweeps (async submit), POST /v1/sweeps/run (NDJSON
// stream), POST /v1/opt/run, GET /v1/sweeps/{id}[/stream|/results],
// /metrics, /debug/events, /healthz.
//
// flovd has one job plane (internal/cluster): a front door that admits
// jobs into a job store and serves streams from it, and workers that
// lease jobs from the store and run them through the sweep engine. By
// default one process runs both halves over one store — a fresh
// temporary directory unless -store names one, removed again on exit.
// SIGTERM drains gracefully: stop admitting, finish (or after
// -drain-grace, cancel) unfinished jobs, then exit.
//
// -frontend and -worker run one half each, so any number of processes
// can share a persistent store on one directory:
//
//	flovd -frontend -store /srv/flov -addr :8080 -tenant-rate 120   # front door
//	flovd -worker   -store /srv/flov \
//	      -cache-addr :8091 -peers http://node2:8091  # execution node
//
// Front doors admit jobs (per-tenant quotas and rate limits, 429 +
// Retry-After when throttled) and serve resumable streams replayed from
// the store; workers lease jobs, execute them through the sweep engine,
// work-steal expired leases by adopting checkpoints, and federate their
// result caches over -cache-addr/-peers. The same spec produces
// byte-identical rows on any topology.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"flov/internal/cluster"
	"flov/internal/sweep"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "engine worker goroutines per job (0 = GOMAXPROCS)")
	jobTimeout := flag.Duration("job-timeout", 15*time.Minute, "per-job execution ceiling, absolute from admission (0 = none)")
	jobSlice := flag.Duration("job-slice", 0, "preemption time slice: jobs running longer checkpoint and requeue (0 = run to completion)")
	retain := flag.Int("retain", 64, "finished jobs kept in the store; the oldest finished job is compacted first")
	cacheDir := flag.String("cache-dir", "", "result cache directory (default $FLOV_SWEEP_CACHE or the user cache dir)")
	noCache := flag.Bool("no-cache", false, "disable the shared result cache")
	drainGrace := flag.Duration("drain-grace", 30*time.Second, "how long SIGTERM waits for unfinished jobs before canceling them")
	enablePprof := flag.Bool("pprof", false, "mount /debug/pprof/")

	workerMode := flag.Bool("worker", false, "run only the worker half, pulling leased jobs from -store")
	frontendMode := flag.Bool("frontend", false, "run only the front-door half, admitting jobs into -store")
	storeDir := flag.String("store", "", "job store directory (required with -worker/-frontend; default a temporary directory)")
	peers := flag.String("peers", "", "comma-separated peer cache base URLs for federation")
	cacheAddr := flag.String("cache-addr", "", "serve this node's cache to peers on this address")
	workerName := flag.String("worker-name", "", "worker identity in leases and events (default host-pid)")
	leaseTTL := flag.Duration("lease-ttl", 10*time.Second, "job lease duration between renewals; a dead worker's job is stealable one TTL later")
	poll := flag.Duration("poll", 250*time.Millisecond, "store scan interval for writes by other processes")
	tenantQuota := flag.Int("tenant-quota", cluster.DefaultTenantQuota, "max unfinished jobs per tenant")
	tenantRate := flag.Int("tenant-rate", 0, "max submissions per minute per tenant (0 = unlimited)")
	flag.Parse()

	if *workerMode && *frontendMode {
		fatal(errors.New("-worker and -frontend are mutually exclusive; omit both to run the two halves in one process"))
	}
	if (*workerMode || *frontendMode) && *storeDir == "" {
		fatal(errors.New("-worker/-frontend require -store"))
	}
	// Catch SIGTERM before anything is created, so an early signal still
	// runs the cleanup below (the temporary store included).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var cache *sweep.Cache
	if !*noCache {
		dir := *cacheDir
		if dir == "" {
			var err error
			if dir, err = sweep.DefaultDir(); err != nil {
				fatal(err)
			}
		}
		var err error
		if cache, err = sweep.NewCache(dir); err != nil {
			fatal(err)
		}
		logf("result cache at %s", dir)
	}

	dir := *storeDir
	removeStore := func() {}
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "flovd-store-"); err != nil {
			fatal(err)
		}
		removeStore = func() { _ = os.RemoveAll(dir) } // best effort: a temporary store
	}
	defer removeStore()
	store, err := cluster.Open(dir)
	if err != nil {
		removeStore()
		fatal(err)
	}
	store.Retain = *retain

	var fd *cluster.FrontDoor
	if !*workerMode {
		cfg := cluster.FrontDoorConfig{
			MaxActivePerTenant: *tenantQuota,
			RatePerMinute:      *tenantRate,
			JobTimeout:         *jobTimeout,
			Cache:              cache,
			Workers:            *workers,
			EnablePprof:        *enablePprof,
		}
		if *frontendMode {
			cfg.Logf = logf
		}
		fd = cluster.NewFrontDoor(store, cfg)
	}
	var w *cluster.Worker
	if !*frontendMode {
		w = newWorker(store, cache, *peers, *workerName, *leaseTTL, *poll, *jobSlice, *workers)
		if fd != nil {
			w.Metrics, w.Logf = fd.Metrics(), fd.Logf
		}
	}

	// The worker runs until its context ends: the signal in -worker
	// mode, the end of the drain otherwise.
	workerCtx, stopWorker := context.WithCancel(context.Background())
	defer stopWorker()
	workerDone := make(chan struct{})
	if w != nil {
		if *workerMode {
			workerCtx = ctx
		}
		go func() {
			defer close(workerDone)
			_ = w.Run(workerCtx) // returns only when its context ends
		}()
		stopCache := serveCache(*cacheAddr, cache, w.Name)
		defer stopCache()
	} else {
		close(workerDone)
	}
	if fd == nil {
		logf("worker %s: store %s, %d peer(s)", w.Name, dir, w.Peers.Len())
		<-workerDone
		claimed, stolen, finished, preempted := w.Counters()
		logf("worker %s: bye (claimed %d, stolen %d, finished %d, preempted %d)",
			w.Name, claimed, stolen, finished, preempted)
		return
	}

	srv := &http.Server{Addr: *addr, Handler: fd.Handler(), ReadHeaderTimeout: 10 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logf("listening on %s over store %s", *addr, dir)

	select {
	case err := <-errCh:
		// Listen failure (port in use): nothing to drain.
		stopWorker()
		<-workerDone
		removeStore()
		fatal(err)
	case <-ctx.Done():
		logf("signal received, draining (grace %v)", *drainGrace)
	}

	// Drain first: stop admitting and let unfinished jobs finish so their
	// streams complete; then stop the worker, shut the listener down (it
	// waits for the now-finished handlers) and exit. A front door alone
	// has nothing to drain: its jobs live on in the store.
	if w != nil {
		graceCtx, cancel := context.WithTimeout(context.Background(), *drainGrace)
		if err := fd.Drain(graceCtx); err != nil {
			logf("drain grace expired, unfinished jobs canceled")
		}
		cancel()
		stopWorker()
		<-workerDone
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		_ = srv.Close()
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	logf("bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flovd:", err)
	os.Exit(1)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "flovd: "+format+"\n", args...)
}

// newWorker builds the worker half. Shutdown is graceful by lease
// release: in-flight slices checkpoint and the lease expires at once,
// so surviving workers continue without waiting out the TTL.
func newWorker(store *cluster.Store, cache *sweep.Cache, peers, name string,
	leaseTTL, poll, slice time.Duration, workers int) *cluster.Worker {
	if name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	var peerList []string
	if peers != "" {
		peerList = strings.Split(peers, ",")
	}
	return &cluster.Worker{
		Store:    store,
		Cache:    cache,
		Peers:    cluster.NewPeers(peerList),
		Name:     name,
		LeaseTTL: leaseTTL,
		Poll:     poll,
		Slice:    slice,
		Workers:  workers,
		Logf:     logf,
	}
}

// serveCache serves this node's cache to federation peers on addr, when
// both are set, and returns the function that stops it.
func serveCache(addr string, cache *sweep.Cache, name string) func() {
	if addr == "" || cache == nil {
		return func() {}
	}
	srv := &http.Server{Addr: addr, Handler: cluster.CacheHandler(cache), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logf("cache server: %v", err)
		}
	}()
	logf("worker %s: serving cache to peers on %s", name, addr)
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			_ = srv.Close()
		}
	}
}
