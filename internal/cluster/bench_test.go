package cluster_test

import (
	"context"
	"net/http/httptest"
	"testing"

	"flov/internal/cluster"
	"flov/internal/cluster/client"
	"flov/internal/sweep"
)

// BenchmarkServeSweep measures the serving path itself: submit a spec
// over HTTP, stream every point event, collect the rows. The spec is
// run once before the timer starts, so iterations measure admission,
// HTTP and NDJSON overhead on top of reading the stored rows — the
// steady state of a dashboard hammering a long-lived flovd — not
// simulation time.
func BenchmarkServeSweep(b *testing.B) {
	cache, err := sweep.NewCache(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	store, err := cluster.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	fd := cluster.NewFrontDoor(store, cluster.FrontDoorConfig{Cache: cache})
	w := &cluster.Worker{Store: store, Cache: cache, Name: "local", Metrics: fd.Metrics()}
	ctx, stop := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(ctx) // returns when ctx ends
	}()
	ts := httptest.NewServer(fd.Handler())
	defer func() {
		ts.Close()
		stop()
		<-done
	}()
	c := client.New(ts.URL)

	spec := sweep.Spec{
		Patterns:   []string{"uniform"},
		Rates:      []float64{0.01, 0.02},
		GatedFracs: []float64{0, 0.5},
		Mechanisms: []string{"baseline", "gflov"},
		Width:      4, Height: 4,
		Cycles: 4_000, Warmup: 500,
		Seed: 7,
	}
	points, err := spec.Jobs()
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := c.Run(context.Background(), spec, nil); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, _, err := c.Run(context.Background(), spec, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Err != "" {
				b.Fatal(r.Err)
			}
		}
	}
	b.ReportMetric(float64(len(points)*b.N)/b.Elapsed().Seconds(), "points/s")
}
