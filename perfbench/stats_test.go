package main

import "testing"

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 199)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// p95 of 199 samples has rank 190 and only 9 samples beyond it.
	if v, beyond, ok := percentile(xs, 95); ok || beyond != 9 {
		t.Fatalf("p95 of 199: got %v, %d beyond, ok=%v; want refusal with 9 beyond", v, beyond, ok)
	}
	xs = append(xs, 200)
	v, beyond, ok := percentile(xs, 95)
	if !ok || v != 190 || beyond != 10 {
		t.Fatalf("p95 of 200: got %v, %d beyond, ok=%v; want 190 with 10 beyond", v, beyond, ok)
	}
	if _, _, ok := percentile(xs[:19], 50); ok {
		t.Fatal("p50 of 19 samples (9 beyond) was not refused")
	}
	if v, _, ok := percentile(xs[:20], 50); !ok || v != 10 {
		t.Fatalf("p50 of 1..20: got %v ok=%v, want 10", v, ok)
	}
}

func TestAddPercentileReportsCounts(t *testing.T) {
	var r result
	r.addPercentile("x_p95", make([]float64, 50), 95, "ms")
	m := r.metrics[0]
	if m.N != 50 || m.Value != 0 || m.Note != "refused: 50 samples, 2 beyond p95 (need 10)" {
		t.Fatalf("refused percentile reported as %+v", m)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
