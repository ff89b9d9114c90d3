package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// pb is a minimal protobuf writer for building test profiles.
type pb []byte

func (b pb) varint(field int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(field)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(field int, p []byte) pb {
	b = binary.AppendUvarint(b, uint64(field)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func (b pb) packed(field int, vs ...uint64) pb {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	return b.bytes(field, p)
}

// testProfile builds a profile whose samples are the given stacks (leaf
// first, one function per location) with the given counts. Location 4
// holds two inlined functions to cover Line expansion.
func testProfile(t *testing.T, stacks [][]uint64, counts []uint64, gz bool) []byte {
	t.Helper()
	names := []string{"",
		"runtime.mallocgc",                                 // 1
		"flov/internal/router.(*Router).stageVA",           // 2
		"flov/internal/network.(*Network).Step",            // 3
		"flov/internal/noc.(*VC).Empty",                    // 4 (inlined into 5)
		"flov/internal/router.(*Router).stageSA",           // 5
		"encoding/json.(*encodeState).marshal",             // 6
		"flov/internal/service.(*Server).handleRun",        // 7
		"runtime.gcBgMarkWorker",                           // 8
		"flov/internal/sim.(*Delay[go.shape.*uint8]).Push", // 9
	}
	var p pb
	for i, st := range stacks {
		var s pb
		if i%2 == 0 {
			s = s.packed(1, st...)
		} else {
			for _, l := range st {
				s = s.varint(1, l)
			}
		}
		s = s.packed(2, counts[i], counts[i]*1e7)
		p = p.bytes(2, s)
	}
	for id := uint64(1); id < uint64(len(names)); id++ {
		var loc pb
		loc = loc.varint(1, id)
		if id == 4 {
			loc = loc.bytes(4, pb{}.varint(1, 4)).bytes(4, pb{}.varint(1, 5))
		} else if id != 5 {
			loc = loc.bytes(4, pb{}.varint(1, id).varint(2, 10))
		}
		p = p.bytes(4, loc)
		p = p.bytes(5, pb{}.varint(1, id).varint(2, id))
	}
	for _, n := range names {
		p = p.bytes(6, []byte(n))
	}
	if !gz {
		return p
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func metricMap(ms []metric) map[string]float64 {
	out := map[string]float64{}
	for _, m := range ms {
		out[m.Name] = m.Value
	}
	return out
}

func TestCPUSplitBuckets(t *testing.T) {
	stacks := [][]uint64{
		{1, 2, 3}, // malloc under stageVA: router, va
		{4, 3},    // noc inlined into stageSA: router, sa
		{6, 7},    // json under service: encoding_json
		{8},       // GC worker: other
		{9, 3},    // generic sim function: sim
		{3},       // network self time
	}
	counts := []uint64{4, 3, 2, 1, 5, 5}
	for _, gz := range []bool{false, true} {
		c := newCPUSplit()
		if err := c.add(testProfile(t, stacks, counts, gz)); err != nil {
			t.Fatal(err)
		}
		got := metricMap(c.metrics())
		want := map[string]float64{
			"router.cpu_frac": 7.0 / 20, "encoding_json.cpu_frac": 2.0 / 20, "other.cpu_frac": 1.0 / 20,
			"sim.cpu_frac": 5.0 / 20, "network.cpu_frac": 5.0 / 20, "service.cpu_frac": 0,
			"router.va_cpu_frac": 4.0 / 20, "router.sa_cpu_frac": 3.0 / 20, "router.rc_cpu_frac": 0,
		}
		for k, v := range want {
			if math.Abs(got[k]-v) > 1e-12 {
				t.Errorf("gz=%v %s = %v, want %v", gz, k, got[k], v)
			}
		}
		sum := 0.0
		for _, b := range bucketNames {
			sum += got[b+".cpu_frac"]
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("bucket shares sum to %v, want 1", sum)
		}
	}
}

func TestCPUSplitRejectsGarbage(t *testing.T) {
	if err := newCPUSplit().add([]byte{0x12, 0x05, 0x01}); err == nil {
		t.Fatal("truncated profile parsed without error")
	}
}

// TestCPUSplitRealProfile parses a profile written by runtime/pprof.
func TestCPUSplitRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0.0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	c := newCPUSplit()
	if err := c.add(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if c.total == 0 {
		t.Fatalf("no samples in a 300ms busy profile (x=%v)", x)
	}
	if got := metricMap(c.metrics())["other.cpu_frac"]; got != 1 {
		t.Errorf("test-binary samples should all be other, got other.cpu_frac=%v", got)
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"flov/internal/router.(*Router).stageVA":           "flov/internal/router",
		"encoding/json.(*encodeState).marshal":             "encoding/json",
		"runtime.mallocgc":                                 "runtime",
		"flov/internal/sim.(*Delay[go.shape.*uint8]).Push": "flov/internal/sim",
		"flov/internal/sim.NewDelay[...]":                  "flov/internal/sim",
		"net/http.(*conn).serve.func1":                     "net/http",
		"flov/internal/sweep.(*Engine).Run.func2":          "flov/internal/sweep",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
