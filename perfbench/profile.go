package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuBuckets maps a package path to the *.cpu_frac bucket its samples
// count toward. A sample goes to the innermost frame of its stack whose
// package has a bucket, so runtime work (allocation, map access) done on
// behalf of a layer is charged to that layer, and helper packages with
// no bucket (noc, topology, stats, traffic, ...) are charged to the
// layer that called them. Samples with no bucketed frame are "other".
var cpuBuckets = map[string]string{
	"flov/internal/router":  "router",
	"flov/internal/core":    "core",
	"flov/internal/sim":     "sim",
	"flov/internal/network": "network",
	"flov/internal/power":   "power",
	"flov/internal/trace":   "trace",
	"flov/internal/rp":      "rp",
	"flov/internal/sweep":   "sweep",
	"flov/internal/service": "service",
	"encoding/json":         "encoding_json",
	"net/http":              "net_http",
}

// bucketNames lists every bucket in report order, "other" last.
var bucketNames = []string{"router", "core", "sim", "network", "power", "trace", "rp", "sweep", "service", "encoding_json", "net_http", "other"}

// routerStages maps a function to the router.*_cpu_frac share it
// reports. A sample counts toward a stage when the function appears
// anywhere on its stack (cumulative share), so a stage's callees count.
var routerStages = map[string]string{
	"flov/internal/router.(*Router).stageRC":       "router.rc_cpu_frac",
	"flov/internal/router.(*Router).stageVA":       "router.va_cpu_frac",
	"flov/internal/router.(*Router).stageSA":       "router.sa_cpu_frac",
	"flov/internal/router.(*Router).LocalActivity": "router.local_activity_cpu_frac",
}

// cpuSplit accumulates bucketed sample counts across one or more CPU
// profiles.
type cpuSplit struct {
	total   int64
	buckets map[string]int64
	stages  map[string]int64
}

func newCPUSplit() *cpuSplit {
	return &cpuSplit{buckets: map[string]int64{}, stages: map[string]int64{}}
}

// add parses one pprof CPU profile (gzipped or raw profile.proto) and
// folds its samples into the split.
func (c *cpuSplit) add(data []byte) error {
	p, err := parseProfile(data)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		if s.count == 0 {
			continue
		}
		c.total += s.count
		bucket := "other"
		found := false
		seen := map[string]bool{}
		for _, fn := range p.stack(s.locs) {
			if b, ok := cpuBuckets[packageOf(fn)]; ok && !found {
				bucket, found = b, true
			}
			if st, ok := routerStages[fn]; ok && !seen[st] {
				seen[st] = true
				c.stages[st] += s.count
			}
		}
		c.buckets[bucket] += s.count
	}
	return nil
}

// metrics returns every *.cpu_frac share; they are 0 with no samples.
func (c *cpuSplit) metrics() []metric {
	var out []metric
	frac := func(n int64) float64 {
		if c.total == 0 {
			return 0
		}
		return float64(n) / float64(c.total)
	}
	n := int(c.total)
	for _, b := range bucketNames {
		out = append(out, metric{Name: b + ".cpu_frac", Value: frac(c.buckets[b]), Unit: "frac", N: n})
	}
	for _, st := range []string{"router.rc_cpu_frac", "router.va_cpu_frac", "router.sa_cpu_frac", "router.local_activity_cpu_frac"} {
		out = append(out, metric{Name: st, Value: frac(c.stages[st]), Unit: "frac", N: n})
	}
	return out
}

// packageOf extracts the package path from a symbolized Go function
// name such as "flov/internal/router.(*Router).stageVA" or
// "encoding/json.(*encodeState).marshal". Type parameters in brackets
// may themselves hold slashes and dots, so the path is read only up to
// the first bracket or parenthesis.
func packageOf(fn string) string {
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// profile is the part of profile.proto the split needs: samples as
// location lists, and locations as (possibly inlined) function names.
type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

type profSample struct {
	locs  []uint64 // leaf first
	count int64    // first sample value (samples)
}

// stack returns the function names of a sample, innermost first, with
// inlined frames expanded.
func (p *profile) stack(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, f := range p.locations[l] {
			if si := p.functions[f]; si >= 0 && int(si) < len(p.strings) {
				out = append(out, p.strings[si])
			}
		}
	}
	return out
}

// parseProfile decodes the subset of the pprof protobuf format used by
// runtime/pprof CPU profiles.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(data, func(field int, wire int, v uint64, b []byte) error {
		switch {
		case field == 2 && wire == 2:
			s, err := parseSample(b)
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case field == 4 && wire == 2:
			return p.parseLocation(b)
		case field == 5 && wire == 2:
			return p.parseFunction(b)
		case field == 6 && wire == 2:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

func parseSample(b []byte) (profSample, error) {
	var s profSample
	var values []uint64
	err := eachField(b, func(field, wire int, v uint64, sub []byte) error {
		switch field {
		case 1:
			return appendVarints(&s.locs, wire, v, sub)
		case 2:
			return appendVarints(&values, wire, v, sub)
		}
		return nil
	})
	if len(values) > 0 {
		s.count = int64(values[0])
	}
	return s, err
}

func (p *profile) parseLocation(b []byte) error {
	var id uint64
	var fns []uint64
	err := eachField(b, func(field, wire int, v uint64, sub []byte) error {
		switch {
		case field == 1 && wire == 0:
			id = v
		case field == 4 && wire == 2: // Line
			return eachField(sub, func(f, w int, lv uint64, _ []byte) error {
				if f == 1 && w == 0 {
					fns = append(fns, lv)
				}
				return nil
			})
		}
		return nil
	})
	p.locations[id] = fns
	return err
}

func (p *profile) parseFunction(b []byte) error {
	var id uint64
	name := int64(-1)
	err := eachField(b, func(field, wire int, v uint64, _ []byte) error {
		if wire != 0 {
			return nil
		}
		switch field {
		case 1:
			id = v
		case 2:
			name = int64(v)
		}
		return nil
	})
	p.functions[id] = name
	return err
}

// appendVarints handles a repeated varint field in either packed or
// unpacked form.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	if wire != 2 {
		return errBadProfile
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProfile
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

var errBadProfile = errors.New("profile: malformed protobuf")

// eachField walks the top-level fields of a protobuf message, calling fn
// with the varint value (wire type 0) or the payload (wire type 2).
// Fixed-width fields are skipped.
func eachField(b []byte, fn func(field, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProfile
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errBadProfile
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProfile
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProfile
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProfile
			}
			b = b[4:]
			continue
		default:
			return errBadProfile
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}
