package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"flov/internal/gating"
	"flov/internal/network"
	"flov/internal/sim"
	"flov/internal/snapshot"
	"flov/internal/topology"
	"flov/internal/trace"
	"flov/internal/traffic"
)

// resumeQuantum is the granularity of preemption checks: resumable runs
// advance this many cycles between Pause polls. A run always makes at
// least one quantum of progress per invocation, so even a Pause that is
// permanently true cannot livelock a sweep — every requeue cycle moves
// each job forward.
const resumeQuantum = 4096

// WarmKey is the cache key for the job's post-warmup snapshot. Jobs that
// differ only in measurement window (TotalCycles, DrainCycles) simulate
// an identical warmup phase, so the key is the hash of the job with
// those fields zeroed — they all share one warm blob. The snapshot
// schema and module versions are folded in for the same reason they are
// in Hash: a blob written by an incompatible build must miss.
func (j Job) WarmKey() string {
	j.Config.TotalCycles = 0
	j.Config.DrainCycles = 0
	enc, err := json.Marshal(j)
	if err != nil {
		enc = []byte(fmt.Sprintf("unencodable:%#v", j))
	}
	h := sha256.New()
	_, _ = fmt.Fprintf(h, "warm|%s|%s|%s|", SchemaVersion, snapSchemaVersion, moduleVersion)
	_, _ = h.Write(enc)
	return hex.EncodeToString(h.Sum(nil))
}

// buildSynthetic assembles (but does not run) the job's network; shared
// by the cold, warm and resumable paths so all three simulate the
// identical system.
func (j Job) buildSynthetic() (*network.Network, error) {
	mesh, err := topology.NewMesh(j.Config.Width, j.Config.Height)
	if err != nil {
		return nil, err
	}
	mask := gating.FractionGated(mesh, j.Frac, j.Protect, sim.NewRNG(j.MaskSeed))
	gen := traffic.NewGenerator(j.Pattern, mesh, j.Hotspots)
	mech, err := NewMechanism(j.Mechanism)
	if err != nil {
		return nil, err
	}
	n, err := network.New(j.Config, mech, gating.Static(mask), gen, j.Rate)
	if err != nil {
		return nil, err
	}
	if j.Faults != nil {
		if err := n.AttachFaults(*j.Faults); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// BuildSynthetic assembles (but does not run) the network for a
// synthetic job — the reliability harness uses it to replay a failing
// trial under external control (checkpoints, tracing).
func (j Job) BuildSynthetic() (*network.Network, error) {
	if j.Kind != Synthetic {
		return nil, fmt.Errorf("sweep: BuildSynthetic on %v job", j.Kind)
	}
	return j.buildSynthetic()
}

// RunWarm executes a synthetic job with warm-start forking: the first
// point for a given (topology, workload, warmup) prefix simulates its
// warmup once and stores the post-warmup snapshot in the cache; every
// later point restores that snapshot and simulates only its own
// measurement window. Restored results are byte-identical to cold runs —
// the donor path *is* the cold run, merely checkpointed mid-way.
//
// Jobs the optimization does not apply to (PARSEC, no warmup phase, nil
// cache) fall back to Run. A blob that fails to restore is deleted and
// the point re-simulates cold, re-publishing a fresh blob.
func (j Job) RunWarm(c *Cache) Result {
	if j.Kind != Synthetic || j.Config.WarmupCycles <= 0 || c == nil {
		return j.Run()
	}
	start := time.Now()
	r := Result{Job: j}
	key := j.WarmKey()

	if blob, ok := c.GetBlob(key); ok {
		n, err := j.buildSynthetic()
		if err != nil {
			r.Err = err.Error()
			r.Wall = time.Since(start)
			return r
		}
		if err := snapshot.RestoreWarm(bytes.NewReader(blob), n); err == nil {
			r.Res = n.Run()
			r.Wall = time.Since(start)
			return r
		}
		// Corrupt or incompatible blob: heal the slot and run cold below.
		c.RemoveBlob(key)
	}

	n, err := j.buildSynthetic()
	if err != nil {
		r.Err = err.Error()
		r.Wall = time.Since(start)
		return r
	}
	n.RunTo(j.Config.WarmupCycles)
	var buf bytes.Buffer
	if err := snapshot.Save(&buf, n, nil); err == nil {
		// Blob publication is best-effort, like result-cache fills.
		_ = c.PutBlob(key, buf.Bytes())
	}
	r.Res = n.Run()
	r.Wall = time.Since(start)
	return r
}

// RunResumable executes the job preemptibly: restore from snap when
// non-nil, then advance in resumeQuantum-cycle slices, polling pause
// between slices. When pause reports true the live state is checkpointed
// and returned in a Paused result; re-running the same job with that
// snapshot continues exactly where it left off, producing the same final
// result as an uninterrupted run. A nil pause never preempts.
func (j Job) RunResumable(snap []byte, pause func() bool) Result {
	start := time.Now()
	r := Result{Job: j}
	if err := j.validate(); err != nil {
		r.Err = err.Error()
		r.Wall = time.Since(start)
		return r
	}
	switch j.Kind {
	case Synthetic:
		r = j.runSyntheticResumable(snap, pause)
	case PARSEC:
		r = j.runPARSECResumable(snap, pause)
	}
	r.Wall = time.Since(start)
	return r
}

func (j Job) runSyntheticResumable(snap []byte, pause func() bool) Result {
	r := Result{Job: j}
	n, err := j.buildSynthetic()
	if err != nil {
		r.Err = err.Error()
		return r
	}
	if snap != nil {
		if err := snapshot.Restore(bytes.NewReader(snap), n, nil); err != nil {
			r.Err = fmt.Sprintf("sweep: resuming from checkpoint: %v", err)
			return r
		}
	}
	for n.Now() < j.Config.TotalCycles {
		next := n.Now() + resumeQuantum
		if next > j.Config.TotalCycles {
			next = j.Config.TotalCycles
		}
		n.RunTo(next)
		if n.Now() >= j.Config.TotalCycles {
			break
		}
		if pause != nil && pause() {
			var buf bytes.Buffer
			if err := snapshot.Save(&buf, n, nil); err != nil {
				r.Err = fmt.Sprintf("sweep: checkpointing for preemption: %v", err)
				return r
			}
			r.Paused, r.Snapshot = true, buf.Bytes()
			return r
		}
	}
	// The drain phase is short and bounded; it runs to completion even
	// under a pending preemption request.
	r.Res = n.Run()
	return r
}

func (j Job) runPARSECResumable(snap []byte, pause func() bool) Result {
	r := Result{Job: j}
	mech, err := NewMechanism(j.Mechanism)
	if err != nil {
		r.Err = err.Error()
		return r
	}
	n, err := network.New(j.Config, mech, nil, nil, 0)
	if err != nil {
		r.Err = err.Error()
		return r
	}
	d := trace.NewDriver(n, j.Profile, j.Seed)
	if snap != nil {
		if err := snapshot.Restore(bytes.NewReader(snap), n, d); err != nil {
			r.Err = fmt.Sprintf("sweep: resuming from checkpoint: %v", err)
			return r
		}
	}
	max := j.MaxCycles
	if max <= 0 {
		max = 20_000_000
	}
	for !d.Finished() && n.Now() < max {
		next := n.Now() + resumeQuantum
		if next > max {
			next = max
		}
		d.RunUntil(next)
		if d.Finished() || n.Now() >= max {
			break
		}
		if pause != nil && pause() {
			var buf bytes.Buffer
			if err := snapshot.Save(&buf, n, d); err != nil {
				r.Err = fmt.Sprintf("sweep: checkpointing for preemption: %v", err)
				return r
			}
			r.Paused, r.Snapshot = true, buf.Bytes()
			return r
		}
	}
	out := d.Outcome()
	r.Out = out
	if !out.Completed {
		r.Err = fmt.Sprintf("sweep: benchmark %s/%v did not complete within %d cycles",
			j.Profile.Name, j.Mechanism, max)
	}
	return r
}
