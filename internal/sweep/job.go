// Package sweep is the parallel sweep engine: every figure of the paper
// is a grid of independent simulation points, and this package fans those
// points out across a worker pool with content-addressed result caching
// and per-job observability.
//
// The pieces compose:
//
//   - Job fully describes one simulation point (config, pattern, rate,
//     gated fraction, mechanism, seeds) and hashes canonically;
//   - Engine runs a job list across GOMAXPROCS goroutines with context
//     cancellation, panic isolation and deterministic result ordering;
//   - Cache memoizes finished Results on disk keyed by the job hash, so
//     re-running a figure only simulates changed points;
//   - Progress observers receive start/finish/cache-hit events.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime/debug"
	"time"

	"flov/internal/config"
	"flov/internal/core"
	"flov/internal/fault"
	"flov/internal/network"
	"flov/internal/rp"
	"flov/internal/snapshot"
	"flov/internal/trace"
	"flov/internal/traffic"
)

// Kind selects the workload a Job describes.
type Kind int

// Job kinds.
const (
	// Synthetic is a BookSim-style open-loop run (RunSynthetic).
	Synthetic Kind = iota
	// PARSEC is a closed-loop full-system benchmark run (RunPARSEC).
	PARSEC
)

// String names the kind as used in job descriptions and JSON.
func (k Kind) String() string {
	switch k {
	case Synthetic:
		return "synthetic"
	case PARSEC:
		return "parsec"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// parseKind is the inverse of Kind.String.
func parseKind(s string) (Kind, error) {
	switch s {
	case "synthetic":
		return Synthetic, nil
	case "parsec":
		return PARSEC, nil
	}
	return Synthetic, fmt.Errorf("sweep: unknown job kind %q", s)
}

// Job fully describes one simulation point. Two jobs with equal fields
// produce bit-identical Results (the simulator is deterministic), which
// is what makes the on-disk cache sound: the canonical Hash of a Job is
// the cache key.
//
// Schedules (time-varying gating masks) are intentionally not part of a
// Job — points that need one (Fig. 10, churn ablations) run outside the
// engine via flov.Build.
type Job struct {
	// Kind selects synthetic vs PARSEC; the zero value is Synthetic.
	Kind Kind

	// Config is the full testbed configuration for the point.
	Config config.Config

	// Synthetic workload point.
	Pattern  traffic.Pattern
	Rate     float64 // offered load (flits/cycle/node)
	Frac     float64 // fraction of cores power-gated
	MaskSeed uint64  // seed for the random gated-set draw
	Protect  []int   // node ids never gated
	Hotspots []int   // hotspot destinations (Hotspot pattern only)

	// Mechanism under test (both kinds).
	Mechanism config.Mechanism

	// Faults optionally attaches the fault-injection subsystem to a
	// synthetic run (reliability harness points). PARSEC jobs reject it.
	Faults *fault.Spec

	// PARSEC workload point.
	Profile   trace.Profile // benchmark profile (zero Name when synthetic)
	Seed      uint64        // driver seed for the closed-loop workload
	MaxCycles int64         // run bound for the closed-loop driver
}

// jobJSON is the wire form of a Job: enum fields are spelled out as the
// names the CLIs accept, so specs and cached results stay readable and
// stable across enum renumbering.
type jobJSON struct {
	Kind      string        `json:"kind"`
	Config    config.Config `json:"config"`
	Pattern   string        `json:"pattern,omitempty"`
	Rate      float64       `json:"rate,omitempty"`
	Frac      float64       `json:"gated_frac,omitempty"`
	MaskSeed  uint64        `json:"mask_seed,omitempty"`
	Protect   []int         `json:"protect,omitempty"`
	Hotspots  []int         `json:"hotspots,omitempty"`
	Mechanism string        `json:"mechanism"`
	Faults    *fault.Spec   `json:"faults,omitempty"`
	Profile   trace.Profile `json:"profile,omitempty"`
	Seed      uint64        `json:"seed,omitempty"`
	MaxCycles int64         `json:"max_cycles,omitempty"`
}

// MarshalJSON renders the job with symbolic kind/pattern/mechanism names.
func (j Job) MarshalJSON() ([]byte, error) {
	return json.Marshal(jobJSON{
		Kind:      j.Kind.String(),
		Config:    j.Config,
		Pattern:   j.Pattern.String(),
		Rate:      j.Rate,
		Frac:      j.Frac,
		MaskSeed:  j.MaskSeed,
		Protect:   j.Protect,
		Hotspots:  j.Hotspots,
		Mechanism: j.Mechanism.String(),
		Faults:    j.Faults,
		Profile:   j.Profile,
		Seed:      j.Seed,
		MaxCycles: j.MaxCycles,
	})
}

// UnmarshalJSON parses the symbolic wire form back into a Job.
func (j *Job) UnmarshalJSON(data []byte) error {
	var w jobJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	kind, err := parseKind(w.Kind)
	if err != nil {
		return err
	}
	mech, err := config.ParseMechanism(w.Mechanism)
	if err != nil {
		return err
	}
	pat := traffic.Uniform
	if w.Pattern != "" {
		if pat, err = traffic.ParsePattern(w.Pattern); err != nil {
			return err
		}
	}
	*j = Job{
		Kind:      kind,
		Config:    w.Config,
		Pattern:   pat,
		Rate:      w.Rate,
		Frac:      w.Frac,
		MaskSeed:  w.MaskSeed,
		Protect:   w.Protect,
		Hotspots:  w.Hotspots,
		Mechanism: mech,
		Faults:    w.Faults,
		Profile:   w.Profile,
		Seed:      w.Seed,
		MaxCycles: w.MaxCycles,
	}
	return nil
}

// SchemaVersion is folded into every job hash; bump it whenever the
// simulator's observable behaviour changes in a way the Config does not
// capture, to invalidate stale cached results wholesale.
const SchemaVersion = "flov-sweep-v1"

// snapSchemaVersion folds the checkpoint state schema into job hashes:
// warm-start blobs and cached rows derived from them are only sound for
// the snapshot layout this build writes, so a schema bump must miss
// every old cache entry. A variable (not the constant) so tests can
// simulate a bump.
var snapSchemaVersion = snapshot.SchemaVersion

// moduleVersion pins cache keys to the built module version so an
// upgraded binary never serves results simulated by an older one.
// Development builds report "(devel)"; the SchemaVersion constant is the
// knob that matters there.
var moduleVersion = func() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}()

// Hash returns the canonical content hash of the job: SHA-256 over the
// schema version, module version and the canonical JSON encoding (field
// order is fixed by the wire struct, floats render shortest-form, so the
// encoding is deterministic).
func (j Job) Hash() string {
	enc, err := json.Marshal(j)
	if err != nil {
		// Job is plain data; Marshal cannot fail on it. Guard anyway so a
		// future field type mistake surfaces as distinct hashes, not
		// silent cache collisions.
		enc = []byte(fmt.Sprintf("unencodable:%#v", j))
	}
	h := sha256.New()
	// hash.Hash.Write is documented to never return an error.
	_, _ = fmt.Fprintf(h, "%s|%s|%s|", SchemaVersion, snapSchemaVersion, moduleVersion)
	_, _ = h.Write(enc)
	return hex.EncodeToString(h.Sum(nil))
}

// Desc is a short human-readable point description for progress lines.
func (j Job) Desc() string {
	if j.Kind == PARSEC {
		return fmt.Sprintf("%s/%s seed=%d", j.Profile.Name, j.Mechanism, j.Seed)
	}
	return fmt.Sprintf("%s/%s rate=%.3f gated=%.0f%%",
		j.Pattern, j.Mechanism, j.Rate, j.Frac*100)
}

// Result is the outcome of one job: exactly one of Res (synthetic) or
// Out (PARSEC) is populated, unless Err is set. CacheHit and Wall
// describe this invocation, not the cached original, and are excluded
// from result-equality comparisons.
type Result struct {
	Job Job    `json:"job"`
	Err string `json:"err,omitempty"`

	// Res holds synthetic-run results (Kind == Synthetic).
	Res network.Results `json:"res"`
	// Out holds full-system outcomes (Kind == PARSEC).
	Out trace.Outcome `json:"out"`

	// CacheHit reports whether the result was served from the cache.
	CacheHit bool `json:"-"`
	// Wall is the wall-clock time this invocation spent on the job
	// (near zero for cache hits).
	Wall time.Duration `json:"-"`

	// Paused reports that a resumable run yielded to a preemption
	// request before finishing: Res/Out are unset and Snapshot holds the
	// checkpoint to resume from. Paused results are never cached.
	Paused bool `json:"-"`
	// Snapshot is the serialized mid-run checkpoint of a paused job.
	Snapshot []byte `json:"-"`
}

// SimCycles returns the number of simulated cycles the point covered,
// for throughput reporting.
func (r Result) SimCycles() int64 {
	if r.Job.Kind == PARSEC {
		return r.Out.RuntimeCyc
	}
	return r.Res.RunCycles
}

// NewMechanism instantiates the controller for a mechanism. This is the
// single factory shared by the public API, the experiments and the
// engine.
func NewMechanism(m config.Mechanism) (network.Mechanism, error) {
	switch m {
	case config.Baseline:
		return network.NewBaseline(), nil
	case config.RP:
		return rp.New(), nil
	case config.RFLOV:
		return core.NewRFLOV(), nil
	case config.GFLOV:
		return core.NewGFLOV(), nil
	}
	return nil, fmt.Errorf("sweep: unknown mechanism %v", m)
}

// Run executes the job synchronously in the calling goroutine and
// returns its result. Errors (bad config, incomplete benchmark) are
// reported in Result.Err; Run never panics on invalid input, but the
// simulator itself may — the Engine isolates that.
func (j Job) Run() Result {
	start := time.Now()
	r := Result{Job: j}
	if err := j.validate(); err != nil {
		r.Err = err.Error()
		r.Wall = time.Since(start)
		return r
	}
	switch j.Kind {
	case Synthetic:
		res, err := j.runSynthetic()
		if err != nil {
			r.Err = err.Error()
		}
		r.Res = res
	case PARSEC:
		out, err := j.runPARSEC()
		if err != nil {
			r.Err = err.Error()
		}
		r.Out = out
	}
	r.Wall = time.Since(start)
	return r
}

// validate rejects jobs no run path can execute as specified. Run and
// RunResumable both call it first, so the cold and resumable paths
// accept exactly the same jobs.
func (j Job) validate() error {
	switch j.Kind {
	case Synthetic:
		return nil
	case PARSEC:
		if j.Faults != nil {
			return fmt.Errorf("sweep: fault injection is only supported for synthetic jobs")
		}
		return nil
	default:
		return fmt.Errorf("sweep: unknown job kind %v", j.Kind)
	}
}

// runSynthetic mirrors flov.RunSynthetic: static mask drawn from
// MaskSeed, standard warmup/measure/drain run.
func (j Job) runSynthetic() (network.Results, error) {
	n, err := j.buildSynthetic()
	if err != nil {
		return network.Results{}, err
	}
	return n.Run(), nil
}

// runPARSEC mirrors flov.RunProfile: closed-loop driver over the job's
// profile, bounded by MaxCycles.
func (j Job) runPARSEC() (trace.Outcome, error) {
	mech, err := NewMechanism(j.Mechanism)
	if err != nil {
		return trace.Outcome{}, err
	}
	n, err := network.New(j.Config, mech, nil, nil, 0)
	if err != nil {
		return trace.Outcome{}, err
	}
	max := j.MaxCycles
	if max <= 0 {
		max = 20_000_000
	}
	out := trace.NewDriver(n, j.Profile, j.Seed).Run(max)
	if !out.Completed {
		return out, fmt.Errorf("sweep: benchmark %s/%v did not complete within %d cycles",
			j.Profile.Name, j.Mechanism, max)
	}
	return out, nil
}
