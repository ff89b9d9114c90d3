package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"flov/internal/opt"
)

// handleOptRun runs a design-space search synchronously, streaming one
// NDJSON line per finished generation and a final outcome line. The
// search executes in the front door's process through the shared result
// cache, so candidate evaluations share cached rows with sweep jobs. Closing
// the connection cancels the search via the request context.
func (f *FrontDoor) handleOptRun(w http.ResponseWriter, r *http.Request) {
	if f.Draining() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("read body: %v", err))
		return
	}
	if len(data) > maxSpecBytes {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("spec larger than %d bytes", maxSpecBytes))
		return
	}
	spec, err := opt.ParseSpec(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	// The response commits on the first generation event; spec-level
	// errors (bad space, unknown strategy) surface before any event
	// fires and still get a clean 400.
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	started := false
	emit := func(line OptStreamLine) {
		if !started {
			started = true
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
		}
		// A failed write means the client went away; the request context
		// then cancels the search.
		_ = enc.Encode(line)
		if flusher != nil {
			flusher.Flush()
		}
	}

	f.metrics.optRuns.Add(1)
	outcome, err := opt.Run(r.Context(), spec, opt.Options{
		Workers: f.cfg.Workers,
		Cache:   f.cfg.Cache,
		Progress: func(ev opt.Event) {
			f.metrics.optGenerations.Add(1)
			f.metrics.optEvaluations.Add(int64(ev.Simulated + ev.Reused))
			f.Logf("opt gen %d/%d: %d simulated, front=%d", ev.Gen+1, ev.Generations, ev.Simulated, ev.Front)
			line := ev
			emit(OptStreamLine{Type: "generation", Event: &line})
		},
	})
	if err != nil {
		f.metrics.optFailed.Add(1)
		if !started {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		emit(OptStreamLine{Type: "error", Error: err.Error()})
		return
	}
	f.Logf("opt done: %d generations, %d simulated, front=%d",
		outcome.Generations, outcome.Simulated, len(outcome.Front))
	emit(OptStreamLine{Type: "done", Outcome: &outcome})
}
