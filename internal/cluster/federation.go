package cluster

import (
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"flov/internal/sweep"
)

// Cache federation. Every node's content-addressed cache speaks a tiny
// read-only HTTP protocol over result entries, keyed by job hash. A
// node that misses locally asks its peers before simulating, then
// writes the fetched entry into its own cache, so a row computed once
// is a hit everywhere. Keys are content hashes, so federation needs no
// invalidation protocol — an entry is either valid for its key or
// rejected by the same three-layer hardening local reads get
// (sweep.DecodeEntry).

// maxFederatedEntry bounds a fetched peer response; entries are a few
// KiB, so 64 MiB is generous and still DoS-safe.
const maxFederatedEntry = 64 << 20

// validKey reports whether key is a plausible content hash — lowercase
// hex, at least one byte of prefix directory. Anything else (path
// traversal, foreign names) is rejected at the HTTP boundary.
func validKey(key string) bool {
	if len(key) < 2 || len(key) > 128 {
		return false
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// CacheHandler serves a node's cache to its peers:
//
//	GET /v1/cache/entry/{hash}  raw result-cache entry bytes
//	GET /healthz                liveness
//
// Read-only by construction: peers validate and write into their own
// caches; nothing remote ever writes into this one.
func CacheHandler(c *sweep.Cache) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cache/entry/{hash}", func(w http.ResponseWriter, r *http.Request) {
		hash := r.PathValue("hash")
		if !validKey(hash) {
			http.Error(w, "bad key", http.StatusBadRequest)
			return
		}
		data, ok := c.ReadEntry(hash)
		if !ok {
			http.Error(w, "miss", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		// Committed response: a failed write means the peer went away.
		_, _ = w.Write(data)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, "ok\n")
	})
	return mux
}

// Peers is the fetching side of cache federation: an ordered list of
// peer cache base URLs tried on local misses. Safe for concurrent use.
type Peers struct {
	bases []string
	http  *http.Client

	hits, misses, rejected atomic.Int64
}

// NewPeers builds a federation client over peer base URLs (e.g.
// "http://node2:8091"). Requests are short-deadline: a slow or dead
// peer must cost milliseconds, not stall a worker — simulating locally
// is always a correct fallback.
func NewPeers(bases []string) *Peers {
	clean := make([]string, 0, len(bases))
	for _, b := range bases {
		if b = strings.TrimSpace(strings.TrimRight(b, "/")); b != "" {
			clean = append(clean, b)
		}
	}
	return &Peers{bases: clean, http: &http.Client{Timeout: 5 * time.Second}}
}

// Len reports the number of configured peers.
func (p *Peers) Len() int {
	if p == nil {
		return 0
	}
	return len(p.bases)
}

// Counters reports fetch outcomes: hits (validated entries adopted),
// misses (no peer had the key), rejected (a peer served bytes that
// failed validation — corruption or a foreign writer).
func (p *Peers) Counters() (hits, misses, rejected int64) {
	return p.hits.Load(), p.misses.Load(), p.rejected.Load()
}

// get fetches one key from one peer, bounded in size.
func (p *Peers) get(url string) ([]byte, bool) {
	resp, err := p.http.Get(url)
	if err != nil {
		return nil, false
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxFederatedEntry+1))
	if err != nil || len(data) > maxFederatedEntry {
		return nil, false
	}
	return data, true
}

// FetchResult asks the peers for a job's cached result, first answer
// wins. Every remote entry passes the full local hardening
// (sweep.DecodeEntry): a corrupt or mismatched peer entry is counted,
// skipped, and the next peer is tried.
func (p *Peers) FetchResult(j sweep.Job) (sweep.Result, bool) {
	if p.Len() == 0 {
		return sweep.Result{}, false
	}
	hash := j.Hash()
	for _, base := range p.bases {
		data, ok := p.get(base + "/v1/cache/entry/" + hash)
		if !ok {
			continue
		}
		r, ok := sweep.DecodeEntry(hash, data)
		if !ok {
			p.rejected.Add(1)
			continue
		}
		p.hits.Add(1)
		return r, true
	}
	p.misses.Add(1)
	return sweep.Result{}, false
}

// Warm pulls jobs' cached results from peers into the local cache when
// absent, so the engine's subsequent lookups hit locally. Best-effort:
// any failure simply leaves the point to simulate.
func (p *Peers) Warm(c *sweep.Cache, jobs []sweep.Job) (adopted int) {
	if p.Len() == 0 || c == nil {
		return 0
	}
	for _, j := range jobs {
		if _, ok := c.ReadEntry(j.Hash()); ok {
			continue
		}
		if r, ok := p.FetchResult(j); ok {
			if err := c.Put(r); err == nil {
				adopted++
			}
		}
	}
	return adopted
}
