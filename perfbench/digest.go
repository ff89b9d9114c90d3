package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"strconv"
)

// digests.json holds, per workload, the SHA-256 of the canonical
// simulated outputs for the default seed and one held-out seed. A change
// that moves any simulated number changes these and fails the run.
//
//go:embed digests.json
var digestsJSON []byte

// committedDigest returns the recorded digest for a workload and seed.
func committedDigest(workload string, seed uint64) (string, bool) {
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return "", false
	}
	d, ok := all[workload][strconv.FormatUint(seed, 10)]
	return d, ok
}

// digestOf hashes canonical output bytes, one part per line.
func digestOf(parts ...[]byte) string {
	var buf bytes.Buffer
	for _, p := range parts {
		buf.Write(p)
		buf.WriteByte('\n')
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}
