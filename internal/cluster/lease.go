package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Lease protocol. A job's execution right is a sequence of epochs:
// claiming epoch e+1 is an atomic hard link of a fully written lease
// file to leases/<id>.<e+1>, which exactly one process can win, and is
// only attempted once epoch e has expired (or released itself by
// renewing to an already-past expiry). Renewal rewrites the holder's
// own epoch file via rename, which is atomic, so readers always see a
// complete lease.
//
// The protocol is deliberately not a perfect fence: a holder that
// renews concurrently with a thief linking the next epoch can briefly
// leave two workers executing the same job. That is safe here — rows
// are deterministic, duplicate row records resolve last-write-wins,
// and the terminal marker is first-writer-wins — so the race costs CPU,
// never correctness. Holders detect the loss at the next renew
// (ErrLeaseLost) and abandon.

// leaseWire is the on-disk lease format.
type leaseWire struct {
	Job    string `json:"job"`
	Epoch  int    `json:"epoch"`
	Worker string `json:"worker"`
	// ExpiresMS is the absolute expiry (unix milliseconds). Wall clocks
	// across workers on one store are assumed loosely synchronized; the
	// TTL is seconds-scale, so ordinary skew only delays a steal.
	ExpiresMS int64 `json:"expires_ms"`
}

// LeaseInfo is a read-only view of a job's current lease epoch.
type LeaseInfo struct {
	Job       string
	Epoch     int
	Worker    string
	ExpiresMS int64
}

// Expired reports whether the lease has lapsed at now.
func (li LeaseInfo) Expired(now time.Time) bool {
	return now.UnixMilli() >= li.ExpiresMS
}

// Lease is a held execution right: the claim's epoch plus the handle to
// renew or release it.
type Lease struct {
	store  *Store
	Job    string
	Epoch  int
	Worker string
}

func (s *Store) leasePath(id string, epoch int) string {
	return filepath.Join(s.dir, "leases", fmt.Sprintf("%s.%08d", id, epoch))
}

// leaseEpochs lists a job's existing lease epochs, ascending.
func (s *Store) leaseEpochs(id string) ([]int, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, "leases"))
	if err != nil {
		return nil, err
	}
	var epochs []int
	prefix := id + "."
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		n, err := strconv.Atoi(strings.TrimPrefix(name, prefix))
		if err != nil {
			continue // temp files and foreign names
		}
		epochs = append(epochs, n)
	}
	sort.Ints(epochs)
	return epochs, nil
}

// readLease parses one epoch file. Lease files are only ever published
// whole (link or rename), so a parse failure is corruption; it reads as
// an expired lease so the job stays claimable rather than wedged.
func (s *Store) readLease(id string, epoch int) (leaseWire, bool) {
	data, err := os.ReadFile(s.leasePath(id, epoch))
	if err != nil {
		return leaseWire{}, false
	}
	return decodeLease(id, epoch, data), true
}

// decodeLease parses a lease file's bytes. Anything that does not
// decode reads as expired (zero ExpiresMS) for the given job and epoch.
func decodeLease(id string, epoch int, data []byte) leaseWire {
	var w leaseWire
	if err := json.Unmarshal(data, &w); err != nil {
		return leaseWire{Job: id, Epoch: epoch}
	}
	return w
}

// CurrentLease returns the newest lease epoch of a job, if any.
func (s *Store) CurrentLease(id string) (LeaseInfo, bool) {
	epochs, err := s.leaseEpochs(id)
	if err != nil || len(epochs) == 0 {
		return LeaseInfo{}, false
	}
	last := epochs[len(epochs)-1]
	w, ok := s.readLease(id, last)
	if !ok {
		return LeaseInfo{}, false
	}
	return LeaseInfo{Job: w.Job, Epoch: last, Worker: w.Worker, ExpiresMS: w.ExpiresMS}, true
}

// Claim attempts to take the job's next lease epoch for worker. It
// fails with ErrLeaseHeld while the current epoch is unexpired, and
// with ErrLeaseHeld (after losing the link race) when another claimant
// won the same epoch. A successful claim on epoch > 1 is an adoption:
// the new holder picks up the previous epoch's durable rows and
// checkpoints.
func (s *Store) Claim(id, worker string, ttl time.Duration) (*Lease, error) {
	if !s.exists(id) {
		return nil, ErrUnknownJob
	}
	epochs, err := s.leaseEpochs(id)
	if err != nil {
		return nil, err
	}
	next := 1
	if len(epochs) > 0 {
		last := epochs[len(epochs)-1]
		if w, ok := s.readLease(id, last); ok {
			if time.Now().UnixMilli() < w.ExpiresMS {
				return nil, ErrLeaseHeld
			}
		}
		next = last + 1
	}
	w := leaseWire{Job: id, Epoch: next, Worker: worker,
		ExpiresMS: time.Now().Add(ttl).UnixMilli()}
	data, err := json.Marshal(w)
	if err != nil {
		return nil, err
	}
	won, err := publish(s.leasePath(id, next), data)
	if err != nil {
		return nil, fmt.Errorf("cluster: claim lease: %w", err)
	}
	if !won {
		return nil, ErrLeaseHeld
	}
	return &Lease{store: s, Job: id, Epoch: next, Worker: worker}, nil
}

// Renew extends the held lease by ttl. It fails with ErrLeaseLost when
// a higher epoch exists — another worker decided this one was dead and
// stole the job — at which point the holder must abandon execution.
func (l *Lease) Renew(ttl time.Duration) error {
	return l.rewrite(time.Now().Add(ttl).UnixMilli())
}

// Release ends the lease by expiring it immediately, leaving the epoch
// file in place so epoch numbers stay monotonic. The job becomes
// claimable by any worker at once (requeue semantics).
func (l *Lease) Release() error {
	err := l.rewrite(0)
	if err == ErrLeaseLost {
		return nil // already stolen; nothing left to release
	}
	return err
}

// rewrite atomically replaces the holder's epoch file with a new
// expiry, after verifying the epoch is still the newest.
func (l *Lease) rewrite(expiresMS int64) error {
	epochs, err := l.store.leaseEpochs(l.Job)
	if err != nil {
		return err
	}
	if len(epochs) == 0 || epochs[len(epochs)-1] != l.Epoch {
		return ErrLeaseLost
	}
	w := leaseWire{Job: l.Job, Epoch: l.Epoch, Worker: l.Worker, ExpiresMS: expiresMS}
	data, err := json.Marshal(w)
	if err != nil {
		return err
	}
	return replaceFile(l.store.leasePath(l.Job, l.Epoch), data)
}

// RemoveLeases deletes a finished job's lease files (housekeeping; the
// done marker already ends all claims).
func (s *Store) RemoveLeases(id string) {
	epochs, err := s.leaseEpochs(id)
	if err != nil {
		return
	}
	for _, e := range epochs {
		_ = os.Remove(s.leasePath(id, e))
	}
}
