// Package fixture contains deliberate violations of the locksafe rule,
// marked with trailing "// want locksafe" comments. The tests load it
// under flov/internal/cluster/fixture, inside the analyzer's scope.
package fixture

import (
	"context"
	"sync"
)

// Store is the guarded fixture type.
type Store struct {
	mu   sync.Mutex
	n    int
	ch   chan int
	hook func(int)
}

// Observer is an in-module interface; calling it under a lock can
// re-enter or block.
type Observer interface {
	Notify(int)
}

// Get is the canonical clean pattern: defer the unlock.
func (s *Store) Get() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Bump leaks the lock on the early return.
func (s *Store) Bump(limit int) bool {
	s.mu.Lock()
	if s.n >= limit {
		return false // want locksafe
	}
	s.n++
	s.mu.Unlock()
	return true
}

// Publish sends on a channel while holding the lock.
func (s *Store) Publish() {
	s.mu.Lock()
	s.ch <- s.n // want locksafe
	s.mu.Unlock()
}

// Hook calls through a function-valued field while holding the lock.
func (s *Store) Hook() {
	s.mu.Lock()
	s.hook(s.n) // want locksafe
	s.mu.Unlock()
}

// Tell calls an in-module interface method while holding the lock.
func (s *Store) Tell(o Observer) {
	s.mu.Lock()
	o.Notify(s.n) // want locksafe
	s.mu.Unlock()
}

// TellAfter is the sanctioned shape: snapshot under the lock, notify
// after releasing it.
func (s *Store) TellAfter(o Observer) {
	s.mu.Lock()
	n := s.n
	s.mu.Unlock()
	o.Notify(n)
}

// TellAllowed is Tell with a justified suppression.
func (s *Store) TellAllowed(o Observer) {
	s.mu.Lock()
	//flovlint:allow locksafe -- fixture: observer is non-blocking by contract
	o.Notify(s.n)
	s.mu.Unlock()
}

// WithCtx may call stdlib interface methods under the lock: ctx.Err
// cannot re-enter this package.
func (s *Store) WithCtx(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ctx.Err()
}

// Relock acquires a lock it already holds.
func (s *Store) Relock() {
	s.mu.Lock()
	s.mu.Lock() // want locksafe
	s.n++
	s.mu.Unlock()
}

// Unbalanced unlocks on a path that never locked.
func (s *Store) Unbalanced(b bool) {
	if b {
		s.mu.Lock()
		s.n++
		s.mu.Unlock()
	}
	s.mu.Unlock() // want locksafe
}

// DeferFirst defers the unlock before anything is held.
func (s *Store) DeferFirst() {
	defer s.mu.Unlock() // want locksafe
	s.mu.Lock()
	s.n++
}

// BothArms locks on both branches and releases once after the merge.
func (s *Store) BothArms(b bool) {
	if b {
		s.mu.Lock()
	} else {
		s.mu.Lock()
	}
	s.n++
	s.mu.Unlock()
}

// Runner is the worker event-loop pattern: lock and unlock within
// each iteration of an unconditional loop.
func (s *Store) Runner(stop chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		s.mu.Lock()
		s.n++
		s.mu.Unlock()
	}
}

// process consumes goroutine work.
func process(int) {}

// Spawn launches goroutines that all share the outer variable the loop
// keeps reassigning.
func Spawn(work []int) {
	var w int
	for _, x := range work {
		w = x
		go func() {
			process(w) // want locksafe
		}()
	}
}

// SpawnEach uses the per-iteration range variable, which every
// goroutine captures independently.
func SpawnEach(work []int) {
	for _, x := range work {
		go process(x)
	}
}
