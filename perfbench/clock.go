package main

import (
	"fmt"
	"os"
	"time"
)

// The benchmark times the program from outside, so unlike simulation
// code it reads the host clock. These helpers are the only place it
// does, which keeps flovlint's nondeterm and reach rules (written for
// simulation packages) acknowledged once.

// now reads the host wall clock.
func now() time.Time {
	return time.Now() //flovlint:allow nondeterm,reach -- the benchmark measures host time, never simulated time
}

// since is the host time elapsed since t.
func since(t time.Time) time.Duration { return now().Sub(t) }

// pause sleeps for d of host time while polling a child process.
func pause(d time.Duration) {
	time.Sleep(d) //flovlint:allow nondeterm -- polling flovd, outside any simulation
}

// removeAll deletes a scratch directory; a failure only leaves files
// in the build directory, so it is reported and the run goes on.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}
