package cluster

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"flov/internal/sweep"
)

// The store's readers parse bytes other processes wrote: row logs,
// event feeds and leases from any worker on a shared directory, torn at
// any byte by a crash. Their contract is to skip or reject, never to
// panic, and never to adopt what fails validation. Committed seeds live
// in testdata/fuzz/<target>; CI fuzzes each target for a bounded time.

// fuzzPoints is the point list the row fuzzer pins rows to.
func fuzzPoints(t testing.TB) []sweep.Job {
	t.Helper()
	points, err := testSpec(0.1, 0.2).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	return points
}

// rowLine encodes a row the way AppendRow writes it.
func rowLine(t testing.TB, point int, r sweep.Result) []byte {
	t.Helper()
	line, err := json.Marshal(rowRecord{Point: point, Epoch: 1, Result: &r})
	if err != nil {
		t.Fatal(err)
	}
	return append(line, '\n')
}

// FuzzRows: the row reader adopts only clean rows pinned to their
// point's hash, tolerates any torn tail, and resolves duplicates
// last-write-wins.
func FuzzRows(f *testing.F) {
	points := fuzzPoints(f)
	good := rowLine(f, 0, sweep.Result{Job: points[0]})
	f.Add([]byte{})
	f.Add(good)
	f.Add(append(append([]byte{}, good...), good[:len(good)/2]...))
	f.Add(rowLine(f, 1, sweep.Result{Job: points[0]})) // wrong point
	f.Add(rowLine(f, 0, sweep.Result{Job: points[0], Err: "x"}))
	f.Add([]byte("{\"point\":-1}\n\n{\"point\":99,\"result\":{}}\nnot json\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for point, r := range decodeRows(data, points) {
			if point < 0 || point >= len(points) {
				t.Fatalf("adopted row for out-of-range point %d", point)
			}
			if r.Err != "" {
				t.Fatalf("adopted error row for point %d", point)
			}
			if r.Job.Hash() != points[point].Hash() {
				t.Fatalf("adopted row for point %d that does not hash to it", point)
			}
		}
		// A complete record appended after any prefix wins for its point.
		last := sweep.Result{Job: points[1]}
		last.Res.AvgLatency = 42
		withLast := append(append(append([]byte{}, data...), '\n'), rowLine(t, 1, last)...)
		if got, ok := decodeRows(withLast, points)[1]; !ok || got.Res.AvgLatency != 42 {
			t.Fatalf("last write lost after prefix %q", data)
		}
	})
}

// FuzzEvents: the feed splitter only ever yields complete lines and
// withholds a torn tail, so appending bytes never changes the lines
// already read — line i is line i forever.
func FuzzEvents(f *testing.F) {
	f.Add([]byte{}, []byte("{\"type\":\"accepted\"}\n"))
	f.Add([]byte("{\"type\":\"accepted\"}\n{\"type\":\"poi"), []byte("nt\"}\n"))
	f.Add([]byte("\n\n  \n{\"type\":\"claimed\"}\n"), []byte("garbage"))
	f.Fuzz(func(t *testing.T, data, more []byte) {
		lines, consumed := splitFeed(data)
		if consumed < 0 || consumed > len(data) {
			t.Fatalf("consumed %d of %d bytes", consumed, len(data))
		}
		if bytes.IndexByte(data[consumed:], '\n') >= 0 {
			t.Fatal("a complete line was left unread")
		}
		for _, line := range lines {
			if bytes.IndexByte(line, '\n') >= 0 || len(bytes.TrimSpace(line)) == 0 {
				t.Fatalf("yielded a partial or blank line %q", line)
			}
		}
		grown, _ := splitFeed(append(append([]byte{}, data...), more...))
		if len(grown) < len(lines) {
			t.Fatalf("appending shrank the feed from %d to %d lines", len(lines), len(grown))
		}
		for i := range lines {
			if !bytes.Equal(grown[i], lines[i]) {
				t.Fatalf("line %d changed after an append: %q -> %q", i, lines[i], grown[i])
			}
		}
		// Resuming from the consumed offset yields exactly the new lines.
		tail, _ := splitFeed(append(append([]byte{}, data[consumed:]...), more...))
		if len(lines)+len(tail) != len(grown) {
			t.Fatalf("resumed read saw %d lines, want %d", len(tail), len(grown)-len(lines))
		}
	})
}

// FuzzLease: a lease file that does not decode reads as expired, so its
// job stays claimable instead of wedging behind garbage.
func FuzzLease(f *testing.F) {
	valid, err := json.Marshal(leaseWire{Job: "j1", Epoch: 3, Worker: "w", ExpiresMS: 1 << 50})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("{torn"))
	f.Add([]byte(`{"expires_ms":"soon"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		w := decodeLease("j1", 3, data)
		var probe leaseWire
		if json.Unmarshal(data, &probe) != nil {
			info := LeaseInfo{Job: w.Job, Epoch: w.Epoch, ExpiresMS: w.ExpiresMS}
			if !info.Expired(time.Now()) || w.Job != "j1" || w.Epoch != 3 {
				t.Fatalf("undecodable lease %q read as %+v, want expired j1/3", data, w)
			}
		}
	})
}
