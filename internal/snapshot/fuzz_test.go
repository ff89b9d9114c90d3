package snapshot

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flov/internal/config"
	"flov/internal/noc"
)

// Checkpoint snapshots cross process boundaries: flovd workers resume
// jobs from snapshots other workers wrote. Restore's contract on corrupt
// input is to return an error, never to panic. A restore allocates
// every captured packet into the receiving network's arena, so bad
// packet indices, flit fields or orphan packets must all be caught by
// validation first. Committed seeds (mid-run
// Baseline and gFLOV captures) live in testdata/fuzz/FuzzSnapshotRestore;
// CI fuzzes the target for a bounded time.

// fuzzMechs are the mechanisms of the committed seed captures; each
// input is restored onto a fresh network of each.
var fuzzMechs = []config.Mechanism{config.Baseline, config.GFLOV}

// reseal recomputes every section CRC of a snapshot container whose
// framing still parses, so a mutated payload reaches the decoder and
// the restore instead of stopping at the CRC check. It returns nil when
// the framing does not parse.
func reseal(data []byte) []byte {
	out := append([]byte(nil), data...)
	pos := len(magic) + 4
	if len(out) < pos {
		return nil
	}
	field := func() (int, bool) {
		n, k := binary.Uvarint(out[pos:])
		if k <= 0 || n > uint64(len(out)-pos-k) {
			return 0, false
		}
		pos += k
		return int(n), true
	}
	n, ok := field() // schema
	if !ok {
		return nil
	}
	pos += n
	for pos < len(out) {
		if n, ok = field(); !ok { // section name
			return nil
		}
		pos += n
		if n, ok = field(); !ok || len(out)-pos-n < 4 { // payload and CRC
			return nil
		}
		binary.LittleEndian.PutUint32(out[pos+n:], crc32.ChecksumIEEE(out[pos:pos+n]))
		pos += n + 4
	}
	return out
}

// FuzzSnapshotRestore: restoring arbitrary bytes, raw or with their
// section CRCs repaired, onto a freshly built network returns an error
// or succeeds; it never panics.
func FuzzSnapshotRestore(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if sealed := reseal(data); sealed != nil && !bytes.Equal(sealed, data) {
			inputs = append(inputs, sealed)
		}
		for _, in := range inputs {
			for _, mech := range fuzzMechs {
				n := buildSynthetic(t, testConfig(), mech)
				_ = Restore(bytes.NewReader(in), n, nil)
			}
		}
	})
}

// updateGolden rewrites the committed seed captures, like the root
// package's -update rewrites its golden files.
var updateGolden = flag.Bool("update", false, "rewrite testdata/fuzz/FuzzSnapshotRestore seed captures")

// TestFuzzSeedsCurrent keeps the committed seed captures honest: each is
// the snapshot of its mechanism's fixture at cycle 700, as this build
// writes it, and restores cleanly, so the fuzzer starts from inputs that
// reach the deep end of Restore. Regenerate them with -update
// after a change to the snapshot encoding.
func TestFuzzSeedsCurrent(t *testing.T) {
	for _, mech := range fuzzMechs {
		n := buildSynthetic(t, testConfig(), mech)
		n.RunTo(700)
		var buf bytes.Buffer
		if err := Save(&buf, n, nil); err != nil {
			t.Fatal(err)
		}
		if sealed := reseal(buf.Bytes()); !bytes.Equal(sealed, buf.Bytes()) {
			t.Fatalf("%v: reseal changed an intact snapshot", mech)
		}
		fresh := buildSynthetic(t, testConfig(), mech)
		if err := Restore(bytes.NewReader(buf.Bytes()), fresh, nil); err != nil {
			t.Fatalf("%v: %v", mech, err)
		}
		if fresh.Pkts.Live() != n.Pkts.Live() {
			t.Fatalf("%v: restored arena holds %d packets, original %d", mech, fresh.Pkts.Live(), n.Pkts.Live())
		}

		path := filepath.Join("testdata", "fuzz", "FuzzSnapshotRestore", "midrun-"+strings.ToLower(mech.String()))
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", buf.Bytes())
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if string(got) != want {
			t.Fatalf("%s is stale (regenerate with -update)", path)
		}
	}
}

// TestRestoreRejectsOutOfRangeState pins fuzzer findings: captured
// values that would index past a router's masks or truncate a flit
// field are rejected with an error before anything is applied.
func TestRestoreRejectsOutOfRangeState(t *testing.T) {
	src := buildSynthetic(t, testConfig(), config.Baseline)
	src.RunTo(700)
	for name, corrupt := range map[string]func(st *State){
		"vc state":   func(st *State) { st.Net.Routers[0].In[0][0].State = 74 },
		"vc route":   func(st *State) { st.Net.Routers[0].In[0][0].OutDir = -1 },
		"output vc":  func(st *State) { st.Net.Routers[0].In[0][0].OutVC = 99 },
		"flit vc":    func(st *State) { firstFlit(t, st).VC = 300 },
		"flit seq":   func(st *State) { firstFlit(t, st).Seq = 70000 },
		"packet ref": func(st *State) { firstFlit(t, st).Pkt = len(st.Packets) },
		"orphan":     func(st *State) { st.Packets = append(st.Packets, st.Packets[0]) },
	} {
		st, err := Capture(src, nil)
		if err != nil {
			t.Fatal(err)
		}
		corrupt(st)
		dst := buildSynthetic(t, testConfig(), config.Baseline)
		if err := st.apply(dst, nil); err == nil {
			t.Errorf("%s: corrupt state restored without error", name)
		}
	}
}

// firstFlit returns the first flit on any link queue of a capture.
func firstFlit(t *testing.T, st *State) *noc.FlitState {
	t.Helper()
	for qi := range st.Chans.Flits {
		if items := st.Chans.Flits[qi].Items; len(items) > 0 {
			return &items[0].F
		}
	}
	t.Fatal("capture has no flit in flight")
	return nil
}
