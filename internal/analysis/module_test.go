package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// loadEvasionModule loads the three evasion fixture packages — the
// restricted entry point, the cross-package helper, and the wall-clock
// implementation mounted under an allowlisted sweep path — and wraps
// them as a Module rooted at the fixture's Sim.Step.
func loadEvasionModule(t *testing.T) (*Module, []*Package) {
	t.Helper()
	loader := newDirLoader(t, map[string]string{
		"flov/internal/evasion/entry":  filepath.Join("evasion", "entry"),
		"flov/internal/evasion/helper": filepath.Join("evasion", "helper"),
		"flov/cmd/evclock":             filepath.Join("evasion", "wallclock"),
	})
	var pkgs []*Package
	for _, path := range []string{"flov/internal/evasion/entry", "flov/cmd/evclock"} {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	m := NewModule(loader.ModulePath, loader.Fset, loader.Packages())
	m.Roots = []RootSpec{{Pkg: "flov/internal/evasion/entry", Recv: "Sim", Func: "Step"}}
	return m, pkgs
}

// TestReachFlagsEvasionFixture is the seeded-evasion acceptance test:
// time.Now hidden behind an interface in an allowlisted package, called
// through a cross-package helper, is invisible to the per-package
// nondeterm rule but must be flagged by reach with the full call chain.
func TestReachFlagsEvasionFixture(t *testing.T) {
	m, pkgs := loadEvasionModule(t)

	// The old analyzer sees nothing anywhere in the fixture.
	for _, pkg := range pkgs {
		for _, d := range RunPackage(pkg, []*Analyzer{NondetAnalyzer}) {
			t.Errorf("nondeterm should be blind to the evasion fixture, got: %s", d)
		}
	}

	diags := RunModule(m, []*ModuleAnalyzer{ReachAnalyzer})
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 reach finding, got %d: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Rule != "reach" {
		t.Fatalf("want rule reach, got %s", d.Rule)
	}
	if filepath.Base(d.Pos.Filename) != "wallclock.go" {
		t.Errorf("finding should sit at the time.Now use in wallclock.go, got %s", d.Pos)
	}
	wantChain := "entry.(*Sim).Step -> helper.Advance -> evclock.SysClock.Ticks"
	if !strings.Contains(d.Msg, "time.Now is reachable from entry point flov/internal/evasion/entry.Sim.Step") {
		t.Errorf("message lacks source and root: %s", d.Msg)
	}
	if !strings.Contains(d.Msg, wantChain) {
		t.Errorf("message lacks call chain %q: %s", wantChain, d.Msg)
	}
}

// TestCallGraphEvasionEdges pins the graph structure the reach proof
// rests on: a direct call edge into the helper and an interface
// dispatch edge to the module's lone implementation.
func TestCallGraphEvasionEdges(t *testing.T) {
	m, _ := loadEvasionModule(t)
	g := m.Graph()

	step := findRoot(g, m.Roots[0])
	if step == nil {
		t.Fatal("Sim.Step not in graph")
	}
	if len(step.Callees) != 1 || funcDisplay(step.Callees[0].Callee.Fn) != "helper.Advance" {
		t.Fatalf("Step should call exactly helper.Advance, got %v", step.Callees)
	}
	adv := step.Callees[0].Callee
	if len(adv.Callees) != 1 {
		t.Fatalf("Advance should have exactly one dispatch edge, got %v", adv.Callees)
	}
	edge := adv.Callees[0]
	if funcDisplay(edge.Callee.Fn) != "evclock.SysClock.Ticks" {
		t.Errorf("dispatch should land on SysClock.Ticks, got %s", funcDisplay(edge.Callee.Fn))
	}
	if !strings.HasPrefix(edge.Via, "dispatch on ") {
		t.Errorf("edge should be an interface dispatch, got via %q", edge.Via)
	}
	if len(edge.Callee.Sources) != 1 || edge.Callee.Sources[0].What != "time.Now" {
		t.Errorf("Ticks should record the time.Now source, got %v", edge.Callee.Sources)
	}
}

// TestReachUnresolvedRoot checks that a stale root spec over a loaded
// package fails loudly instead of silently proving nothing.
func TestReachUnresolvedRoot(t *testing.T) {
	m, _ := loadEvasionModule(t)
	m.Roots = []RootSpec{{Pkg: "flov/internal/evasion/entry", Recv: "Sim", Func: "Gone"}}
	diags := RunModule(m, []*ModuleAnalyzer{ReachAnalyzer})
	if len(diags) != 1 || !strings.Contains(diags[0].Msg, "not found") {
		t.Fatalf("want one not-found diagnostic, got %v", diags)
	}
}

// TestParseRoot covers both accepted spellings and the error case.
func TestParseRoot(t *testing.T) {
	r, err := ParseRoot("flov/internal/network.Network.Step")
	if err != nil {
		t.Fatal(err)
	}
	want := RootSpec{Pkg: "flov/internal/network", Recv: "Network", Func: "Step"}
	if r != want {
		t.Errorf("got %+v, want %+v", r, want)
	}
	if r.String() != "flov/internal/network.Network.Step" {
		t.Errorf("String round-trip broke: %s", r.String())
	}

	r, err = ParseRoot("flov/internal/routing.YX")
	if err != nil {
		t.Fatal(err)
	}
	if (r != RootSpec{Pkg: "flov/internal/routing", Func: "YX"}) {
		t.Errorf("plain function spec parsed wrong: %+v", r)
	}

	if _, err := ParseRoot("flov/internal/network.A.B.C"); err == nil {
		t.Error("four-part spec should be rejected")
	}
}

// TestDefaultReachRootsResolve loads the real simulator packages and
// checks every built-in root still names a live function — the guard
// against the root list rotting as the code moves.
func TestDefaultReachRootsResolve(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range DefaultReachRoots() {
		if _, err := loader.Load(spec.Pkg); err != nil {
			t.Fatal(err)
		}
	}
	m := NewModule(loader.ModulePath, loader.Fset, loader.Packages())
	g := m.Graph()
	for _, spec := range DefaultReachRoots() {
		if findRoot(g, spec) == nil {
			t.Errorf("default root %s does not resolve", spec)
		}
	}
}

// TestLockSafeFixture checks the locksafe rule against its dedicated
// fixture, mounted inside the analyzer's job-plane scope.
func TestLockSafeFixture(t *testing.T) {
	const path = "flov/internal/cluster/fixture"
	loader := newDirLoader(t, map[string]string{path: "locks_serving"})
	pkg, err := loader.Load(path)
	if err != nil {
		t.Fatal(err)
	}

	got := make(map[finding]int)
	for _, d := range RunPackage(pkg, []*Analyzer{LockSafeAnalyzer}) {
		got[finding{filepath.Base(d.Pos.Filename), d.Pos.Line, d.Rule}]++
	}
	dir, err := filepath.Abs(filepath.Join("testdata", "locks_serving"))
	if err != nil {
		t.Fatal(err)
	}
	want := wantFindings(t, dir)
	for f, n := range want {
		if got[f] != n {
			t.Errorf("%s:%d: want %d %s finding(s), got %d", f.file, f.line, n, f.rule, got[f])
		}
	}
	for f, n := range got {
		if want[f] == 0 {
			t.Errorf("%s:%d: unexpected %s finding (x%d)", f.file, f.line, f.rule, n)
		}
	}
}

// TestLockSafeOutOfScope reloads the same fixture outside the cluster
// and nlog scope: the analyzer must not run there.
func TestLockSafeOutOfScope(t *testing.T) {
	const path = "flov/internal/fixture2"
	loader := newDirLoader(t, map[string]string{path: "locks_serving"})
	pkg, err := loader.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range RunPackage(pkg, []*Analyzer{LockSafeAnalyzer}) {
		t.Errorf("locksafe ran outside its scope: %s", d)
	}
}
