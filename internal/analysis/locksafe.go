package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockSafeAnalyzer enforces the serving layer's mutex discipline in
// internal/cluster and internal/nlog (the only concurrent packages;
// the simulator core is single-threaded by design):
//
//   - every return path of a function that takes a lock releases it
//     (directly or via defer) — a forgotten unlock on an early error
//     return deadlocks the job plane under load, the kind of bug that
//     only fires when a 429/cancel path is actually exercised;
//   - no channel send, in-module interface method call, or call through
//     a function value while a lock is held: the callee can block
//     indefinitely or re-enter the lock (observer callbacks must be
//     invoked after unlocking, as Store.notify's wake-channel close —
//     which cannot block — is the one sanctioned pattern);
//   - no goroutine launched inside a loop may capture a variable that
//     the loop reassigns but declared outside it: all iterations share
//     one binding, so the goroutines race on it.
//
// The walker is structural, not a full CFG: branches merge
// conservatively (a lock held on either arm counts as held after), and
// loop bodies are walked once. That over-approximates "held", which is
// the safe direction for a linter with per-line suppressions.
var LockSafeAnalyzer = &Analyzer{
	Name: "locksafe",
	Doc:  "enforce unlock-on-every-path and no blocking calls under locks in cluster/nlog",
	Run:  runLockSafe,
}

// lockSafeScope lists the import-path prefixes the analyzer covers.
var lockSafeScope = []string{
	"flov/internal/cluster",
	"flov/internal/nlog",
}

func runLockSafe(p *Pass) {
	inScope := false
	for _, prefix := range lockSafeScope {
		if p.Path == prefix || strings.HasPrefix(p.Path, prefix+"/") {
			inScope = true
			break
		}
	}
	if !inScope {
		return
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			p.checkLockDiscipline(fd.Body)
			p.checkGoLoopCapture(fd.Body)
		}
	}
}

// checkLockDiscipline analyzes one function body plus each of its
// closures as an independent unit (a closure runs on its own goroutine
// or at an unknown later time, so lock state does not flow into it).
func (p *Pass) checkLockDiscipline(body *ast.BlockStmt) {
	w := &lockWalker{p: p}
	units := []*ast.BlockStmt{body}
	for _, fl := range funcLitsOf(body) {
		units = append(units, fl.Body)
	}
	for _, unit := range units {
		st := newLockState()
		if terminated := w.stmts(unit.List, st, unit); !terminated {
			w.reportHeld(st, unit.End()-1, "function ends")
		}
	}
}

// lockState tracks which lock expressions are held at a program point.
type lockState struct {
	held     map[string]token.Pos // lock key -> acquisition site
	deferred map[string]bool      // keys with a pending deferred unlock
}

func newLockState() *lockState {
	return &lockState{held: make(map[string]token.Pos), deferred: make(map[string]bool)}
}

func (st *lockState) clone() *lockState {
	c := newLockState()
	for k, v := range st.held {
		c.held[k] = v
	}
	for k, v := range st.deferred {
		c.deferred[k] = v
	}
	return c
}

// merge unions other into st: held-anywhere is held (the conservative
// direction for every check this walker does).
func (st *lockState) merge(other *lockState) {
	for k, v := range other.held {
		if _, ok := st.held[k]; !ok {
			st.held[k] = v
		}
	}
	for k, v := range other.deferred {
		if v {
			st.deferred[k] = true
		}
	}
}

// heldKeys returns the held lock keys in sorted order.
func (st *lockState) heldKeys() []string {
	var keys []string
	for k := range st.held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

type lockWalker struct {
	p *Pass
}

// stmts walks a statement list; the boolean reports whether control
// cannot fall out the end (return, panic-free termination not modeled).
// encl is the innermost enclosing block, used to skip closures.
func (w *lockWalker) stmts(list []ast.Stmt, st *lockState, encl ast.Node) bool {
	for _, s := range list {
		if w.stmt(s, st, encl) {
			return true
		}
	}
	return false
}

func (w *lockWalker) stmt(s ast.Stmt, st *lockState, encl ast.Node) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if key, op, ok := w.lockOp(call); ok {
				w.applyLockOp(st, key, op, call.Pos())
				return false
			}
		}
		w.scanCalls(s, st)
	case *ast.DeferStmt:
		if key, op, ok := w.lockOp(s.Call); ok && op == opRelease {
			if _, held := st.held[key]; !held {
				w.p.Reportf(s.Pos(), "deferred unlock of %s, which is not held here", key)
			}
			st.deferred[key] = true
			return false
		}
		// Other deferred calls run at return, outside the held window
		// this walker models; skip them.
	case *ast.ReturnStmt:
		w.scanCalls(s, st)
		w.reportHeld(st, s.Pos(), "returns")
		return true
	case *ast.BranchStmt:
		// break/continue/goto leave the enclosing construct; treat as
		// terminating this path (the loop re-walk covers the rest).
		return true
	case *ast.BlockStmt:
		return w.stmts(s.List, st, encl)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, st, encl)
		}
		w.scanCalls(s.Cond, st)
		thenSt := st.clone()
		thenTerm := w.stmts(s.Body.List, thenSt, encl)
		elseSt := st.clone()
		elseTerm := false
		if s.Else != nil {
			elseTerm = w.stmt(s.Else, elseSt, encl)
		}
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			*st = *elseSt
		case elseTerm:
			*st = *thenSt
		default:
			*st = *thenSt
			st.merge(elseSt)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, st, encl)
		}
		bodySt := st.clone()
		w.stmts(s.Body.List, bodySt, encl)
		// The body may run zero times: continue from the entry state.
		// An unconditional loop with no break never falls through.
		if s.Cond == nil && !hasShallowBreak(s.Body) {
			return true
		}
	case *ast.RangeStmt:
		bodySt := st.clone()
		w.stmts(s.Body.List, bodySt, encl)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.branching(s, st, encl)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st, encl)
	case *ast.GoStmt:
		// Runs on another goroutine: its body is analyzed as a separate
		// unit; launching it does not touch this goroutine's locks.
	case *ast.SendStmt:
		w.reportBlocked(st, s.Pos(), "channel send")
		w.scanCalls(s, st)
	default:
		w.scanCalls(s, st)
	}
	return false
}

// branching handles switch/type-switch/select uniformly: every clause
// starts from the entry state; exits merge conservatively.
func (w *lockWalker) branching(s ast.Stmt, st *lockState, encl ast.Node) bool {
	var body *ast.BlockStmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, st, encl)
		}
		w.scanCalls(s.Tag, st)
		body = s.Body
	case *ast.TypeSwitchStmt:
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
	}
	entry := st.clone()
	merged := (*lockState)(nil)
	allTerm := true
	for _, cs := range body.List {
		var list []ast.Stmt
		switch cs := cs.(type) {
		case *ast.CaseClause:
			if cs.List == nil {
				hasDefault = true
			}
			for _, e := range cs.List {
				w.scanCalls(e, entry)
			}
			list = cs.Body
		case *ast.CommClause:
			if cs.Comm == nil {
				hasDefault = true
			} else {
				if send, ok := cs.Comm.(*ast.SendStmt); ok {
					w.reportBlocked(entry, send.Pos(), "channel send")
				}
			}
			list = cs.Body
		}
		caseSt := entry.clone()
		if !w.stmts(list, caseSt, encl) {
			allTerm = false
			if merged == nil {
				merged = caseSt
			} else {
				merged.merge(caseSt)
			}
		}
	}
	if _, isSelect := s.(*ast.SelectStmt); (hasDefault || isSelect) && allTerm && len(body.List) > 0 {
		// A select always takes some case; a switch needs a default to
		// guarantee one runs.
		return true
	}
	if merged != nil {
		st.merge(merged)
	}
	return false
}

// lock operation kinds.
const (
	opAcquire = iota
	opRelease
)

// lockOp recognizes x.Lock/RLock/Unlock/RUnlock calls on sync types and
// returns the lock's identity key (the receiver expression's text).
func (w *lockWalker) lockOp(call *ast.CallExpr) (string, int, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", 0, false
	}
	fn, ok := w.p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", 0, false
	}
	key := types.ExprString(sel.X)
	switch sel.Sel.Name {
	case "Lock", "RLock":
		return key, opAcquire, true
	case "Unlock", "RUnlock":
		return key, opRelease, true
	}
	return "", 0, false
}

func (w *lockWalker) applyLockOp(st *lockState, key string, op int, pos token.Pos) {
	switch op {
	case opAcquire:
		if prev, held := st.held[key]; held && !st.deferred[key] {
			w.p.Reportf(pos, "%s locked again while already held (locked at %s)", key, w.p.Fset.Position(prev))
		}
		st.held[key] = pos
	case opRelease:
		if _, held := st.held[key]; !held && !st.deferred[key] {
			w.p.Reportf(pos, "%s unlocked but not held on this path", key)
		}
		delete(st.held, key)
		delete(st.deferred, key)
	default:
	}
}

// reportHeld flags locks still held (and not deferred-released) at a
// path exit.
func (w *lockWalker) reportHeld(st *lockState, pos token.Pos, how string) {
	for _, key := range st.heldKeys() {
		if st.deferred[key] {
			continue
		}
		w.p.Reportf(pos, "%s with %s held (locked at %s); unlock on every path or defer the unlock",
			how, key, w.p.Fset.Position(st.held[key]))
	}
}

// reportBlocked flags a potentially blocking operation under any held
// lock, deferred or not.
func (w *lockWalker) reportBlocked(st *lockState, pos token.Pos, what string) {
	for _, key := range st.heldKeys() {
		w.p.Reportf(pos, "%s while holding %s (locked at %s); release the lock first",
			what, key, w.p.Fset.Position(st.held[key]))
	}
}

// scanCalls inspects a node (skipping nested closures) for calls that
// can block or re-enter while a lock is held: calls through function
// values and in-module interface methods.
func (w *lockWalker) scanCalls(node ast.Node, st *lockState) {
	if node == nil || len(st.held) == 0 {
		return
	}
	ast.Inspect(node, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if what, ok := w.blockingCallee(call); ok {
			w.reportBlocked(st, call.Pos(), what)
		}
		return true
	})
}

// blockingCallee classifies a call as one that may block or re-enter:
// a call through a func-typed value, or an in-module interface method.
func (w *lockWalker) blockingCallee(call *ast.CallExpr) (string, bool) {
	info := w.p.Info
	fun := ast.Unparen(call.Fun)
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return "", false // conversion
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		obj := info.Uses[fun]
		if v, ok := obj.(*types.Var); ok && isFuncType(v.Type()) {
			return "call through function value " + fun.Name, true
		}
	case *ast.SelectorExpr:
		if s, ok := info.Selections[fun]; ok {
			switch s.Kind() {
			case types.FieldVal:
				if isFuncType(s.Type()) {
					return "call through function-valued field " + types.ExprString(fun), true
				}
			case types.MethodVal:
				if _, isIface := s.Recv().Underlying().(*types.Interface); !isIface {
					return "", false
				}
				if named, ok := s.Recv().(*types.Named); ok {
					obj := named.Obj()
					if obj.Pkg() != nil && w.p.InModule(obj.Pkg().Path()) {
						return "interface method call " + types.ExprString(fun), true
					}
				}
			default:
			}
		}
	}
	return "", false
}

// isFuncType reports whether t is (under the hood) a function type.
func isFuncType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Signature)
	return ok
}

// hasShallowBreak reports whether body contains a break that targets
// the enclosing loop (i.e. not inside a nested loop/switch/select,
// which consume unlabeled breaks).
func hasShallowBreak(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.FuncLit:
			return false
		case *ast.BranchStmt:
			// A labeled break can target the enclosing loop from
			// anywhere; assume it does (conservative: loop may exit).
			if n.Tok == token.BREAK {
				found = true
			}
		}
		return true
	})
	return found
}

// checkGoLoopCapture flags goroutines launched inside a loop that
// capture a variable the loop reassigns but which is declared outside
// the loop: all iterations share one binding, so every goroutine reads
// whatever the loop wrote last (and races with the writes).
func (p *Pass) checkGoLoopCapture(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		var loopBody *ast.BlockStmt
		switch loop := n.(type) {
		case *ast.ForStmt:
			loopBody = loop.Body
		case *ast.RangeStmt:
			loopBody = loop.Body
		default:
			return true
		}
		loop := n
		assigned := loopAssignedOuterVars(p, loop)
		if len(assigned) == 0 {
			return true
		}
		ast.Inspect(loopBody, func(inner ast.Node) bool {
			gs, ok := inner.(*ast.GoStmt)
			if !ok {
				return true
			}
			ast.Inspect(gs.Call, func(c ast.Node) bool {
				ident, ok := c.(*ast.Ident)
				if !ok {
					return true
				}
				if v, ok := p.Info.Uses[ident].(*types.Var); ok && assigned[v] {
					p.Reportf(ident.Pos(), "goroutine captures %s, which the enclosing loop reassigns; pass it as an argument or declare it inside the loop", ident.Name)
				}
				return true
			})
			return true
		})
		return true
	})
}

// loopAssignedOuterVars collects variables assigned inside the loop
// (including its range/for clause) whose declarations lie outside it.
func loopAssignedOuterVars(p *Pass, loop ast.Node) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	note := func(e ast.Expr) {
		ident, ok := e.(*ast.Ident)
		if !ok {
			return
		}
		v, ok := p.Info.Uses[ident].(*types.Var)
		if !ok {
			return
		}
		if v.Pos() < loop.Pos() || v.Pos() >= loop.End() {
			out[v] = true
		}
	}
	ast.Inspect(loop, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				note(lhs)
			}
		case *ast.IncDecStmt:
			note(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				note(n.Key)
				note(n.Value)
			}
		}
		return true
	})
	return out
}
