package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// LockOrder builds a global lock-ordering graph: it recomputes, for every
// function, the mutexes its Lock calls acquire (the calls lockcheck balances
// per function), closes those sets over the call graph, and adds an edge A→B
// wherever some execution acquires mutex B while holding mutex A, either
// directly in one function or by calling (to any interprocedural depth,
// across packages) a function that may acquire B. A cycle in that graph is a
// potential deadlock — two goroutines entering the cycle from different
// points can block each other forever — and is reported once per cycle at
// the edge that closes it.
//
// Mutexes are identified by their declaration site (pkg.Type.field for
// struct fields, pkg.var for package-level mutexes), so the same field
// reached through different receivers unifies and the analysis spans
// packages. Locks on local variables and self-edges (re-acquiring the same
// identity, which lockcheck's caller-managed convention legitimizes) are
// excluded. Goroutine spawns are not followed: a `go` statement starts a new
// lock context.
func LockOrder() *Analyzer {
	return &Analyzer{
		Name: "lockorder",
		Doc:  "the global lock-ordering graph across packages must be acyclic (deadlock freedom)",
		Run:  runLockOrder,
	}
}

func runLockOrder(pass *Pass) {
	lo := &lockOrder{
		pass:  pass,
		acq:   make(map[*types.Func]map[string]bool),
		edges: make(map[string]map[string]*lockEdge),
	}
	lo.collectAcquisitions()
	for _, n := range pass.Graph.NodesSorted() {
		lo.walkFunc(n)
	}
	lo.reportCycles()
}

type lockEdge struct {
	from, to string
	pos      token.Pos
	via      string // callee display name for interprocedural edges, "" for direct
}

type lockOrder struct {
	pass *Pass
	// acq maps each function to the set of lock identities it may acquire,
	// transitively through call and dispatch edges.
	acq   map[*types.Func]map[string]bool
	edges map[string]map[string]*lockEdge
}

// lockIdentity resolves the mutex expression of a Lock/Unlock call to a
// stable cross-package identity, or "" when the mutex is a local variable
// (which cannot participate in cross-function ordering).
func lockIdentity(info *types.Info, expr ast.Expr) string {
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			v, ok := sel.Obj().(*types.Var)
			if !ok || !v.IsField() {
				return ""
			}
			recv := sel.Recv()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			named, ok := recv.(*types.Named)
			if !ok || named.Obj().Pkg() == nil {
				return ""
			}
			return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + v.Name()
		}
		// Package-qualified: pkg.Mu
		if v, ok := info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	case *ast.Ident:
		v, ok := info.Uses[e].(*types.Var)
		if !ok || v.Pkg() == nil {
			return ""
		}
		if v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	}
	return ""
}

// collectAcquisitions computes, for every function, the set of lock
// identities it may acquire, then closes the sets over call and dispatch
// edges with a worklist fixpoint (goroutine spawns excluded: locks taken on
// another goroutine are not held by the caller).
func (lo *lockOrder) collectAcquisitions() {
	nodes := lo.pass.Graph.NodesSorted()
	for _, n := range nodes {
		set := make(map[string]bool)
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			if op, ok := classifyMutexCall(n.Unit.Info, call); ok && op.isLock {
				sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if id := lockIdentity(n.Unit.Info, sel.X); id != "" {
					set[id] = true
				}
			}
			return true
		})
		lo.acq[n.Func] = set
	}
	changed := true
	for changed {
		changed = false
		for _, n := range nodes {
			set := lo.acq[n.Func]
			for _, e := range n.Out {
				if e.Kind != EdgeCall && e.Kind != EdgeDispatch {
					continue
				}
				for id := range lo.acq[e.To] {
					if !set[id] {
						set[id] = true
						changed = true
					}
				}
			}
		}
	}
}

// walkFunc simulates one function body in source order, tracking the held
// set and emitting ordering edges at every acquisition and at every call
// into a function that may acquire.
func (lo *lockOrder) walkFunc(n *Node) {
	held := []string{} // acquisition-ordered
	lo.walkStmts(n, n.Decl.Body, &held)
}

func (lo *lockOrder) walkStmts(n *Node, body ast.Node, held *[]string) {
	ast.Inspect(body, func(x ast.Node) bool {
		if _, ok := spawnedCall(n.Unit.Info, x); ok {
			return false // new goroutine: caller's held set does not transfer
		}
		switch st := x.(type) {
		case *ast.FuncLit:
			return false // separate lock context (callbacks, deferred closures)
		case *ast.DeferStmt:
			return false // runs at return; does not release mid-body
		case *ast.CallExpr:
			lo.callSite(n, st, held)
			return true
		}
		return true
	})
}

func (lo *lockOrder) callSite(n *Node, call *ast.CallExpr, held *[]string) {
	info := n.Unit.Info
	if op, ok := classifyMutexCall(info, call); ok {
		sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		id := lockIdentity(info, sel.X)
		if id == "" {
			return
		}
		if op.isLock {
			for _, h := range *held {
				lo.addEdge(h, id, call.Pos(), "")
			}
			if !slices.Contains(*held, id) {
				*held = append(*held, id)
			}
		} else {
			*held = slices.DeleteFunc(*held, func(h string) bool { return h == id })
		}
		return
	}
	if len(*held) == 0 {
		return
	}
	// A call made while holding locks orders everything the callee may
	// acquire after everything currently held.
	fn := calleeFunc(info, call)
	if fn == nil {
		return
	}
	targets := []*types.Func{fn}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil &&
		types.IsInterface(sig.Recv().Type()) {
		targets = lo.dispatchTargets(n, call.Pos())
	}
	for _, t := range targets {
		for id := range lo.acq[t] {
			for _, h := range *held {
				lo.addEdge(h, id, call.Pos(), FuncDisplay(t))
			}
		}
	}
}

// dispatchTargets returns the concrete callees the graph recorded for the
// dispatch edges at pos.
func (lo *lockOrder) dispatchTargets(n *Node, pos token.Pos) []*types.Func {
	var out []*types.Func
	for _, e := range n.Out {
		if e.Pos == pos && (e.Kind == EdgeDispatch || e.Kind == EdgeCall) {
			out = append(out, e.To)
		}
	}
	return out
}

func (lo *lockOrder) addEdge(from, to string, pos token.Pos, via string) {
	if from == to {
		return
	}
	m := lo.edges[from]
	if m == nil {
		m = make(map[string]*lockEdge)
		lo.edges[from] = m
	}
	if m[to] == nil {
		m[to] = &lockEdge{from: from, to: to, pos: pos, via: via}
	}
}

// reportCycles finds cycles in the ordering graph and reports each once,
// anchored at the first edge of the canonical cycle (starting from its
// lexicographically smallest lock).
func (lo *lockOrder) reportCycles() {
	var locks []string
	for from := range lo.edges {
		locks = append(locks, from)
	}
	sort.Strings(locks)
	reported := make(map[string]bool) // canonical cycle key
	for _, start := range locks {
		cycle := lo.findCycle(start)
		if cycle == nil {
			continue
		}
		key := canonicalCycleKey(cycle)
		if reported[key] {
			continue
		}
		reported[key] = true
		lo.report(cycle)
	}
}

// findCycle returns a path of edges start→…→start, or nil. DFS follows
// sorted successors, so the found cycle is deterministic.
func (lo *lockOrder) findCycle(start string) []*lockEdge {
	var path []*lockEdge
	onPath := map[string]bool{start: true}
	var dfs func(cur string) bool
	dfs = func(cur string) bool {
		var succs []string
		for to := range lo.edges[cur] {
			succs = append(succs, to)
		}
		sort.Strings(succs)
		for _, to := range succs {
			e := lo.edges[cur][to]
			if to == start {
				path = append(path, e)
				return true
			}
			if onPath[to] {
				continue
			}
			onPath[to] = true
			path = append(path, e)
			if dfs(to) {
				return true
			}
			path = path[:len(path)-1]
			delete(onPath, to)
		}
		return false
	}
	if dfs(start) {
		return path
	}
	return nil
}

func canonicalCycleKey(cycle []*lockEdge) string {
	names := make([]string, len(cycle))
	for i, e := range cycle {
		names[i] = e.from
	}
	sort.Strings(names)
	return strings.Join(names, "→")
}

func (lo *lockOrder) report(cycle []*lockEdge) {
	var b strings.Builder
	for i, e := range cycle {
		if i > 0 {
			b.WriteString(", then ")
		}
		fmt.Fprintf(&b, "%s before %s", shortLock(e.from), shortLock(e.to))
		if e.via != "" {
			fmt.Fprintf(&b, " (via %s)", e.via)
		}
		if i > 0 {
			fmt.Fprintf(&b, " at %s", lo.pass.Fset.Position(e.pos))
		}
	}
	lo.pass.Reportf(cycle[0].pos,
		"lock-order cycle (potential deadlock): %s", b.String())
}

func shortLock(id string) string {
	if i := strings.LastIndexByte(id, '/'); i >= 0 {
		return id[i+1:]
	}
	return id
}
