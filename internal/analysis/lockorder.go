package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder builds a global lock-ordering graph: it recomputes, for every
// function, the mutexes its Lock calls acquire (the calls lockcheck balances
// per function), closes those sets over the call graph, and adds an edge A→B
// wherever some execution acquires mutex B while holding mutex A, either
// directly in one function or by calling (to any interprocedural depth,
// across packages) a function that may acquire B. Where A is held comes from
// lockcheck's path simulation (walkLocks), so a lock released on a path that
// returns or continues stays held on the paths that go on. A cycle in that
// graph is a potential deadlock — two goroutines entering the cycle from
// different points can block each other forever — and is reported once per
// cycle at the edge that closes it.
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
	lo := &lockOrder{pass: pass, edges: make(map[string]map[string]*lockEdge)}
	lo.collectAcquisitions()
	for _, n := range pass.Graph.NodesSorted() {
		info := n.Unit.Info
		walkLocks(pass, info, n.Decl.Body, func(mu ast.Expr, call *ast.CallExpr) {
			from := lockIdentity(info, mu)
			if from == "" {
				return
			}
			if op, ok := classifyMutexCall(info, call); ok {
				if op.isLock {
					sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
					lo.addEdge(from, lockIdentity(info, sel.X), call.Pos(), "")
				}
				return
			}
			// A call made while holding from orders everything its callees
			// may acquire after it.
			for _, e := range n.Out {
				if e.Pos == call.Pos() && onGoroutine(e) {
					for id := range lo.acq[e.To] {
						lo.addEdge(from, id, call.Pos(), FuncDisplay(e.To))
					}
				}
			}
		})
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
// identities it may acquire: one reverse walk per identity from the
// functions whose bodies lock it, over call and dispatch edges (goroutine
// spawns excluded: locks taken on another goroutine are not held by the
// caller).
func (lo *lockOrder) collectAcquisitions() {
	direct := make(map[string][]*types.Func)
	for _, n := range lo.pass.Graph.NodesSorted() {
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			if op, ok := classifyMutexCall(n.Unit.Info, call); ok && op.isLock {
				sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if id := lockIdentity(n.Unit.Info, sel.X); id != "" {
					direct[id] = append(direct[id], n.Func)
				}
			}
			return true
		})
	}
	lo.acq = make(map[*types.Func]map[string]bool)
	for id, roots := range direct {
		for fn := range lo.pass.Graph.Callers(roots, onGoroutine) {
			if lo.acq[fn] == nil {
				lo.acq[fn] = make(map[string]bool)
			}
			lo.acq[fn][id] = true
		}
	}
}

// addEdge records from→to at pos, keeping an edge's earliest witness so the
// report does not depend on walk order.
func (lo *lockOrder) addEdge(from, to string, pos token.Pos, via string) {
	if to == "" || from == to {
		return
	}
	m := lo.edges[from]
	if m == nil {
		m = make(map[string]*lockEdge)
		lo.edges[from] = m
	}
	if e := m[to]; e == nil || pos < e.pos {
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
