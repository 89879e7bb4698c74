package analysis

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces context threading across the call graph. Two rules:
//
//  1. context.Background()/context.TODO() in non-main, non-test code is a
//     finding: blocking engine work (pageio, multiplex RPC, sched waits)
//     started from a fabricated root context cannot be cancelled by the
//     caller. Detached work that must outlive its caller derives with
//     context.WithoutCancel(ctx) instead, which keeps trace/span values.
//
//  2. A function that receives a context.Context must thread it: a call to
//     a module function that takes no context, but that transitively reaches
//     a context fabrication (rule 1's sites), severs the cancellation chain
//     at that call — reported at the severing call site, with the
//     fabrication position in the message.
//
// Goroutine boundaries are not followed (a spawned worker is a legitimate
// new context domain — that audit belongs to detclosure/leakcheck), and
// fabrication sites already suppressed with //lint:ignore ctxflow do not
// propagate to their callers.
func CtxFlow() *Analyzer {
	return &Analyzer{
		Name: "ctxflow",
		Doc:  "received contexts must thread to blocking callees; no context.Background outside main/tests",
		Run:  runCtxFlow,
	}
}

func runCtxFlow(pass *Pass) {
	cf := &ctxFlow{pass: pass, fabricates: make(map[*types.Func]ast.Expr)}
	cf.reaches = pass.Graph.Callers(cf.collectFabrications(), onGoroutine)
	for _, n := range pass.Graph.NodesSorted() {
		cf.checkFunc(n)
	}
}

type ctxFlow struct {
	pass *Pass
	// fabricates maps a function to an unsuppressed context.Background/TODO
	// call in its own body.
	fabricates map[*types.Func]ast.Expr
	// reaches holds every function that can reach a fabrication without
	// crossing a goroutine boundary, with its first call toward one (nil
	// for the fabricating functions themselves).
	reaches map[*types.Func]*Edge
}

// isCtxFabrication matches context.Background() and context.TODO().
func isCtxFabrication(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return false
	}
	return fn.Name() == "Background" || fn.Name() == "TODO"
}

// exempt reports whether a node is outside the rule's scope: main packages
// (process entry points own the root context), test files, and init
// functions.
func (cf *ctxFlow) exempt(n *Node) bool {
	if n.Unit.Pkg.Name() == "main" {
		return true
	}
	if cf.pass.InTestFile(n.Decl.Pos()) {
		return true
	}
	return n.Decl.Recv == nil && n.Decl.Name.Name == "init"
}

// collectFabrications records each function's first unsuppressed
// fabrication and returns those functions in node order.
func (cf *ctxFlow) collectFabrications() []*types.Func {
	var roots []*types.Func
	for _, n := range cf.pass.Graph.NodesSorted() {
		if cf.pass.InTestFile(n.Decl.Pos()) {
			continue
		}
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			// An audited fabrication is a sanctioned root and must not
			// indict its callers.
			call, ok := x.(*ast.CallExpr)
			if ok && cf.fabricates[n.Func] == nil && isCtxFabrication(n.Unit.Info, call) &&
				!cf.pass.Suppressed(call.Pos(), "ctxflow") {
				cf.fabricates[n.Func] = call
				roots = append(roots, n.Func)
			}
			return true
		})
	}
	return roots
}

func (cf *ctxFlow) checkFunc(n *Node) {
	if cf.exempt(n) {
		return
	}
	// Rule 1: fabrication sites.
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isCtxFabrication(n.Unit.Info, call) {
			fn := calleeFunc(n.Unit.Info, call)
			cf.pass.Reportf(call.Pos(),
				"context.%s in non-main path: thread the caller's ctx (or derive with context.WithoutCancel for detached work)",
				fn.Name())
		}
		return true
	})
	// Rule 2: severed chains. Only functions that actually received a
	// context have one to drop.
	if !hasCtxParam(n.Func) {
		return
	}
	seen := make(map[*types.Func]bool)
	for _, e := range n.Out {
		if e.Kind != EdgeCall && e.Kind != EdgeDispatch {
			continue
		}
		if seen[e.To] || hasCtxParam(e.To) {
			continue
		}
		if _, ok := cf.reaches[e.To]; !ok {
			continue
		}
		seen[e.To] = true
		site := e.To
		for next := cf.reaches[site]; next != nil; next = cf.reaches[site] {
			site = next.To
		}
		cf.pass.Reportf(e.Pos,
			"call to %s drops the received ctx: the callee fabricates a new root context (%s at %s); add a ctx parameter through the chain",
			FuncDisplay(e.To), FuncDisplay(site), cf.pass.Fset.Position(cf.fabricates[site].Pos()))
	}
}
