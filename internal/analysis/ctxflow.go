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
	cf.collectFabrications()
	cf.closeFabrications()
	for _, n := range pass.Graph.NodesSorted() {
		cf.checkFunc(n)
	}
}

type ctxFlow struct {
	pass *Pass
	// fabricates maps a function to a context.Background/TODO call it can
	// reach without crossing a goroutine boundary (itself included), nil
	// expr meaning "reaches one transitively".
	fabricates map[*types.Func]ast.Expr
	reaches    map[*types.Func]*types.Func // first callee leading to a fabrication
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

// suppressedFabrication reports whether the fabrication at pos carries a
// ctxflow ignore directive (on its line or the line above): an audited
// fabrication is a sanctioned root and must not indict its callers.
func (cf *ctxFlow) suppressedFabrication(n *Node, call *ast.CallExpr) bool {
	pos := cf.pass.Fset.Position(call.Pos())
	var file *ast.File
	for _, f := range n.Unit.Files {
		if cf.pass.Fset.Position(f.Package).Filename == pos.Filename {
			file = f
			break
		}
	}
	if file == nil {
		return false
	}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			line := cf.pass.Fset.Position(c.Pos()).Line
			if rule, _, _ := parseDirective(c.Text); rule == "ctxflow" && (line == pos.Line || line+1 == pos.Line) {
				return true
			}
		}
	}
	return false
}

func (cf *ctxFlow) collectFabrications() {
	for _, n := range cf.pass.Graph.NodesSorted() {
		if cf.pass.InTestFile(n.Decl.Pos()) {
			continue
		}
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isCtxFabrication(n.Unit.Info, call) && !cf.suppressedFabrication(n, call) {
				if cf.fabricates[n.Func] == nil {
					cf.fabricates[n.Func] = call
				}
			}
			return true
		})
	}
}

// closeFabrications propagates the fabrication fact backwards over call and
// dispatch edges (not goroutine spawns) to a fixpoint.
func (cf *ctxFlow) closeFabrications() {
	cf.reaches = make(map[*types.Func]*types.Func)
	changed := true
	for changed {
		changed = false
		for _, n := range cf.pass.Graph.NodesSorted() {
			if _, ok := cf.fabricates[n.Func]; ok {
				continue
			}
			for _, e := range n.Out {
				if e.Kind != EdgeCall && e.Kind != EdgeDispatch {
					continue
				}
				if _, ok := cf.fabricates[e.To]; ok {
					cf.fabricates[n.Func] = nil
					cf.reaches[n.Func] = e.To
					changed = true
					break
				}
			}
		}
	}
}

// fabricationSite walks the reaches chain down to the function holding the
// concrete Background/TODO call.
func (cf *ctxFlow) fabricationSite(fn *types.Func) (*types.Func, ast.Expr) {
	for {
		if expr := cf.fabricates[fn]; expr != nil {
			return fn, expr
		}
		next, ok := cf.reaches[fn]
		if !ok {
			return fn, nil
		}
		fn = next
	}
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
		if _, ok := cf.fabricates[e.To]; !ok {
			continue
		}
		seen[e.To] = true
		site, expr := cf.fabricationSite(e.To)
		where := FuncDisplay(site)
		if expr != nil {
			where += " at " + cf.pass.Fset.Position(expr.Pos()).String()
		}
		cf.pass.Reportf(e.Pos,
			"call to %s drops the received ctx: the callee fabricates a new root context (%s); add a ctx parameter through the chain",
			FuncDisplay(e.To), where)
	}
}
