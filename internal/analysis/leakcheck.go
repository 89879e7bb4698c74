package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LeakCheck demands a visible termination path for every goroutine: a `go`
// statement (or pageio.Go call) whose spawned body — directly, or through any function it can
// reach by call or dispatch — runs an infinite `for` loop with no way out
// (return, break out of the loop, goto, panic, os.Exit, runtime.Goexit) can
// never be joined or shut down, and pins its stack, its captures and (for
// engine workers) buffer-pool references for the life of the process.
//
// The rule is syntactic on purpose: workers that terminate by channel close
// do so through a `return` under a received signal (`for { select { case
// <-done: return ... } }`), which this recognizes. A loop whose exit is real
// but invisible to the analysis should be rewritten until the exit is
// syntactically evident — the next reader needs the same proof the tool does.
func LeakCheck() *Analyzer {
	return &Analyzer{
		Name: "leakcheck",
		Doc:  "every go statement needs a visible termination path in the spawned closure",
		Run:  runLeakCheck,
	}
}

func runLeakCheck(pass *Pass) {
	lc := &leakCheck{pass: pass}
	for _, n := range pass.Graph.NodesSorted() {
		if pass.InTestFile(n.Decl.Pos()) {
			continue
		}
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			if call, ok := spawnedCall(n.Unit.Info, x); ok {
				lc.checkSpawn(n, x, call)
			}
			return true
		})
	}
}

type leakCheck struct {
	pass *Pass
}

// checkSpawn checks one spawn site st (a `go` statement or a pageio.Go
// call) whose new goroutine runs call.
func (lc *leakCheck) checkSpawn(n *Node, st ast.Node, call *ast.CallExpr) {
	// The spawned literal's own statements.
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		if loop := exitlessLoop(lit.Body, n.Unit.Info); loop != nil {
			lc.pass.Reportf(st.Pos(),
				"goroutine leak: spawned closure loops forever at %s with no return, break, or panic",
				lc.pass.Fset.Position(loop.Pos()))
			return
		}
	}
	// Everything the spawn can reach: the graph marked calls under this go
	// statement (the spawned function and calls inside a spawned literal)
	// with EdgeGo at positions inside the statement.
	var roots []*types.Func
	for _, e := range n.Out {
		if e.Kind == EdgeGo && e.Pos >= st.Pos() && e.Pos < st.End() {
			roots = append(roots, e.To)
		}
	}
	if len(roots) == 0 {
		return
	}
	reached := lc.pass.Graph.Reachable(roots, func(e *Edge) bool {
		return e.Kind == EdgeCall || e.Kind == EdgeDispatch
	})
	for _, m := range lc.pass.Graph.NodesSorted() {
		if _, ok := reached[m.Func]; !ok {
			continue
		}
		loop := exitlessLoop(m.Decl.Body, m.Unit.Info)
		if loop == nil {
			continue
		}
		lc.pass.Reportf(st.Pos(),
			"goroutine leak: %s (via %s) loops forever at %s with no return, break, or panic",
			FuncDisplay(m.Func),
			strings.Join(lc.pass.Graph.PathTo(reached, m.Func), " -> "),
			lc.pass.Fset.Position(loop.Pos()))
		return
	}
}

// exitlessLoop finds the first `for { ... }` (no condition) under body whose
// statements provide no escape. Function literals and nested go statements
// run in other frames and are scanned on their own.
func exitlessLoop(body ast.Node, info *types.Info) *ast.ForStmt {
	var found *ast.ForStmt
	ast.Inspect(body, func(x ast.Node) bool {
		if found != nil {
			return false
		}
		switch st := x.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.ForStmt:
			if st.Cond == nil && !loopExits(st, info) {
				found = st
				return false
			}
		}
		return true
	})
	return found
}

// loopExits reports whether the loop body contains a statement that escapes
// the loop (or the goroutine entirely).
func loopExits(loop *ast.ForStmt, info *types.Info) bool {
	return stmtsExit(loop.Body, 0, info)
}

// stmtsExit scans one nesting level. depth counts enclosing breakable
// constructs between the statement and the loop under test: an unlabeled
// break escapes the loop only at depth 0 (inside a nested for/switch/select
// it binds to that construct instead); a labeled break or any goto is assumed
// to escape.
func stmtsExit(n ast.Node, depth int, info *types.Info) bool {
	exits := false
	ast.Inspect(n, func(x ast.Node) bool {
		if exits || x == nil {
			return false
		}
		if x == n {
			return true
		}
		switch st := x.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false // other frames, or runs only if a return exists anyway
		case *ast.ReturnStmt:
			exits = true
			return false
		case *ast.BranchStmt:
			switch st.Tok {
			case token.GOTO:
				exits = true
			case token.BREAK:
				if st.Label != nil || depth == 0 {
					exits = true
				}
			}
			return false
		case *ast.CallExpr:
			if isTerminalCall(info, st) {
				exits = true
				return false
			}
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			if stmtsExit(st, depth+1, info) {
				exits = true
			}
			return false
		}
		return true
	})
	return exits
}

// isTerminalCall matches calls that end the goroutine outright: panic,
// os.Exit, runtime.Goexit, log.Fatal*/Panic*.
func isTerminalCall(info *types.Info, call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
		if _, builtin := info.Uses[id].(*types.Builtin); builtin {
			return true
		}
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "os":
		return fn.Name() == "Exit"
	case "runtime":
		return fn.Name() == "Goexit"
	case "log":
		return strings.HasPrefix(fn.Name(), "Fatal") || strings.HasPrefix(fn.Name(), "Panic")
	}
	return false
}
