package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// IQErrCheck flags discarded error results from calls into the packages the
// policy table marks as the I/O layer (objstore, blockdev, wal, ocm), whose
// methods' errors carry the engine's durability story: dropping one silently
// can turn an injected fault or a failed upload into lost data. Such errors
// must be handled or explicitly discarded with `_ =` (which is visible in
// review). Flagged are bare call statements, bare `defer f.Close()`, go
// statements, and — the pattern that defeats the visible-discard convention —
// blank assignments inside deferred closures, where `defer func() { _ =
// f.Close() }()` dresses a silent drop up as handling.
func IQErrCheck() *Analyzer {
	return &Analyzer{
		Name: "iqerrcheck",
		Doc:  "errors from objstore/blockdev/wal/ocm calls must not be silently discarded",
		Run:  runIQErrCheck,
	}
}

func runIQErrCheck(pass *Pass) {
	for u, f := range pass.files() {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := spawnedCall(u.Info, n); ok {
				checkDroppedErr(pass, u.Info, call, "go ")
			}
			switch st := n.(type) {
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
					checkDroppedErr(pass, u.Info, call, "")
				}
			case *ast.DeferStmt:
				checkDroppedErr(pass, u.Info, st.Call, "defer ")
				if lit, ok := ast.Unparen(st.Call.Fun).(*ast.FuncLit); ok {
					checkDeferredDiscards(pass, u.Info, lit)
				}
			}
			return true
		})
	}
}

// droppedErrFunc resolves call to an in-scope method whose final result is
// an error, or nil when the call is outside the rule.
func droppedErrFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || !policyOf(fn.Pkg().Path()).ioLayer {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		// Only the object/device/log/cache method surfaces are in scope;
		// package-level helpers are judged by the general vet rules.
		return nil
	}
	results := sig.Results()
	if results.Len() == 0 || !isErrorType(results.At(results.Len()-1).Type()) {
		return nil
	}
	return fn
}

func checkDroppedErr(pass *Pass, info *types.Info, call *ast.CallExpr, form string) {
	fn := droppedErrFunc(info, call)
	if fn == nil {
		return
	}
	pass.Reportf(call.Pos(),
		"%s%s.%s drops its error: handle it or assign it explicitly (e.g. `_ = ...` with a reason)",
		form, pkgBase(fn.Pkg().Path()), fn.Name())
}

// checkDeferredDiscards flags `_ = f()` blank assignments inside a deferred
// closure. In straight-line code a blank assign is a reviewable, intentional
// discard; inside `defer func() { ... }()` it is usually the last chance to
// observe a Close/Sync failure, and the closure form signals that handling
// was intended — so the error must be checked (or the discard suppressed
// with a reason).
func checkDeferredDiscards(pass *Pass, info *types.Info, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // not part of the deferred execution
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || len(as.Rhs) != 1 {
			return true
		}
		for _, lhs := range as.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); !ok || id.Name != "_" {
				return true
			}
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := droppedErrFunc(info, call); fn != nil {
			pass.Reportf(as.Pos(),
				"deferred closure blank-discards the %s.%s error: this is the last chance to observe it — check it (or suppress with a reason)",
				pkgBase(fn.Pkg().Path()), fn.Name())
		}
		return true
	})
}
