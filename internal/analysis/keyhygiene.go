package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// KeyHygiene flags locally-constructed string keys passed to an object-store
// Put. Outside the packages the policy table lets mint keys, a key must be
// minted elsewhere — ultimately by the Object Key Generator (internal/keygen)
// rendered through core.KeyNamer — which is the static face of the paper's
// never-write-twice invariant: a key that is never fabricated at a Put site
// can never collide with one already written.
//
// A key is locally constructed when the argument expression (following local
// single assignments) contains a string literal, string concatenation, or an
// fmt.Sprintf-style formatting call. Keys arriving as parameters, struct
// fields, or the results of dedicated naming functions (such as
// core.KeyNamer.Name, which renders keygen-minted integers) pass.
//
// Test files are exempt: fixtures legitimately fabricate keys against the
// simulated store.
func KeyHygiene() *Analyzer {
	return &Analyzer{
		Name: "keyhygiene",
		Doc:  "object-store Put keys must be minted via keygen, not constructed at the call site",
		Run:  runKeyHygiene,
	}
}

func runKeyHygiene(pass *Pass) {
	for u, f := range pass.files() {
		if policyOf(u.Pkg.Path()).mintsKeys {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			if pass.InTestFile(fn.Pos()) {
				return false
			}
			checkPutKeys(pass, u.Info, fn.Body)
			return true
		})
	}
}

func checkPutKeys(pass *Pass, info *types.Info, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isStorePut(info, call) {
			return true
		}
		keyArg := call.Args[1]
		if origin := locallyConstructed(info, body, keyArg, 4); origin != nil {
			pass.Reportf(keyArg.Pos(),
				"key passed to %s is constructed locally (%s at line %d); object keys must come from the key generator (never-write-twice)",
				types.ExprString(call.Fun), describeOrigin(origin),
				pass.Fset.Position(origin.Pos()).Line)
		}
		return true
	})
}

// isStorePut matches methods named Put/PutBack/PutThrough with the
// object-store signature (context.Context, string, []byte) error — the shape
// shared by objstore.Store, the OCM write paths, and every wrapper store.
func isStorePut(info *types.Info, call *ast.CallExpr) bool {
	fn, sig := storeMethod(info, call)
	if fn == nil || sig.Params().Len() != 3 || len(call.Args) != 3 {
		return false
	}
	switch fn.Name() {
	case "Put", "PutBack", "PutThrough":
		return true
	}
	return false
}

// locallyConstructed returns the sub-expression proving the key was built at
// the call site (a string literal, concatenation, or formatting call), or
// nil if the key flows in from elsewhere. Local variables are resolved
// through their assignments within the enclosing function, to bounded depth.
func locallyConstructed(info *types.Info, scope *ast.BlockStmt, expr ast.Expr, depth int) ast.Expr {
	if depth <= 0 {
		return nil
	}
	switch e := ast.Unparen(expr).(type) {
	case *ast.BasicLit:
		if e.Kind == token.STRING {
			return e
		}
	case *ast.BinaryExpr:
		if e.Op == token.ADD {
			if o := locallyConstructed(info, scope, e.X, depth-1); o != nil {
				return o
			}
			return locallyConstructed(info, scope, e.Y, depth-1)
		}
	case *ast.CallExpr:
		if isFormattingCall(info, e) {
			return e
		}
	case *ast.Ident:
		obj, ok := info.Uses[e].(*types.Var)
		if !ok {
			return nil
		}
		for _, rhs := range localAssignments(info, scope, obj) {
			if o := locallyConstructed(info, scope, rhs, depth-1); o != nil {
				return o
			}
		}
	}
	return nil
}

// isFormattingCall matches fmt.Sprintf/Sprint/Sprintln and strings.Join —
// the usual string fabricators.
func isFormattingCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "fmt":
		switch fn.Name() {
		case "Sprintf", "Sprint", "Sprintln", "Appendf":
			return true
		}
	case "strings":
		return fn.Name() == "Join"
	}
	return false
}

// localAssignments collects the right-hand sides assigned to obj anywhere in
// the enclosing function body.
func localAssignments(info *types.Info, scope *ast.BlockStmt, obj *types.Var) []ast.Expr {
	var out []ast.Expr
	ast.Inspect(scope, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, lhs := range assign.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			if info.Defs[id] == obj || info.Uses[id] == obj {
				out = append(out, assign.Rhs[i])
			}
		}
		return true
	})
	return out
}

func describeOrigin(e ast.Expr) string {
	switch e.(type) {
	case *ast.BasicLit:
		return "string literal"
	case *ast.CallExpr:
		return "formatting call"
	case *ast.BinaryExpr:
		return "string concatenation"
	}
	return "local expression"
}
