package analysis

import (
	"go/ast"
	"go/types"
)

// PageioOnly enforces the single-I/O-path invariant: outside the packages
// the policy table lets call stores directly, production code must not call
// object-store Get/Put or block-device ReadAt/WriteAt — every page read and
// write flows through an internal/pageio Handler pipeline, which is the one
// place that batches, retries, meters and traces.
//
// Two shapes are exempt: test files (fixtures legitimately drive the
// simulated stores directly) and methods on decorator types that themselves
// implement the full store or device interface (a wrapper forwarding to its
// inner store is part of the storage substrate, not a consumer of it).
func PageioOnly() *Analyzer {
	return &Analyzer{
		Name: "pageioonly",
		Doc:  "storage reads and writes must flow through internal/pageio, not call stores or devices directly",
		Run:  runPageioOnly,
	}
}

func runPageioOnly(pass *Pass) {
	for u, f := range pass.files() {
		if policyOf(u.Pkg.Path()).directIO {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			if pass.InTestFile(fn.Pos()) || isStorageDecorator(u.Info, fn) {
				return false
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && (isDirectStoreCall(u.Info, call) || isDirectDeviceCall(u.Info, call)) {
					pass.Reportf(call.Pos(),
						"call to %s bypasses the pageio pipeline; route page I/O through an internal/pageio Handler",
						types.ExprString(call.Fun))
				}
				return true
			})
			return true
		})
	}
}

// isDirectStoreCall matches the object-store methods Get(context.Context,
// string) ([]byte, error) and Put(context.Context, string, []byte) error.
func isDirectStoreCall(info *types.Info, call *ast.CallExpr) bool {
	fn, sig := storeMethod(info, call)
	if fn == nil {
		return false
	}
	params, res := sig.Params(), sig.Results()
	switch fn.Name() {
	case "Get":
		return params.Len() == 2 && res.Len() == 2 && isByteSlice(res.At(0).Type())
	case "Put":
		return params.Len() == 3 && isByteSlice(params.At(2).Type()) && res.Len() == 1
	}
	return false
}

// isDirectDeviceCall matches methods named ReadAt or WriteAt with the
// block-device shape: (context.Context, []byte, int64) error.
func isDirectDeviceCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || (fn.Name() != "ReadAt" && fn.Name() != "WriteAt") {
		return false
	}
	sig := fn.Type().(*types.Signature)
	params, res := sig.Params(), sig.Results()
	return sig.Recv() != nil && params.Len() == 3 && isContextType(params.At(0).Type()) &&
		isByteSlice(params.At(1).Type()) && isBasic(params.At(2).Type(), types.Int64) &&
		res.Len() == 1 && isErrorType(res.At(0).Type())
}

// isStorageDecorator reports whether fn is a method on a type that itself
// implements the full object-store surface (Put, Get, Delete, Exists, List)
// or the full block-device surface (ReadAt, WriteAt, Size).
func isStorageDecorator(info *types.Info, fn *ast.FuncDecl) bool {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return false
	}
	t := info.TypeOf(fn.Recv.List[0].Type)
	if t == nil {
		return false
	}
	return hasMethods(t, "Put", "Get", "Delete", "Exists", "List") ||
		hasMethods(t, "ReadAt", "WriteAt", "Size")
}

func hasMethods(t types.Type, names ...string) bool {
	ms := types.NewMethodSet(t)
	for _, name := range names {
		if ms.Lookup(nil, name) == nil { // exported names ignore the package
			return false
		}
	}
	return true
}
