package analysis

import (
	"go/ast"
	"go/types"
)

// pageioAllowedPkgs may call stores and devices directly. internal/pageio
// owns the terminal handlers; objstore and blockdev are the implementations
// themselves (including their internal decorators); tpch stages benchmark
// input corpora, which are load input, not engine pages.
var pageioAllowedPkgs = map[string]bool{
	"cloudiq/internal/pageio":   true,
	"cloudiq/internal/objstore": true,
	"cloudiq/internal/blockdev": true,
	"cloudiq/tpch":              true,
}

// PageioOnly enforces the single-I/O-path invariant: outside the allowlisted
// packages, production code must not call object-store Get/Put or
// block-device ReadAt/WriteAt directly — every page read and write flows
// through an internal/pageio Handler pipeline, which is the one place that
// batches, retries, meters and traces.
//
// Two shapes are exempt: test files (fixtures legitimately drive the
// simulated stores directly) and methods on decorator types that themselves
// implement the full store or device interface (a wrapper forwarding to its
// inner store is part of the storage substrate, not a consumer of it).
func PageioOnly() *Analyzer {
	a := &Analyzer{
		Name: "pageioonly",
		Doc:  "storage reads and writes must flow through internal/pageio, not call stores or devices directly",
	}
	a.Run = func(pass *Pass) {
		if pageioAllowedPkgs[pass.Pkg.Path()] {
			return
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				fn, ok := n.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					return true
				}
				if pass.InTestFile(fn.Pos()) {
					return false
				}
				if isStorageDecorator(pass.Info, fn) {
					return false
				}
				checkDirectIO(pass, fn.Body)
				return true
			})
		}
	}
	return a
}

func checkDirectIO(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isDirectStoreCall(pass.Info, call) || isDirectDeviceCall(pass.Info, call) {
			pass.Reportf(call.Pos(),
				"call to %s bypasses the pageio pipeline; route page I/O through an internal/pageio Handler",
				types.ExprString(call.Fun))
		}
		return true
	})
}

// isDirectStoreCall matches methods named Get or Put with the object-store
// shape: Get(context.Context, string) ([]byte, error) and
// Put(context.Context, string, []byte) error.
func isDirectStoreCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	params := sig.Params()
	switch fn.Name() {
	case "Get":
		if params.Len() != 2 || !isContextType(params.At(0).Type()) {
			return false
		}
		if b, ok := params.At(1).Type().(*types.Basic); !ok || b.Kind() != types.String {
			return false
		}
		res := sig.Results()
		return res.Len() == 2 && isByteSlice(res.At(0).Type()) && isErrorType(res.At(1).Type())
	case "Put":
		if params.Len() != 3 || !isContextType(params.At(0).Type()) {
			return false
		}
		if b, ok := params.At(1).Type().(*types.Basic); !ok || b.Kind() != types.String {
			return false
		}
		if !isByteSlice(params.At(2).Type()) {
			return false
		}
		res := sig.Results()
		return res.Len() == 1 && isErrorType(res.At(0).Type())
	}
	return false
}

// isDirectDeviceCall matches methods named ReadAt or WriteAt with the
// block-device shape: (context.Context, []byte, int64) error.
func isDirectDeviceCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	switch fn.Name() {
	case "ReadAt", "WriteAt":
	default:
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	params := sig.Params()
	if params.Len() != 3 || !isContextType(params.At(0).Type()) || !isByteSlice(params.At(1).Type()) {
		return false
	}
	if b, ok := params.At(2).Type().(*types.Basic); !ok || b.Kind() != types.Int64 {
		return false
	}
	res := sig.Results()
	return res.Len() == 1 && isErrorType(res.At(0).Type())
}

func isByteSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
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
		found := false
		for i := 0; i < ms.Len(); i++ {
			if ms.At(i).Obj().Name() == name {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
