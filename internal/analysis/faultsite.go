package analysis

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// obligation is one method family of the faultsite rule: in the packages
// whose policy row lists it, every exported context-first method on an
// exported type whose name starts with one of prefixes must reach a fault
// hook. The context-first requirement separates real operations from
// similarly-named counter accessors (Metrics.Puts, Stats.Writes,
// Log.CheckpointLSN). A package may list several; a method is checked under
// the first that names it.
type obligation struct {
	kind     string
	prefixes []string
}

func (o *obligation) names(method string) bool {
	return slices.ContainsFunc(o.prefixes, func(p string) bool { return strings.HasPrefix(method, p) })
}

var (
	// mutating is the storage-boundary obligation. Read paths (Get, ReadAt,
	// List, Exists, Replay) are injected too in practice, but the invariant
	// the paper needs is that no WRITE can bypass fault coverage — a write
	// that never sees a fault in simulation is a write whose failure
	// handling is never exercised. A call into a different package it
	// covers also discharges an obligation (isBoundaryDelegate).
	mutating = &obligation{"mutating", []string{"Put", "Write", "Append", "Delete", "Checkpoint", "Remove", "Truncate"}}
	// serving is admission (Scheduler.Run).
	serving = &obligation{"serving", []string{"Run"}}
	// reconcile is the control loop (Controller.ReconcileOnce, Converge).
	reconcile = &obligation{"reconcile", []string{"Reconcile", "Converge"}}
	// selecting is compute pushdown (MemStore.Select), the read-path
	// exception to the write rule: a pushdown that cannot fail is a
	// fallback-to-plain-reads path never taken, which is where a scan would
	// silently diverge.
	selecting = &obligation{"select", []string{"Select"}}
	// compact is the ingest lane's drain (Compactor.CompactTable, CompactAll).
	compact = &obligation{"compact", []string{"Compact"}}
)

// FaultSite checks that every method an obligation names — exported
// mutating methods on the objstore/blockdev/wal/ocm/pageio boundary, and the
// serving, reconcile, select and compact entry points — routes through a
// faultinject hook: its same-package transitive call closure must reach
// Plan.Check or Plan.LagAt, or delegate the mutation to another covered
// boundary (for example, ocm's write paths delegate to objstore.Store.Put and
// blockdev.Device.WriteAt, which are themselves hooked).
func FaultSite() *Analyzer {
	return &Analyzer{
		Name: "faultsite",
		Doc:  "exported mutating boundary operations must route through a faultinject site",
		Run:  runFaultSite,
	}
}

func runFaultSite(pass *Pass) {
	for u, f := range pass.files() {
		rows := policyOf(u.Pkg.Path()).faults
		if len(rows) == 0 || pass.InTestFile(f.Package) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := u.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			i := slices.IndexFunc(rows, func(o *obligation) bool { return isExportedPrefixedMethod(fd, fn, o) })
			if i >= 0 && !reachesFaultHook(pass.Graph, fn) {
				pass.Reportf(fd.Name.Pos(),
					"exported %s operation %s.%s has no faultinject site on any path: add a Plan.Check call or route the write through a covered boundary",
					rows[i].kind, recvTypeName(fn), fn.Name())
			}
		}
	}
}

// isExportedPrefixedMethod selects the methods o obliges: exported,
// context-first methods on exported receiver types whose name carries one of
// o's prefixes.
func isExportedPrefixedMethod(fd *ast.FuncDecl, fn *types.Func, o *obligation) bool {
	if fd.Recv == nil || !fn.Exported() {
		return false
	}
	name := recvTypeName(fn)
	if name == "" || !ast.IsExported(name) {
		return false
	}
	if !o.names(fn.Name()) {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Params().Len() > 0 && isContextType(sig.Params().At(0).Type())
}

func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}

// reachesFaultHook walks fn's closure within its package, following static
// calls and goroutine spawns (not dispatch or references), and succeeds on a
// faultinject Plan hook or a delegated mutating call into another covered
// boundary package in any reached body.
func reachesFaultHook(g *Graph, fn *types.Func) bool {
	reached := g.Reachable([]*types.Func{fn}, func(e *Edge) bool {
		return (e.Kind == EdgeCall || e.Kind == EdgeGo) && e.To.Pkg() == fn.Pkg()
	})
	for f := range reached {
		n := g.Nodes[f]
		found := false
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok {
				callee := calleeFunc(n.Unit.Info, call)
				found = callee != nil && callee.Pkg() != nil &&
					(isFaultHook(callee) || isBoundaryDelegate(n.Unit, callee))
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// isFaultHook matches (*faultinject.Plan).Check and LagAt.
func isFaultHook(fn *types.Func) bool {
	if pkgBase(fn.Pkg().Path()) != "faultinject" {
		return false
	}
	return fn.Name() == "Check" || fn.Name() == "LagAt"
}

// isBoundaryDelegate matches mutating calls into a DIFFERENT covered
// boundary package (interface or concrete): the callee's own faultsite
// obligations guarantee the hook.
func isBoundaryDelegate(u *Unit, fn *types.Func) bool {
	if fn.Pkg() == u.Pkg || !slices.Contains(policyOf(fn.Pkg().Path()).faults, mutating) {
		return false
	}
	return mutating.names(fn.Name())
}
