package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// obligation is one row of the faultsite rule: in the packages named by pkgs,
// every exported context-first method on an exported type whose name starts
// with one of prefixes must reach a fault hook. The context-first requirement
// separates real operations from similarly-named counter accessors
// (Metrics.Puts, Stats.Writes, Log.CheckpointLSN).
type obligation struct {
	kind     string
	pkgs     []string
	prefixes []string
}

func (o obligation) covers(pkg string) bool { return contains(o.pkgs, pkg) }

func (o obligation) names(method string) bool {
	for _, p := range o.prefixes {
		if strings.HasPrefix(method, p) {
			return true
		}
	}
	return false
}

// writeRule is the storage-boundary obligation. Read paths (Get, ReadAt,
// List, Exists, Replay) are injected too in practice, but the invariant the
// paper needs is that no WRITE can bypass fault coverage — a write that never
// sees a fault in simulation is a write whose failure handling is never
// exercised. A call into a different package it covers also discharges an
// obligation (isBoundaryDelegate).
var writeRule = obligation{"mutating",
	[]string{"objstore", "blockdev", "wal", "ocm", "pageio"},
	[]string{"Put", "Write", "Append", "Delete", "Checkpoint", "Remove", "Truncate"}}

// obligations is the whole rule: one row per boundary. A package may appear
// in several rows; a method is checked under the first row that names it.
var obligations = []obligation{
	writeRule,
	// Admission (Scheduler.Run): a query that can be admitted without
	// passing a fault site is one whose rejection handling the crash
	// simulator never exercises.
	{"serving", []string{"sched"}, []string{"Run"}},
	// Control loop (Controller.ReconcileOnce, Converge): a reconcile round
	// the planner cannot crash is a failover path whose mid-takeover
	// behaviour is never exercised.
	{"reconcile", []string{"cluster"}, []string{"Reconcile", "Converge"}},
	// Compute pushdown (MemStore.Select), the read-path exception to the
	// write rule: a pushdown that cannot fail is a fallback-to-plain-reads
	// path never taken, which is where a scan would silently diverge.
	{"select", []string{"objstore"}, []string{"Select"}},
	// Ingest lane (Compactor.CompactTable, CompactAll): a drain the planner
	// cannot doom is a crash-mid-swap recovery never exercised, which is
	// where trickle rows would be lost or duplicated.
	{"compact", []string{"delta"}, []string{"Compact"}},
}

// FaultSite checks that every method an obligation row names — exported
// mutating methods on the objstore/blockdev/wal/ocm/pageio boundary, and the
// serving, reconcile, select and compact entry points — routes through a
// faultinject hook: its same-package transitive call closure must reach
// Plan.Check or Plan.LagAt, or delegate the mutation to another covered
// boundary (for example, ocm's write paths delegate to objstore.Store.Put and
// blockdev.Device.WriteAt, which are themselves hooked).
func FaultSite() *Analyzer {
	a := &Analyzer{
		Name: "faultsite",
		Doc:  "exported mutating boundary operations must route through a faultinject site",
	}
	a.Run = func(pass *Pass) {
		base := pkgBase(pass.Pkg.Path())
		var rows []obligation
		for _, o := range obligations {
			if o.covers(base) {
				rows = append(rows, o)
			}
		}
		if len(rows) == 0 {
			return
		}
		// Map every function/method declared in this unit to its body so
		// the closure walk can follow same-package calls.
		bodies := make(map[*types.Func]*ast.BlockStmt)
		var targets []*ast.FuncDecl
		kinds := make(map[*ast.FuncDecl]string)
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				bodies[fn] = fd.Body
				if pass.InTestFile(fd.Pos()) {
					continue
				}
				for _, o := range rows {
					if isExportedPrefixedMethod(fd, fn, o) {
						targets = append(targets, fd)
						kinds[fd] = o.kind
						break
					}
				}
			}
		}
		for _, fd := range targets {
			fn := pass.Info.Defs[fd.Name].(*types.Func)
			seen := make(map[*types.Func]bool)
			if !reachesFaultHook(pass, fn, bodies, seen) {
				recv := recvTypeName(fn)
				pass.Reportf(fd.Name.Pos(),
					"exported %s operation %s.%s has no faultinject site on any path: add a Plan.Check call or route the write through a covered boundary",
					kinds[fd], recv, fn.Name())
			}
		}
	}
	return a
}

// isExportedPrefixedMethod selects the methods o obliges: exported,
// context-first methods on exported receiver types whose name carries one of
// o's prefixes.
func isExportedPrefixedMethod(fd *ast.FuncDecl, fn *types.Func, o obligation) bool {
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

// reachesFaultHook walks fn's call closure within the package, following
// calls to same-package functions, and succeeds on a faultinject Plan hook
// or a delegated mutating call into another covered boundary package.
func reachesFaultHook(pass *Pass, fn *types.Func, bodies map[*types.Func]*ast.BlockStmt, seen map[*types.Func]bool) bool {
	if seen[fn] {
		return false
	}
	seen[fn] = true
	body, ok := bodies[fn]
	if !ok {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(pass.Info, call)
		if callee == nil || callee.Pkg() == nil {
			return true
		}
		switch {
		case isFaultHook(callee):
			found = true
		case isBoundaryDelegate(pass, callee):
			found = true
		case callee.Pkg() == pass.Pkg:
			if reachesFaultHook(pass, callee, bodies, seen) {
				found = true
			}
		}
		return !found
	})
	return found
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
func isBoundaryDelegate(pass *Pass, fn *types.Func) bool {
	path := fn.Pkg().Path()
	if fn.Pkg() == pass.Pkg || !writeRule.covers(pkgBase(path)) {
		return false
	}
	return writeRule.names(fn.Name())
}
