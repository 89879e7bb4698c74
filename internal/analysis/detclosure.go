package analysis

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// DetClosure is the interprocedural closure of noclock: noclock checks the
// deterministic simulation packages file-by-file, but the property the
// simulation tester actually needs is about *reachability* — everything the
// simtest step loop and the sched.Core scheduler can reach, in any package,
// must be a pure function of the seeds. Three hazards are checked on every
// function reachable (over call, dispatch and goroutine-spawn edges) from
// those roots:
//
//   - wall-clock reads and global-PRNG draws (the noclock tables), in
//     packages noclock does not already police;
//   - `go` statements and pageio.Go calls: a goroutine spawned under the
//     step loop races the deterministic schedule, so every such spawn must
//     carry an audited //lint:ignore detclosure explaining why its
//     interleaving cannot leak into simulation state;
//   - map iteration whose body appends, sends or prints — Go randomizes map
//     order, so the output order leaks the runtime's coin flips unless the
//     collected result is sorted afterwards (the collect-then-sort idiom is
//     recognized and allowed).
//
// Each diagnostic carries the root→function call path so the reader can see
// why an apparently unrelated package is inside the deterministic closure.
func DetClosure() *Analyzer {
	return &Analyzer{
		Name: "detclosure",
		Doc:  "everything reachable from the simtest step loop and sched.Core must be deterministic",
		Run:  runDetClosure,
	}
}

func runDetClosure(pass *Pass) {
	roots := detRoots(pass.Graph)
	if len(roots) == 0 {
		return
	}
	reached := pass.Graph.Reachable(roots, func(e *Edge) bool {
		return e.Kind != EdgeRef
	})
	dc := &detClosure{pass: pass, reached: reached}
	for _, n := range pass.Graph.NodesSorted() {
		if _, ok := reached[n.Func]; !ok {
			continue
		}
		dc.checkFunc(n)
	}
}

// detRoots selects the deterministic entry points: every method of the
// receiver types the policy table lists as roots (the simtest step loop, the
// sched scheduler core, the cluster controller, the delta compactor).
// Reconcile rounds and compaction drains run under the simulated clock, so a
// wall-clock read or unseeded draw anywhere in their reach would
// desynchronize replayed failovers and crash-mid-drain schedules.
func detRoots(g *Graph) []*types.Func {
	var roots []*types.Func
	for _, n := range g.NodesSorted() {
		if slices.Contains(policyOf(n.Func.Pkg().Path()).roots, recvTypeName(n.Func)) {
			roots = append(roots, n.Func)
		}
	}
	return roots
}

type detClosure struct {
	pass    *Pass
	reached map[*types.Func]*Edge
}

func (dc *detClosure) path(fn *types.Func) string {
	return strings.Join(dc.pass.Graph.PathTo(dc.reached, fn), " -> ")
}

func (dc *detClosure) checkFunc(n *Node) {
	if dc.pass.InTestFile(n.Decl.Pos()) {
		return
	}
	inNoclockPkg := policyOf(n.Func.Pkg().Path()).deterministic
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		if _, ok := spawnedCall(n.Unit.Info, x); ok {
			dc.pass.Reportf(x.Pos(),
				"goroutine spawned inside the deterministic closure (%s): its interleaving races the simulated schedule",
				dc.path(n.Func))
		}
		switch st := x.(type) {
		case *ast.CallExpr:
			if !inNoclockPkg { // noclock already reports these
				dc.checkClockCall(n, st)
			}
		case *ast.RangeStmt:
			dc.checkMapRange(n, st)
		}
		return true
	})
}

// checkClockCall applies noclock's matcher to one call site.
func (dc *detClosure) checkClockCall(n *Node, call *ast.CallExpr) {
	switch what, clock := nondetCall(n.Unit.Info, call); {
	case what == "":
	case clock:
		dc.pass.Reportf(call.Pos(),
			"%s reachable from the deterministic step loop (%s): use the injected clock", what, dc.path(n.Func))
	default:
		dc.pass.Reportf(call.Pos(),
			"global %s reachable from the deterministic step loop (%s): draw from a seeded source", what, dc.path(n.Func))
	}
}

// checkMapRange flags map iteration whose body produces order-sensitive
// output: appends that are never sorted afterwards, channel sends, or prints.
func (dc *detClosure) checkMapRange(n *Node, rng *ast.RangeStmt) {
	tv, ok := n.Unit.Info.Types[rng.X]
	if !ok {
		return
	}
	if _, ok := tv.Type.Underlying().(*types.Map); !ok {
		return
	}
	info := n.Unit.Info
	var appendTargets []types.Object
	sensitive := ""
	ast.Inspect(rng.Body, func(x ast.Node) bool {
		switch st := x.(type) {
		case *ast.SendStmt:
			sensitive = "channel send"
			return false
		case *ast.CallExpr:
			if fn := calleeFunc(info, st); fn != nil && fn.Pkg() != nil &&
				fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "Print") {
				sensitive = "fmt." + fn.Name()
				return false
			}
		case *ast.AssignStmt:
			// x = append(x, ...) — collect the target; sorted-later check below.
			for i, rhs := range st.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || len(st.Lhs) <= i {
					continue
				}
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
					continue
				}
				if id, ok := ast.Unparen(st.Lhs[i]).(*ast.Ident); ok {
					if obj := info.ObjectOf(id); obj != nil {
						appendTargets = append(appendTargets, obj)
					}
				}
			}
		}
		return true
	})
	if sensitive != "" {
		dc.pass.Reportf(rng.Pos(),
			"map iteration with order-sensitive body (%s) in the deterministic closure (%s): map order is randomized; iterate sorted keys",
			sensitive, dc.path(n.Func))
		return
	}
	for _, obj := range appendTargets {
		if !dc.sortedAfter(n, rng, obj) {
			dc.pass.Reportf(rng.Pos(),
				"map iteration appends to %s without sorting it afterwards (%s): map order is randomized; sort the result or iterate sorted keys",
				obj.Name(), dc.path(n.Func))
			return
		}
	}
}

// sortedAfter reports whether obj is passed to a sort/slices call after the
// range statement ends — the collect-then-sort idiom.
func (dc *detClosure) sortedAfter(n *Node, rng *ast.RangeStmt, obj types.Object) bool {
	info := n.Unit.Info
	sorted := false
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		pkg := fn.Pkg().Path()
		if pkg != "sort" && pkg != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && info.ObjectOf(id) == obj {
				sorted = true
				return false
			}
		}
		return true
	})
	return sorted
}
