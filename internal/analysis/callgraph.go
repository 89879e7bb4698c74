package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// EdgeKind classifies how control may flow from caller to callee.
type EdgeKind uint8

const (
	// EdgeCall is a direct static call to a declared module function.
	EdgeCall EdgeKind = iota
	// EdgeDispatch is an interface-dispatch candidate: the call site invokes
	// an interface method and the target is a module type whose method set
	// satisfies that interface.
	EdgeDispatch
	// EdgeRef is a function or method value taken without being called at
	// that position (stored, passed as a callback, compared); conservatively
	// treated as a potential call for reachability.
	EdgeRef
	// EdgeGo is a call (direct or dispatched) whose callee is started as a
	// goroutine, either `go f()` or any call made inside a `go func(){...}()`
	// literal, and likewise for pageio.Go(f) (spawnedCall). Crossing an
	// EdgeGo enters a new goroutine: analyses that care about the caller's
	// context or its lock set must not follow it.
	EdgeGo
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeCall:
		return "call"
	case EdgeDispatch:
		return "dispatch"
	case EdgeRef:
		return "ref"
	case EdgeGo:
		return "go"
	}
	return "?"
}

// Edge is one caller→callee relationship with the source position that
// created it, for diagnostics.
type Edge struct {
	From, To *types.Func
	Kind     EdgeKind
	Pos      token.Pos
}

// Node is one declared function or method in the module. Calls made inside
// function literals are attributed to the enclosing declaration.
type Node struct {
	Func *types.Func
	Decl *ast.FuncDecl
	Unit *Unit
	Out  []*Edge
	In   []*Edge
}

// Graph is the whole-module call graph: static call edges plus
// interface-dispatch edges resolved by method-set satisfaction against every
// named type declared in the analyzed units.
type Graph struct {
	Nodes map[*types.Func]*Node
	order []*Node // position-sorted, for deterministic iteration
}

// BuildGraph constructs the call graph over the given units (callers should
// pass the base, non-test units: test variants re-type-check base files and
// would duplicate every node under fresh type identities).
func BuildGraph(units []*Unit) *Graph {
	g := &Graph{Nodes: make(map[*types.Func]*Node)}

	// Pass 1: index every declared function/method with a body.
	for _, u := range units {
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := u.Info.Defs[fd.Name].(*types.Func)
				if !ok || g.Nodes[fn] != nil {
					continue
				}
				g.Nodes[fn] = &Node{Func: fn, Decl: fd, Unit: u}
			}
		}
	}

	// Collect the concrete named types visible at package scope; they are
	// the dispatch candidates for interface method calls.
	var concrete []types.Type
	seenType := make(map[types.Type]bool)
	for _, u := range units {
		scope := u.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			t := tn.Type()
			if types.IsInterface(t) || seenType[t] {
				continue
			}
			seenType[t] = true
			concrete = append(concrete, t)
		}
	}

	// Pass 2: walk every body and record edges.
	for _, n := range g.nodesSorted() {
		w := &graphWalker{g: g, node: n, concrete: concrete}
		w.walk(n.Decl.Body, false)
	}

	// Deterministic edge order within each node.
	for _, n := range g.Nodes {
		sortEdges(n.Out)
		sortEdges(n.In)
	}
	return g
}

func sortEdges(edges []*Edge) {
	sort.SliceStable(edges, func(i, j int) bool {
		if edges[i].Pos != edges[j].Pos {
			return edges[i].Pos < edges[j].Pos
		}
		if edges[i].Kind != edges[j].Kind {
			return edges[i].Kind < edges[j].Kind
		}
		return FuncDisplay(edges[i].To) < FuncDisplay(edges[j].To)
	})
}

// nodesSorted returns the nodes in declaration-position order.
func (g *Graph) nodesSorted() []*Node {
	if g.order == nil || len(g.order) != len(g.Nodes) {
		g.order = g.order[:0]
		for _, n := range g.Nodes {
			g.order = append(g.order, n)
		}
		sort.Slice(g.order, func(i, j int) bool {
			if g.order[i].Decl.Pos() != g.order[j].Decl.Pos() {
				return g.order[i].Decl.Pos() < g.order[j].Decl.Pos()
			}
			return FuncDisplay(g.order[i].Func) < FuncDisplay(g.order[j].Func)
		})
	}
	return g.order
}

// NodesSorted exposes the deterministic node order to analyzers.
func (g *Graph) NodesSorted() []*Node { return g.nodesSorted() }

// graphWalker records edges for one node's body. inGo is true while walking
// statements that execute on a spawned goroutine (`go func(){...}` and
// pageio.Go(func(){...}) bodies).
type graphWalker struct {
	g        *Graph
	node     *Node
	concrete []types.Type
	callFuns map[ast.Node]bool // exprs consumed as the Fun of a call
}

func (w *graphWalker) walk(body ast.Node, inGo bool) {
	if w.callFuns == nil {
		w.callFuns = make(map[ast.Node]bool)
		ast.Inspect(body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				fun := ast.Unparen(call.Fun)
				w.callFuns[fun] = true
				if sel, ok := fun.(*ast.SelectorExpr); ok {
					w.callFuns[sel.Sel] = true
				}
			}
			return true
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := spawnedCall(w.node.Unit.Info, n); ok {
			// The spawned call itself plus everything inside a spawned
			// literal runs on another goroutine; a spawner such as
			// pageio.Go gets no call edge of its own.
			w.call(call, true)
			// Arguments are evaluated on the spawning goroutine; only the
			// spawned body runs on the new one.
			for _, arg := range call.Args {
				w.walk(arg, inGo)
			}
			if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
				w.walk(lit.Body, true)
			}
			return false
		}
		switch st := n.(type) {
		case *ast.CallExpr:
			w.call(st, inGo)
			return true
		case *ast.Ident:
			w.ref(st, inGo)
		}
		return true
	})
}

// call records the edge(s) for one call expression.
func (w *graphWalker) call(call *ast.CallExpr, inGo bool) {
	info := w.node.Unit.Info
	fn := calleeFunc(info, call)
	if fn == nil {
		return
	}
	kind := EdgeCall
	if inGo {
		kind = EdgeGo
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil &&
		types.IsInterface(sig.Recv().Type()) {
		w.dispatch(fn, call.Pos(), inGo)
		return
	}
	if w.g.Nodes[fn] == nil {
		return // external (stdlib) callee
	}
	w.add(&Edge{From: w.node.Func, To: fn, Kind: kind, Pos: call.Pos()})
}

// dispatch resolves an interface method call to every module type whose
// method set satisfies the interface.
func (w *graphWalker) dispatch(abstract *types.Func, pos token.Pos, inGo bool) {
	recv := abstract.Type().(*types.Signature).Recv().Type()
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return
	}
	kind := EdgeDispatch
	if inGo {
		kind = EdgeGo
	}
	for _, t := range w.concrete {
		pt := types.NewPointer(t)
		if !types.Implements(t, iface) && !types.Implements(pt, iface) {
			continue
		}
		ms := types.NewMethodSet(pt)
		for i := 0; i < ms.Len(); i++ {
			sel := ms.At(i)
			if sel.Obj().Name() != abstract.Name() {
				continue
			}
			target, ok := sel.Obj().(*types.Func)
			if ok && w.g.Nodes[target] != nil {
				w.add(&Edge{From: w.node.Func, To: target, Kind: kind, Pos: pos})
			}
		}
	}
}

// ref records a function or method value taken without calling it.
func (w *graphWalker) ref(id *ast.Ident, inGo bool) {
	if w.callFuns[id] {
		return
	}
	fn, ok := w.node.Unit.Info.Uses[id].(*types.Func)
	if !ok || w.g.Nodes[fn] == nil || fn == w.node.Func {
		return
	}
	kind := EdgeRef
	if inGo {
		kind = EdgeGo
	}
	w.add(&Edge{From: w.node.Func, To: fn, Kind: kind, Pos: id.Pos()})
}

func (w *graphWalker) add(e *Edge) {
	// Collapse duplicates (same target, kind and position), which dispatch
	// over overlapping method sets would otherwise produce.
	for _, have := range w.node.Out {
		if have.To == e.To && have.Kind == e.Kind && have.Pos == e.Pos {
			return
		}
	}
	w.node.Out = append(w.node.Out, e)
	if to := w.g.Nodes[e.To]; to != nil {
		to.In = append(to.In, e)
	}
}

// Reachable walks the graph from roots following the edges admitted by
// follow (nil follows every kind) and returns, for each reached function,
// the edge that first reached it (nil for the roots themselves). The walk is
// breadth-first over position-sorted edges, so the parent forest — and any
// diagnostic path built from it — is deterministic.
func (g *Graph) Reachable(roots []*types.Func, follow func(*Edge) bool) map[*types.Func]*Edge {
	reached := make(map[*types.Func]*Edge)
	var queue []*types.Func
	for _, r := range roots {
		if g.Nodes[r] != nil && !hasKey(reached, r) {
			reached[r] = nil
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, e := range g.Nodes[fn].Out {
			if follow != nil && !follow(e) {
				continue
			}
			if hasKey(reached, e.To) {
				continue
			}
			reached[e.To] = e
			queue = append(queue, e.To)
		}
	}
	return reached
}

func hasKey(m map[*types.Func]*Edge, k *types.Func) bool {
	_, ok := m[k]
	return ok
}

// PathTo reconstructs the root→fn call chain from a Reachable parent forest,
// rendered as function display names.
func (g *Graph) PathTo(reached map[*types.Func]*Edge, fn *types.Func) []string {
	var rev []string
	for cur := fn; ; {
		rev = append(rev, FuncDisplay(cur))
		e := reached[cur]
		if e == nil {
			break
		}
		cur = e.From
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// FuncDisplay renders a function for diagnostics: pkg.Name for package
// functions, pkg.(*Recv).Name for methods.
func FuncDisplay(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = pkgBase(fn.Pkg().Path()) + "."
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return pkg + fn.Name()
	}
	recv := sig.Recv().Type()
	star := ""
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
		star = "*"
	}
	name := recv.String()
	if named, ok := recv.(*types.Named); ok {
		name = named.Obj().Name()
	} else if iface, ok := recv.Underlying().(*types.Interface); ok {
		name = iface.String()
	}
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s(%s%s).%s", pkg, star, name, fn.Name())
}

// hasCtxParam reports whether fn's signature includes a context.Context
// parameter.
func hasCtxParam(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}
