package analysis

import (
	"go/types"
	"path/filepath"
	"testing"
)

// loadBaseGraph loads the patterns and builds the call graph over their base
// (non-test) units.
func loadBaseGraph(t *testing.T, patterns ...string) *Graph {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	units, err := loader.Load(patterns)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range loader.Errors {
		t.Fatalf("type error: %v", e)
	}
	var base []*Unit
	for _, u := range units {
		if !u.Test {
			base = append(base, u)
		}
	}
	if len(base) == 0 {
		t.Fatalf("patterns %v loaded no base units", patterns)
	}
	return BuildGraph(base)
}

func findNode(t *testing.T, g *Graph, display string) *Node {
	t.Helper()
	for _, n := range g.NodesSorted() {
		if FuncDisplay(n.Func) == display {
			return n
		}
	}
	t.Fatalf("no node %q in graph", display)
	return nil
}

// hasEdge reports whether from has an out-edge of the given kind to a node
// displayed as to.
func hasEdge(from *Node, kind EdgeKind, to string) bool {
	for _, e := range from.Out {
		if e.Kind == kind && FuncDisplay(e.To) == to {
			return true
		}
	}
	return false
}

func graphdemoPattern(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "callgraph"))
	if err != nil {
		t.Fatal(err)
	}
	return dir + "/..."
}

func TestCallGraphInterfaceDispatch(t *testing.T) {
	g := loadBaseGraph(t, graphdemoPattern(t))
	disp := findNode(t, g, "graphdemo.Dispatch")
	for _, want := range []string{"graphdemo.(*Bell).Ring", "graphdemo.(Gong).Ring"} {
		if !hasEdge(disp, EdgeDispatch, want) {
			t.Errorf("Dispatch lacks dispatch edge to %s; edges: %v", want, edgeStrings(disp))
		}
	}
	if hasEdge(disp, EdgeCall, "graphdemo.(*Bell).Ring") {
		t.Error("interface call recorded as a static call edge")
	}
}

func TestCallGraphMethodValue(t *testing.T) {
	g := loadBaseGraph(t, graphdemoPattern(t))
	mv := findNode(t, g, "graphdemo.MethodValue")
	if !hasEdge(mv, EdgeRef, "graphdemo.(*Bell).Ring") {
		t.Errorf("MethodValue lacks ref edge to (*Bell).Ring; edges: %v", edgeStrings(mv))
	}
	if hasEdge(mv, EdgeCall, "graphdemo.(*Bell).Ring") {
		t.Error("method value recorded as a call edge")
	}
}

func TestCallGraphRecursionCycle(t *testing.T) {
	g := loadBaseGraph(t, graphdemoPattern(t))
	even := findNode(t, g, "graphdemo.Even")
	odd := findNode(t, g, "graphdemo.Odd")
	if !hasEdge(even, EdgeCall, "graphdemo.Odd") || !hasEdge(odd, EdgeCall, "graphdemo.Even") {
		t.Fatal("mutual recursion edges missing")
	}
}

func TestCallGraphGoEdge(t *testing.T) {
	pageio, err := filepath.Abs(filepath.Join("..", "pageio"))
	if err != nil {
		t.Fatal(err)
	}
	// With pageio in the graph, a call edge into pageio.Go would show.
	g := loadBaseGraph(t, graphdemoPattern(t), pageio)
	spawn := findNode(t, g, "graphdemo.Spawn")
	if !hasEdge(spawn, EdgeGo, "graphdemo.(*Bell).Ring") {
		t.Errorf("Spawn lacks go edge to (*Bell).Ring; edges: %v", edgeStrings(spawn))
	}
	// pageio.Go(f) is the same spawn: a go edge into the literal's body and
	// no edge of any kind into pageio.Go.
	findNode(t, g, "pageio.Go")
	worker := findNode(t, g, "graphdemo.SpawnWorker")
	if !hasEdge(worker, EdgeGo, "graphdemo.(*Bell).Ring") || len(worker.Out) != 1 {
		t.Errorf("SpawnWorker wants one go edge, to (*Bell).Ring; edges: %v", edgeStrings(worker))
	}
}

func TestCallGraphReachability(t *testing.T) {
	g := loadBaseGraph(t, graphdemoPattern(t))
	even := findNode(t, g, "graphdemo.Even")
	odd := findNode(t, g, "graphdemo.Odd")
	reached := g.Reachable([]*types.Func{even.Func}, nil)
	if _, ok := reached[odd.Func]; !ok {
		t.Fatal("Odd not reachable from Even")
	}
	path := g.PathTo(reached, odd.Func)
	if len(path) != 2 || path[0] != "graphdemo.Even" || path[1] != "graphdemo.Odd" {
		t.Fatalf("unexpected path %v", path)
	}
}

// TestCallGraphCallers pins the reverse walk: each caller comes back with
// its edge toward the target, and a follow that keeps to the caller's
// goroutine does not cross a go edge.
func TestCallGraphCallers(t *testing.T) {
	g := loadBaseGraph(t, graphdemoPattern(t))
	odd := findNode(t, g, "graphdemo.Odd").Func
	even := findNode(t, g, "graphdemo.Even").Func
	callers := g.Callers([]*types.Func{odd}, nil)
	if e, ok := callers[odd]; !ok || e != nil {
		t.Errorf("root Odd: got edge %v, present %v; want a nil edge", e, ok)
	}
	if e := callers[even]; e == nil || e.From != even || e.To != odd || e.Kind != EdgeCall {
		t.Errorf("Even's edge toward Odd: got %+v", e)
	}

	ring := findNode(t, g, "graphdemo.(*Bell).Ring").Func
	callers = g.Callers([]*types.Func{ring}, onGoroutine)
	if e := callers[findNode(t, g, "graphdemo.Dispatch").Func]; e == nil || e.Kind != EdgeDispatch || e.To != ring {
		t.Errorf("Dispatch's edge toward Ring: got %+v", e)
	}
	for _, spawner := range []string{"graphdemo.Spawn", "graphdemo.SpawnWorker", "graphdemo.MethodValue"} {
		if e, ok := callers[findNode(t, g, spawner).Func]; ok {
			t.Errorf("%s reached over a %s edge", spawner, e.Kind)
		}
	}
	if len(callers) != 2 {
		t.Errorf("callers of Ring: got %d functions, want Ring and Dispatch", len(callers))
	}
	if _, ok := g.Callers([]*types.Func{ring}, nil)[findNode(t, g, "graphdemo.Spawn").Func]; !ok {
		t.Error("Spawn not reached over its go edge when every edge is followed")
	}
}

// TestCallGraphPageioDispatch pins the acceptance property on the real
// module: a pageio.Handler interface call inside one middleware resolves to
// dispatch edges reaching the other concrete middlewares.
func TestCallGraphPageioDispatch(t *testing.T) {
	pageio, err := filepath.Abs(filepath.Join("..", "pageio"))
	if err != nil {
		t.Fatal(err)
	}
	g := loadBaseGraph(t, pageio)
	meterRead := findNode(t, g, "pageio.(*meter).ReadPage")
	if !hasEdge(meterRead, EdgeDispatch, "pageio.(*retry).ReadPage") {
		t.Errorf("(*meter).ReadPage's Handler call lacks a dispatch edge to (*retry).ReadPage; edges: %v",
			edgeStrings(meterRead))
	}
}

func edgeStrings(n *Node) []string {
	var out []string
	for _, e := range n.Out {
		out = append(out, e.Kind.String()+"->"+FuncDisplay(e.To))
	}
	return out
}
