// Package graphdemo exercises the call-graph builder: direct calls,
// interface dispatch resolved by method-set satisfaction, method values
// taken as references, mutual recursion, and goroutine spawns.
package graphdemo

import "cloudiq/internal/pageio"

// Ringer is the dispatch interface.
type Ringer interface {
	Ring() int
}

// Bell satisfies Ringer with a pointer receiver.
type Bell struct{ n int }

func (b *Bell) Ring() int {
	b.n++
	return b.n
}

// Gong satisfies Ringer with a value receiver.
type Gong struct{}

func (Gong) Ring() int { return 0 }

// Dispatch calls through the interface: the graph adds dispatch edges to
// every satisfying concrete module type.
func Dispatch(r Ringer) int {
	return r.Ring()
}

// MethodValue takes a bound method value without calling it: a ref edge.
func MethodValue(b *Bell) func() int {
	return b.Ring
}

// Even and Odd are mutually recursive: a cycle in the graph.
func Even(n int) bool {
	if n == 0 {
		return true
	}
	return Odd(n - 1)
}

func Odd(n int) bool {
	if n == 0 {
		return false
	}
	return Even(n - 1)
}

// Spawn calls Ring on a new goroutine: a go edge, not a call edge.
func Spawn(b *Bell) {
	go func() {
		_ = b.Ring()
	}()
}

// SpawnWorker calls Ring on a pageio worker goroutine: a go edge as under
// go, and no call edge into pageio.Go.
func SpawnWorker(b *Bell) {
	pageio.Go(func() {
		_ = b.Ring()
	})
}
