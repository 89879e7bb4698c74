// Package lockorda is the lockorder golden corpus driver: Fwd orders A.mu
// before lockordb's B.Mu interprocedurally (the acquisition is inside Bump,
// one call deep and one package away), Rev orders them the other way around
// directly — a cross-package lock-order cycle, reported once.
package lockorda

import (
	"sync"

	"cloudiq/internal/analysis/testdata/lockorder/lockordb"
)

// A is the upstream structure holding its own lock plus a guarded B.
type A struct {
	mu sync.Mutex
	n  int
	b  *lockordb.B
}

// Fwd acquires A.mu, then B.Mu via the interprocedural Bump call.
func (a *A) Fwd() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n++
	a.b.Bump() // want "lockorder: lock-order cycle (potential deadlock): lockorda.A.mu before lockordb.B.Mu (via lockordb.(*B).Bump), then lockordb.B.Mu before lockorda.A.mu"
}

// Rev acquires B.Mu first, then A.mu — the reverse order.
func (a *A) Rev() {
	a.b.Mu.Lock()
	defer a.b.Mu.Unlock()
	a.mu.Lock()
	a.n++
	a.mu.Unlock()
}

// Consistent always takes the locks in Fwd's order; it adds a parallel edge
// but no cycle and must stay silent.
func (a *A) Consistent() {
	a.mu.Lock()
	a.b.Mu.Lock()
	a.n++
	a.b.Mu.Unlock()
	a.mu.Unlock()
}

// C's TwoOne releases mu2 and returns on one branch but still holds it on
// the path that goes on to take mu1: with OneTwo, a cycle behind an early
// unlock.
type C struct {
	mu1, mu2 sync.Mutex
	n        int
}

// OneTwo takes mu1, then mu2.
func (c *C) OneTwo() {
	c.mu1.Lock()
	c.mu2.Lock() // want "lockorder: lock-order cycle (potential deadlock): lockorda.C.mu1 before lockorda.C.mu2, then lockorda.C.mu2 before lockorda.C.mu1"
	c.n++
	c.mu2.Unlock()
	c.mu1.Unlock()
}

// TwoOne takes mu2, then mu1 unless it leaves early.
func (c *C) TwoOne(done bool) {
	c.mu2.Lock()
	if done {
		c.mu2.Unlock()
		return
	}
	c.mu1.Lock()
	c.n++
	c.mu1.Unlock()
	c.mu2.Unlock()
}

// D is C with the early exit a continue inside a range loop.
type D struct {
	mu1, mu2 sync.Mutex
	n        int
}

// OneTwo takes mu1, then mu2.
func (d *D) OneTwo() {
	d.mu1.Lock()
	d.mu2.Lock() // want "lockorder: lock-order cycle (potential deadlock): lockorda.D.mu1 before lockorda.D.mu2, then lockorda.D.mu2 before lockorda.D.mu1"
	d.n++
	d.mu2.Unlock()
	d.mu1.Unlock()
}

// TwoOne takes mu2, then mu1 for every non-zero x.
func (d *D) TwoOne(xs []int) {
	for _, x := range xs {
		d.mu2.Lock()
		if x == 0 {
			d.mu2.Unlock()
			continue
		}
		d.mu1.Lock()
		d.n += x
		d.mu1.Unlock()
		d.mu2.Unlock()
	}
}

// E's RefillLocked is called with mu1 held, drops it, retakes it and then
// takes mu2: the walk goes on past an Unlock of a lock the function never
// took, so the retaken mu1 orders mu2 and closes the cycle with TwoOne.
type E struct {
	mu1, mu2 sync.Mutex
	n        int
}

// RefillLocked must be called with mu1 held.
func (e *E) RefillLocked() {
	e.mu1.Unlock()
	e.n++
	e.mu1.Lock()
	e.mu2.Lock() // want "lockorder: lock-order cycle (potential deadlock): lockorda.E.mu1 before lockorda.E.mu2, then lockorda.E.mu2 before lockorda.E.mu1"
	e.n++
	e.mu2.Unlock()
}

// TwoOne takes mu2, then mu1.
func (e *E) TwoOne() {
	e.mu2.Lock()
	e.mu1.Lock()
	e.n++
	e.mu1.Unlock()
	e.mu2.Unlock()
}
