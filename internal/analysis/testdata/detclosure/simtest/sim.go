// Package simtest is the detclosure golden corpus for the step-loop root:
// the package base name and the runner receiver make every runner method a
// deterministic entry point, and everything it reaches must avoid wall
// clocks, goroutine spawns and order-sensitive map iteration.
package simtest

import (
	"sort"
	"time"

	"cloudiq/internal/pageio"
)

type runner struct {
	seen map[string]int
}

// run is the step loop root.
func (r *runner) run() {
	r.step()
}

func (r *runner) step() {
	_ = time.Now() // want "detclosure: time.Now reachable from the deterministic step loop"
	go watch()     // want "detclosure: goroutine spawned inside the deterministic closure"
	// A task handed to a reused worker is a spawn too.
	pageio.Go(func() { watch() }) // want "detclosure: goroutine spawned inside the deterministic closure"

	var keys []string
	for k := range r.seen { // want "detclosure: map iteration appends to keys"
		keys = append(keys, k)
	}
	emit(keys)

	// Collect-then-sort is the sanctioned idiom: clean.
	var ok []string
	for k := range r.seen {
		ok = append(ok, k)
	}
	sort.Strings(ok)
	emit(ok)

	// Order-insensitive aggregation is clean too.
	total := 0
	for _, v := range r.seen {
		total += v
	}
	_ = total
}

func watch() {}

func emit(s []string) { _ = s }
