package analysis

import "strings"

// policy is one row of the package-policy table: the rules a package owes
// and the ones it is exempt from.
type policy struct {
	deterministic bool          // noclock: no wall-clock reads, no global-PRNG draws
	ioLayer       bool          // iqerrcheck: callers must handle its methods' errors
	directIO      bool          // pageioonly exemption: may call stores and devices directly
	mintsKeys     bool          // keyhygiene exemption: may construct object keys
	faults        []*obligation // faultsite: method families that must reach a fault hook
	roots         []string      // detclosure: receiver types whose methods are deterministic roots
	spawns        []string      // package functions that run their func argument on another goroutine, as `go` does
}

// policies is the one place that names packages, keyed by import-path base
// name: a golden corpus under testdata/ takes on the duties of the engine
// package it is named after.
var policies = map[string]policy{
	// The simulation substrate. iomodel's charged simulated time is the
	// injected clock the other deterministic packages read.
	"iomodel": {deterministic: true},
	// The object store: part of the simulation substrate; the store
	// implementation itself (with its decorators), so it calls stores
	// directly; its writes and its compute pushdown must be fault-covered,
	// and its methods' errors carry the durability story.
	"objstore": {deterministic: true, ioLayer: true, directIO: true,
		faults: []*obligation{mutating, selecting}},
	// The block device: as objstore, without a pushdown.
	"blockdev": {deterministic: true, ioLayer: true, directIO: true,
		faults: []*obligation{mutating}},
	// The fault planner and the PRNG must replay from their seeds.
	"faultinject": {deterministic: true},
	"mt":          {deterministic: true},
	// The tracer: span timestamps come from an injected clock (usually
	// iomodel's), never from the wall.
	"trace": {deterministic: true},
	// The log and the object cache manager: their write paths must be
	// fault-covered and their errors handled.
	"wal": {ioLayer: true, faults: []*obligation{mutating}},
	"ocm": {ioLayer: true, faults: []*obligation{mutating}},
	// pageio owns the terminal handlers that call stores and devices, and
	// Go, which starts its argument on a reused worker goroutine: every
	// rule that looks at `go` statements sees pageio.Go(f) as one.
	"pageio": {directIO: true, faults: []*obligation{mutating}, spawns: []string{"Go"}},
	// The Object Key Generator is the minting authority behind
	// never-write-twice.
	"keygen": {mintsKeys: true},
	// tpch stages raw .tbl input corpora under human-named keys: load
	// input written once by the generator, not engine pages.
	"tpch": {directIO: true, mintsKeys: true},
	// The scheduler core runs under the simulated clock, and a query
	// admitted without a fault site is a rejection path never exercised.
	"sched": {faults: []*obligation{serving}, roots: []string{"Core"}},
	// The cluster controller: replayed failovers run under the simulated
	// clock, and a reconcile round the planner cannot crash is a
	// mid-takeover path never exercised.
	"cluster": {faults: []*obligation{reconcile}, roots: []string{"Controller"}},
	// The delta compactor: crash-mid-drain schedules replay under the
	// simulated clock, and a drain the planner cannot doom is a recovery
	// where trickle rows would be lost or duplicated.
	"delta": {faults: []*obligation{compact}, roots: []string{"Compactor"}},
	// The simulation tester's step loop.
	"simtest": {roots: []string{"runner"}},
}

// policyOf returns the row for an import path. A package under a testdata
// directory is a corpus fixture: it takes on the duties of the package it is
// named after but none of its exemptions, so a fixture sharing a name with
// an exempt package still exercises the rule.
func policyOf(path string) policy {
	p := policies[pkgBase(path)]
	if strings.Contains(path, "/testdata/") {
		p.directIO, p.mintsKeys = false, false
	}
	return p
}
