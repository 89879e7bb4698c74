package simtest

import (
	"strings"
	"testing"

	"cloudiq/internal/faultinject"
)

// TestPushdownSweep is the pushdown differential sweep: 200 seeds of
// query-mode scripts, each arming the pushdown oracle (every equivalence and
// scheduled-query scan randomly re-runs with store-side pushdown forced,
// unfiltered or under a drawn predicate, and must match the plain read) and
// the select fault family (so some pushed scans fall back to plain reads
// mid-query after an injected obj.select failure — the result must still be
// identical). The sweep also asserts the fault family actually fired, so a
// wiring regression cannot silently turn the fallback path into dead code.
func TestPushdownSweep(t *testing.T) {
	n := uint64(200)
	if testing.Short() {
		n = 25
	}
	selFaults := 0
	for seed := uint64(1); seed <= n; seed++ {
		rep, err := Run(bg(), Options{Seed: seed, Queries: true})
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
			continue
		}
		if !rep.Script.Pushdown || !rep.Script.FaultSelect {
			t.Fatalf("seed %d: query-mode script did not arm the pushdown oracle", seed)
		}
		if strings.Contains(rep.Trace, string(faultinject.ObjSelect)) {
			selFaults++
		}
	}
	if selFaults == 0 {
		t.Errorf("no run in the sweep injected an obj.select fault; mid-query fallback went unexercised")
	}
}

// TestPushdownSweepDeterministic: the pushdown oracle draws from its own
// seeded stream and obj.select faults from one stream per site, in call
// order, so a run whose pushed scans met an injected select fault must still
// replay bit for bit. Every such seed of the -short sweep is run twice.
func TestPushdownSweepDeterministic(t *testing.T) {
	replayed := 0
	for seed := uint64(1); seed <= 25; seed++ {
		a, errA := Run(bg(), Options{Seed: seed, Queries: true})
		if a == nil || !strings.Contains(a.Trace, string(faultinject.ObjSelect)) {
			continue
		}
		replayed++
		b, errB := Run(bg(), Options{Seed: seed, Queries: true})
		if (errA == nil) != (errB == nil) {
			t.Fatalf("seed %d: inconsistent outcome: %v vs %v", seed, errA, errB)
		}
		if a.Fingerprint() != b.Fingerprint() {
			t.Fatalf("seed %d: fingerprints diverged", seed)
		}
	}
	t.Logf("%d seeds replayed", replayed)
	if replayed == 0 {
		t.Fatal("no seed of the sweep injected an obj.select fault")
	}
}
