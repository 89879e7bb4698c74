package simtest

import (
	"regexp"
	"strings"
	"testing"

	"cloudiq/internal/pageio"
)

type crashShape struct {
	name            string
	writers, cycles int
}

// crashShapes are the two pinned crash-cycle suites: coordinator + one writer
// for 51 cycles, and two writers for 21. Under -short (the race job) both run
// a reduced cycle count — still every mode twice — instead of skipping.
func crashShapes() []crashShape {
	if testing.Short() {
		return []crashShape{{"coord+1writer", 1, 12}, {"2writers", 2, 6}}
	}
	return []crashShape{{"coord+1writer", 1, 51}, {"2writers", 2, 21}}
}

// failScript fails the test with a reproducer `iqsim -script` replays.
func failScript(t *testing.T, sc *Script, format string, args ...any) {
	t.Helper()
	t.Fatalf(format+"\nsave this script and replay it with: go run ./cmd/iqsim -script FILE -v\n%s", append(args, sc)...)
}

// TestCrashCycles drives both crash-cycle suites and checks that every oracle
// holds at every cycle's quiescent point and that the run was not vacuous:
// each of the three crash modes happened (a mid-flush crash, a writer crash
// between transactions, a coordinator crash), a doomed commit really died
// mid-flush, transactions committed, faults were injected, and the same
// script reproduces bit for bit.
func TestCrashCycles(t *testing.T) {
	modes := []*regexp.Regexp{
		regexp.MustCompile(`(?m)^#\d+ crash-commit +w\d`),
		regexp.MustCompile(`(?m)^#\d+ crash +w\d`),
		regexp.MustCompile(`(?m)^#\d+ crash +coord`),
	}
	for _, sh := range crashShapes() {
		t.Run(sh.name, func(t *testing.T) {
			sc := CrashCycles(1, sh.writers, sh.cycles)
			rep, err := Run(bg(), Options{Script: sc})
			if err != nil {
				failScript(t, sc, "crash cycles failed [%s]: %v\n%s", Classify(err), err, rep.StepLog)
			}
			for _, m := range modes {
				if !m.MatchString(rep.StepLog) {
					t.Errorf("crash mode %s never exercised", m)
				}
			}
			if !strings.Contains(rep.StepLog, "mid-flush crash after") {
				t.Error("no commit was doomed mid-flush")
			}
			if rep.Commits == 0 {
				t.Error("no transaction ever committed; the workload is vacuous")
			}
			if rep.FaultEvents == 0 {
				t.Error("no fault was ever injected; the simulation is vacuous")
			}
			again, err := Run(bg(), Options{Script: sc})
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if rep.Fingerprint() != again.Fingerprint() {
				t.Fatalf("same script, different fingerprints:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
					rep.Fingerprint(), again.Fingerprint())
			}
			t.Logf("%d steps, %d commits, %d faults injected, %d keys", rep.Steps, rep.Commits, rep.FaultEvents, rep.StoreKeys)
		})
	}
}

// TestCrashCyclesSeedsVary spot-checks further seeds (other flush counts and
// fault schedules) so the suite does not overfit to one.
func TestCrashCyclesSeedsVary(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: TestCrashCycles is enough")
	}
	for _, seed := range []uint64{2, 7, 42} {
		for writers := 1; writers <= 2; writers++ {
			sc := CrashCycles(seed, writers, 18)
			if _, err := Run(bg(), Options{Script: sc}); err != nil {
				failScript(t, sc, "seed %d, %d writers [%s]: %v", seed, writers, Classify(err), err)
			}
		}
	}
}

// TestCrashCyclesBrokenRetryFails is the ablation from DESIGN.md: with the
// retry-until-found read policy cut to a single attempt, eventual consistency
// makes fresh pages 404 and both suites must report diverging committed data.
// If this test fails, the harness has stopped guarding the paper's central
// claim.
func TestCrashCyclesBrokenRetryFails(t *testing.T) {
	for _, sh := range crashShapes() {
		sc := CrashCycles(1, sh.writers, 12)
		_, err := Run(bg(), Options{Script: sc, BrokenRetry: true})
		if err == nil {
			t.Fatalf("%s: broken retry policy passed the suite; the oracles are vacuous", sh.name)
		}
		if cat := Classify(err); cat != "equivalence" {
			t.Fatalf("%s: broken retry policy failed as %q, want equivalence: %v", sh.name, cat, err)
		}
	}
}

// TestCrashCyclesPipelineStats attaches a pageio stats registry to every node
// and checks that the registry saw the dbspace traffic of a crash-cycle run:
// the whole simulation went through the unified pageio pipeline, not some
// side channel.
func TestCrashCyclesPipelineStats(t *testing.T) {
	reg := pageio.NewRegistry()
	sc := CrashCycles(1, 1, 12)
	if _, err := runWithStats(bg(), Options{Script: sc}, reg); err != nil {
		failScript(t, sc, "crash cycles failed: %v", err)
	}
	snap := reg.Snapshot()
	if l := snap["dbspace:user"]; l.Write.Calls == 0 || l.Write.Items == 0 || l.Read.Calls == 0 {
		t.Fatalf("dbspace:user saw read %+v write %+v; want both metered", l.Read, l.Write)
	}
	if l := snap["store:user"]; l.Write.Calls == 0 {
		t.Fatalf("store:user saw no writes: %+v", l.Write)
	}
}
