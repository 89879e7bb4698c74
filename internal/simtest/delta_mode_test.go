package simtest

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"
)

// scriptFingerprint hashes the generator-visible surface of a script: the
// workload shape knobs and every step's full draw. Two scripts with the same
// fingerprint run the same simulation.
func scriptFingerprint(sc *Script) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "w=%d t=%d mr=%d ret=%d snap=%v", sc.Writers, sc.Tables, sc.MissReads, sc.Retent, sc.Snapshots)
	for _, st := range sc.Steps {
		fmt.Fprintf(h, "|%s %s %d %d %d", st.Op, st.Node, st.Table, st.Rows, st.Arg)
	}
	return h.Sum64()
}

// TestGeneratorFingerprintsPinned pins the byte-identical output of every
// generator mode at three seeds. The base, queries and cluster values
// predate the delta mode: adding an op family must never perturb the draw
// sequence of existing modes, or every recorded regression seed and every
// shrunken repro in the wild silently changes meaning.
func TestGeneratorFingerprintsPinned(t *testing.T) {
	pins := []struct {
		mode string
		gen  func(uint64) *Script
		seed uint64
		want uint64
	}{
		{"base", Generate, 2, 0x315ae856a20de893},
		{"base", Generate, 17, 0xf31775e71cea56d9},
		{"base", Generate, 413, 0xa5b6949464e7b7af},
		{"queries", GenerateQueries, 2, 0x2d017a734626b655},
		{"queries", GenerateQueries, 17, 0x19c80295e01e7162},
		{"queries", GenerateQueries, 413, 0xfc4b0219e1ac7ba3},
		{"cluster", GenerateCluster, 2, 0x0e324dd9f47ca3e1},
		{"cluster", GenerateCluster, 17, 0x511c2cec5b2a062b},
		{"cluster", GenerateCluster, 413, 0x0f02aeb9fcfdbe01},
		{"delta", GenerateDelta, 2, 0x7e030e6423a53a8e},
		{"delta", GenerateDelta, 17, 0x579a43312ff4089f},
		{"delta", GenerateDelta, 413, 0x428b67d6a339833b},
	}
	for _, p := range pins {
		if got := scriptFingerprint(p.gen(p.seed)); got != p.want {
			t.Errorf("%s seed %d: fingerprint 0x%016x, want 0x%016x (generator draw sequence changed)",
				p.mode, p.seed, got, p.want)
		}
	}
}

// TestDeltaSmokeSeeds runs the delta-mode workload — trickle inserts,
// freeze/compact cycles, mid-drain crash schedules — under the full oracle
// set, including the delta quiesce oracle.
func TestDeltaSmokeSeeds(t *testing.T) {
	n := uint64(20)
	if testing.Short() {
		n = 5
	}
	for seed := uint64(1); seed <= n; seed++ {
		if _, err := Run(bg(), Options{Seed: seed, Delta: true}); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestDeltaRegressionSeeds re-runs delta-mode seeds that exposed real engine
// bugs during development: 33, 41 and 59 died on replay resurrecting a
// doomed transaction's delta-insert records after a post-crash transaction
// reused its id (rows now ride the commit record, which leaves nothing to
// resurrect); 112, 159, 193 and 195 lost compacted rows (and leaked
// their segments) when a compaction swap raced a concurrent append
// transaction's publication of the same table.
func TestDeltaRegressionSeeds(t *testing.T) {
	seeds := []uint64{33, 41, 59, 112, 159, 193, 195}
	if testing.Short() {
		seeds = []uint64{41, 195}
	}
	for _, seed := range seeds {
		if _, err := Run(bg(), Options{Seed: seed, Delta: true}); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestDeltaScriptRoundTrip holds delta-mode scripts (delta directive, d-*
// ops, the delta fault family) to String→Parse→String stability.
func TestDeltaScriptRoundTrip(t *testing.T) {
	for _, seed := range []uint64{1, 2, 5, 42, 413} {
		sc := GenerateDelta(seed)
		text := sc.String()
		parsed, err := Parse(text)
		if err != nil {
			t.Fatalf("seed %d: parse: %v", seed, err)
		}
		if !reflect.DeepEqual(sc, parsed) {
			t.Fatalf("seed %d: round trip diverged:\n%s\n%s", seed, text, parsed.String())
		}
		if parsed.String() != text {
			t.Fatalf("seed %d: second String diverged", seed)
		}
	}
}
