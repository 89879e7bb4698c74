package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cloudiq"
	"cloudiq/internal/column"
	"cloudiq/internal/objstore"
	"cloudiq/tpch"
)

// TestSmoke drives the whole harness at go-test scale: all four workloads,
// untraced and traced, the golden check, the probes and the results schema.
func TestSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "smoke.json")
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-smoke", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("smoke run exited %d\nstderr:\n%s", code, stderr.String())
	}
	f, err := readResults(out)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Smoke {
		t.Error("results not stamped smoke")
	}
	if want := 2 * len(workloadDefs); len(f.Runs) != want {
		t.Fatalf("%d runs recorded, want %d", len(f.Runs), want)
	}
	for _, r := range f.Runs {
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v", r.Workload, r.Trace, r.Correct, r.Attempted, r.Failed, r.Problems)
		}
		defs := endToEnd
		if r.Trace {
			defs = perLayer
		}
		if len(r.Metrics) != len(defs) {
			t.Errorf("%s trace=%v: %d metrics, want %d", r.Workload, r.Trace, len(r.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := r.Metrics[d.Name]
			if !ok || m.Unit != d.Unit || m.Clock != d.Clock {
				t.Errorf("%s: metric %s = %+v, want unit %s clock %s", r.Workload, d.Name, m, d.Unit, d.Clock)
			}
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: metric %s is %v", r.Workload, d.Name, m.Value)
			}
			if !r.Trace && m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; none may be zero", r.Workload, d.Name, m.Value)
			}
		}
	}
	// Every printed metric carries its unit and clock.
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !strings.Contains(stdout.String(), d.Name) {
			t.Errorf("metric %s never printed", d.Name)
		}
	}

	stderr.Reset()
	if code := compareMain([]string{out, out}, &stdout, &stderr); code == 0 || !strings.Contains(stderr.String(), "smoke") {
		t.Errorf("compare accepted smoke results (exit %d): %s", code, stderr.String())
	}
}

// TestDriverLine checks the one-run contract: the last line of standard
// output is a JSON object with exactly the four keys, and every metric is
// exactly a value and a unit.
func TestDriverLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	argv := []string{"-smoke", "--workload", "power_warm", "--seed", "7", "--seconds", "0.3", "--trace", "0"}
	if code := realMain(argv, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(got) != 4 {
		t.Errorf("result line has keys %v", got)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want the %d end-to-end ones", len(metrics), len(endToEnd))
	}
	for name, m := range metrics {
		if len(m) != 2 || m["value"] == nil || m["unit"] == nil {
			t.Errorf("metric %s = %v, want exactly value and unit", name, m)
		}
	}
	if code := realMain([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Error("unknown workload exited 0")
	}
}

// TestManifest pins BENCHMARK.json to the metric tables and its limits.
func TestManifest(t *testing.T) {
	want, err := json.MarshalIndent(manifest(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), want) {
		t.Error("BENCHMARK.json differs from `benchmark manifest`; regenerate it")
	}
	if n := len(perLayer); n > 128 {
		t.Errorf("%d per-layer metrics, the driver takes at most 128", n)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 || d.Clock == "" {
			t.Errorf("bad metric declaration %+v", d)
		}
		seen[d.Name] = true
	}
	for _, w := range workloadDefs {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for name := range seen {
		if !bytes.Contains(readme, []byte("`"+name+"`")) {
			t.Errorf("README glossary lacks %s", name)
		}
	}
}

// TestDecoratorForwardsSelect: a timing wrapper that swallowed the Selector
// capability would turn every pushdown into a silent fallback. A forced-
// pushdown aggregate through the wrapper must reach the store's compute
// endpoint and return bytes identical to the bare store's.
func TestDecoratorForwardsSelect(t *testing.T) {
	ctx := context.Background()
	input := objstore.NewMem(objstore.Config{})
	if _, err := tpch.Generate(ctx, input, inputPrefix, sfSmoke, filesPerTable); err != nil {
		t.Fatal(err)
	}
	run := func(wrap bool) (*cloudiq.Batch, *objstore.MemStore) {
		mem := objstore.NewMem(objstore.Config{})
		var store objstore.Store = mem
		if wrap {
			store = &timedStore{inner: mem, now: time.Now}
		}
		// A tiny buffer keeps the pages cold, so the scan has to go to the store.
		db, err := cloudiq.Open(ctx, cloudiq.Config{CacheBytes: 16 << 10, Compress: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.AttachCloudDbspace(dbspace, store, cloudiq.CloudOptions{}); err != nil {
			t.Fatal(err)
		}
		tx := db.Begin()
		if _, err := tpch.LoadAll(ctx, tx, dbspace, input, inputPrefix, sfSmoke, loadParallel, segRows); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		db.WaitIO()
		rtx := db.Begin()
		tbl, err := rtx.Table(ctx, dbspace, "lineitem")
		if err != nil {
			t.Fatal(err)
		}
		out, err := cloudiq.ScanAgg(ctx, tbl, q6Cols,
			cloudiq.ScanOptions{Filter: q6Filter(), Pushdown: cloudiq.PushdownForce}, q6Aggs())
		if err != nil {
			t.Fatal(err)
		}
		return out, mem
	}
	bare, bareStore := run(false)
	wrapped, wrappedStore := run(true)
	if bareStore.Metrics().Selects() == 0 {
		t.Fatal("forced pushdown never reached the bare store; the test does not exercise Select")
	}
	if got, want := wrappedStore.Metrics().Selects(), bareStore.Metrics().Selects(); got != want {
		t.Errorf("%d selects through the wrapper, %d on the bare store", got, want)
	}
	if len(bare.Vecs) != len(wrapped.Vecs) {
		t.Fatalf("result shapes differ")
	}
	for i := range bare.Vecs {
		if !bytes.Equal(column.EncodeSegment(bare.Vecs[i]), column.EncodeSegment(wrapped.Vecs[i])) {
			t.Errorf("column %d differs through the wrapper", i)
		}
	}
}

func TestStatistics(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got, want := iqrShare(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v", got)
	}
	if got := percentile(xs, 100); got != 10 {
		t.Errorf("p100 = %v", got)
	}
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean = %v", got)
	}
	for _, c := range []struct {
		worse, spread, bound float64
		want                 string
	}{
		{0.12, 0.02, 0.10, "worse"},
		{0.05, 0.02, 0.10, "within"},
		{0.05, 0.15, 0.10, "unresolved"},
		{-0.08, 0.02, 0.10, "better"},
		{-0.01, 0.02, 0.10, "within"},
	} {
		if got := verdict(c.worse, c.spread, c.bound); got != c.want {
			t.Errorf("verdict(%v, %v, %v) = %s, want %s", c.worse, c.spread, c.bound, got, c.want)
		}
	}
}

// TestCompareRefusesDifferentEnv: two runs are only put side by side when
// they measured the same thing.
func TestCompareRefusesDifferentEnv(t *testing.T) {
	mk := func(seconds int) *resultsFile {
		f := &resultsFile{Schema: resultsSchema, Env: describeEnv(sfFull, seconds)}
		for _, w := range workloadDefs {
			vals := map[string]float64{}
			for _, d := range endToEnd {
				vals[d.Name] = 1
			}
			ms, err := fill(endToEnd, vals, nil)
			if err != nil {
				t.Fatal(err)
			}
			f.Runs = append(f.Runs, runResult{Workload: w.Name, Seed: 1, Correct: true, Attempted: 1, Metrics: ms})
		}
		return f
	}
	if err := comparable(mk(15), mk(15)); err != nil {
		t.Errorf("identical environments refused: %v", err)
	}
	if err := comparable(mk(15), mk(20)); err == nil {
		t.Error("different run lengths accepted")
	}
	other := mk(15)
	other.Runs[0].Seed = 2
	if err := comparable(mk(15), other); err == nil {
		t.Error("different seeds accepted")
	}
	var buf bytes.Buffer
	if regressed := writeComparison(&buf, mk(15), mk(15)); regressed || !strings.Contains(buf.String(), "within") {
		t.Errorf("A/A comparison of equal values: regressed=%v\n%s", regressed, buf.String())
	}
}
