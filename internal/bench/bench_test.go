package bench

import (
	"context"
	"strings"
	"testing"
)

func ctxb() context.Context { return context.Background() }

// fast returns options small enough for unit tests.
func fast() Options {
	return Options{SF: 0.005, TimeScale: 0.2, FilesPerTable: 4, SegRows: 1024}
}

func TestSetupAndPowerOnEveryVolume(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated-latency experiment")
	}
	runs, err := RunVolumeComparison(ctxb(), fast())
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("runs = %d", len(runs))
	}
	byVol := map[string]VolumeRun{}
	for _, r := range runs {
		byVol[r.Volume] = r
		if r.LoadSim <= 0 || r.GeoMean <= 0 {
			t.Fatalf("%s: load %.3f geomean %.3f", r.Volume, r.LoadSim, r.GeoMean)
		}
	}
	// The paper's headline shape: S3 loads faster than EBS, which loads
	// faster than EFS; S3's query geomean beats EFS. Timing shapes are
	// meaningless under the race detector's CPU inflation.
	if raceEnabled {
		t.Log("race detector active: skipping timing-shape assertions")
		return
	}
	if byVol["s3"].LoadSim >= byVol["ebs"].LoadSim {
		t.Errorf("load: S3 %.2fs not faster than EBS %.2fs", byVol["s3"].LoadSim, byVol["ebs"].LoadSim)
	}
	if byVol["ebs"].LoadSim >= byVol["efs"].LoadSim {
		t.Errorf("load: EBS %.2fs not faster than EFS %.2fs", byVol["ebs"].LoadSim, byVol["efs"].LoadSim)
	}
	if byVol["s3"].GeoMean >= byVol["efs"].GeoMean {
		t.Errorf("geomean: S3 %.3fs not faster than EFS %.3fs", byVol["s3"].GeoMean, byVol["efs"].GeoMean)
	}
	if byVol["s3"].StoredBytes <= 0 || byVol["s3"].LoadPuts <= 0 {
		t.Errorf("S3 accounting: %+v", byVol["s3"])
	}

	for _, r := range runs {
		if r.LoadCost <= 0 || r.QueryCost <= 0 {
			t.Errorf("%s: unpriced run: load $%g, query $%g", r.Volume, r.LoadCost, r.QueryCost)
		}
	}
	if !(runs[0].Monthly < runs[1].Monthly && runs[1].Monthly < runs[2].Monthly) {
		t.Errorf("storage cost ordering wrong: %+v", runs)
	}
	// EFS costs ~13x S3 for the same bytes.
	if ratio := runs[2].Monthly / runs[0].Monthly; ratio < 12 || ratio > 14 {
		t.Errorf("EFS/S3 storage ratio = %.1f", ratio)
	}
	if s := runs.Table(); strings.Count(s, "S3") < 4 {
		t.Errorf("Tables 2, 3, 4 and 4-extrapolated should each have an S3 row:\n%s", s)
	}
}

func TestOCMExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated-latency experiment")
	}
	runs, err := RunOCM(ctxb(), fast(), M5ad4xl)
	if err != nil {
		t.Fatal(err)
	}
	r := runs[0]
	if r.Hits == 0 {
		t.Fatalf("OCM saw no hits: %+v", r)
	}
	if r.AvertedGets != r.Hits {
		t.Fatalf("averted %d != hits %d", r.AvertedGets, r.Hits)
	}
	// The OCM must help overall (geomean improvement, as in §6's ~25%).
	with := geoMean(r.WithOCM[:])
	without := geoMean(r.WithoutOCM[:])
	if raceEnabled {
		t.Log("race detector active: skipping timing-shape assertions")
		return
	}
	if with >= without {
		t.Errorf("OCM did not improve geomean: %.3f vs %.3f", with, without)
	}
	out := runs.Table()
	if !strings.Contains(out, "cache hits") {
		t.Errorf("FormatOCM output:\n%s", out)
	}
}

func TestScaleUpShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated-latency experiment")
	}
	points, err := RunScaleUp(ctxb(), fast())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	// More CPUs must not slow the suite down; 16 -> 96 CPUs must speed the
	// total up substantially (the paper sees near-linear, then flattening).
	if raceEnabled {
		t.Log("race detector active: skipping timing-shape assertions")
		return
	}
	if points[2].TotalSim >= points[0].TotalSim {
		t.Errorf("scale-up: 96 CPUs (%.2fs) not faster than 16 (%.2fs)", points[2].TotalSim, points[0].TotalSim)
	}
	if s := points.Table(); !strings.Contains(s, "m5ad.24xlarge") {
		t.Errorf("format:\n%s", s)
	}
}

func TestLoadBandwidthSamples(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated-latency experiment")
	}
	opts := fast()
	samples, err := RunLoadBandwidth(ctxb(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no bandwidth samples; increase TimeScale")
	}
	var peak float64
	for _, s := range samples {
		if s.Gbps > peak {
			peak = s.Gbps
		}
	}
	if peak <= 0 {
		t.Fatal("no traffic observed during load")
	}
	// The NIC model caps the 24xlarge at 9 Gbit/s (unscaled); individual
	// samples can overshoot when an in-flight transfer is counted at the
	// window boundary, but not wildly.
	if peak > 14 {
		t.Errorf("peak bandwidth %.1f Gbit/s exceeds the 9 Gbit/s model", peak)
	}
	_ = samples.Table()
}

func TestScaleOutShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated-latency experiment")
	}
	opts := fast()
	opts.TimeScale = 0.1
	points, err := RunScaleOut(ctxb(), opts, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	// Four nodes must beat one node clearly on the 8-stream workload.
	if raceEnabled {
		t.Log("race detector active: skipping timing-shape assertions")
		return
	}
	if points[1].TotalSim >= points[0].TotalSim {
		t.Errorf("scale-out: 4 nodes (%.2fs) not faster than 1 (%.2fs)", points[1].TotalSim, points[0].TotalSim)
	}
	if s := points.Table(); !strings.Contains(s, "4") {
		t.Errorf("format:\n%s", s)
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated-latency experiment")
	}
	prefix, err := AblationPrefixHashing(ctxb(), Options{TimeScale: 0.005}, 40)
	if err != nil {
		t.Fatal(err)
	}
	if prefix[0].Variant != "hashed" || prefix[1].Variant != "sequential" {
		t.Fatalf("variants: %+v", prefix)
	}
	if raceEnabled {
		t.Log("race detector active: skipping timing-shape assertions")
		return
	}
	if prefix[0].SimSec >= prefix[1].SimSec {
		t.Errorf("hashed prefixes (%.3fs) not faster than sequential (%.3fs) under throttling",
			prefix[0].SimSec, prefix[1].SimSec)
	}

	ranged, err := AblationKeyRangeSize(ctxb(), Options{TimeScale: 0.005}, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if ranged[0].SimSec >= ranged[1].SimSec {
		t.Errorf("range caching (%.3fs) not faster than per-key RPCs (%.3fs)",
			ranged[0].SimSec, ranged[1].SimSec)
	}

	retry, err := AblationRetryPolicy(ctxb(), Options{}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(retry[0].Note, "50/50 reads failed") {
		t.Errorf("retries=1 should fail every fresh read: %+v", retry[0])
	}
	if !strings.Contains(retry[1].Note, "0/50 reads failed") {
		t.Errorf("retries=8 should recover every read: %+v", retry[1])
	}
	_ = Ablations{{Title: "prefixes", Rows: prefix}}.Table()
}
