// Command iqbench regenerates the tables and figures of "Bringing
// Cloud-Native Storage to SAP IQ" (SIGMOD 2021) against the cloudiq engine
// and its simulated cloud substrate. Absolute numbers are simulated seconds
// at a reduced scale factor; the shape (who wins, by roughly what factor,
// where the crossovers fall) is the reproduction target.
//
// Usage:
//
//	iqbench -exp all                 # everything
//	iqbench -exp table2 -sf 0.01     # one experiment
//
// Experiments: table1, table2, table3, table4, table5, fig6, fig7, fig8,
// fig9, ablations, sched, failover, pushdown, ingest, all.
//
// The sched, failover, pushdown and ingest experiments have a JSON report;
// -out writes the report of the one selected experiment:
//
//	iqbench -exp sched -short -out BENCH_sched.json
//	iqbench -exp ingest -short -out BENCH_ingest.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cloudiq/internal/bench"
	"cloudiq/internal/pageio"
	"cloudiq/internal/trace"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (table1..table5, fig6..fig9, ablations, all)")
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor")
	timeScale := flag.Float64("timescale", 0.2, "real seconds per simulated second (larger = higher fidelity, slower)")
	seed := flag.Int64("seed", 1, "jitter seed")
	short := flag.Bool("short", false, "shrink scale factor and timescale for a fast smoke run (overrides -sf/-timescale)")
	iostats := flag.String("iostats", "", "write per-layer pageio statistics JSON to this file after the run")
	out := flag.String("out", "", "write the selected experiment's report JSON to this file (sched, failover, pushdown or ingest; not with -exp all)")
	failoverCycles := flag.Int("failover-cycles", 5, "kill/promote cycles for the failover experiment")
	traceOut := flag.String("trace", "", "write structured span JSON to this file after the run and print the slowest operation tree")
	flag.Parse()

	base := bench.Options{SF: *sf, TimeScale: *timeScale, Seed: *seed}
	if *short {
		base.SF = 0.002
		base.TimeScale = 0.01
	}
	if *iostats != "" {
		base.IOStats = pageio.NewRegistry()
	}
	if *traceOut != "" {
		// Timestamps are simulated nanoseconds (the bench env re-bases the
		// clock onto its iomodel scale), so the slow threshold is simulated
		// time too.
		base.Trace = trace.New(trace.Config{
			Capacity:      1 << 16,
			SlowThreshold: 50 * time.Millisecond,
			SlowN:         64,
		})
	}
	ctx := context.Background()
	if err := run(ctx, strings.ToLower(*exp), base, *out, *failoverCycles); err != nil {
		fmt.Fprintln(os.Stderr, "iqbench:", err)
		os.Exit(1)
	}
	if *iostats != "" {
		if err := writeStats(*iostats, base.IOStats); err != nil {
			fmt.Fprintln(os.Stderr, "iqbench:", err)
			os.Exit(1)
		}
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, base.Trace); err != nil {
			fmt.Fprintln(os.Stderr, "iqbench:", err)
			os.Exit(1)
		}
	}
}

// writeTrace dumps the collected spans and renders the slowest root
// operation as an indented tree (simulated durations).
func writeTrace(path string, t *trace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	spans, dropped := t.Snapshot()
	section(fmt.Sprintf("Trace: %d spans retained (%d dropped), JSON in %s", len(spans), dropped, path))
	if root, ok := trace.SlowestRoot(spans); ok {
		fmt.Printf("slowest retained operation (simulated time):\n")
		trace.Render(os.Stdout, spans, root.ID, 8)
	}
	return nil
}

// writeJSON dumps an experiment report as indented JSON to path, if one was
// given.
func writeJSON(path string, rep any) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("report written to %s\n", path)
	return nil
}

// writeStats dumps the per-layer I/O counters collected during the run.
func writeStats(path string, reg *pageio.StatsRegistry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(ctx context.Context, exp string, base bench.Options, out string, failoverCycles int) error {
	all := exp == "all"
	hasReport := map[string]bool{"sched": true, "failover": true, "pushdown": true, "ingest": true}
	if out != "" && !hasReport[exp] {
		return fmt.Errorf("-out writes one experiment's JSON report: use it with -exp sched, failover, pushdown or ingest, not %q", exp)
	}
	started := time.Now()

	var volumeRuns []bench.VolumeRun
	needVolumes := all || exp == "table2" || exp == "table3" || exp == "table4"

	if all || exp == "table1" {
		events, err := bench.RunTable1(ctx)
		if err != nil {
			return err
		}
		section("Table 1: recovery and garbage collection walkthrough")
		fmt.Print(bench.FormatTable1(events))
	}

	if needVolumes {
		var err error
		volumeRuns, err = bench.RunVolumeComparison(ctx, base)
		if err != nil {
			return err
		}
	}
	if all || exp == "table2" {
		section("Table 2: load and query times (simulated seconds) — S3 vs EBS vs EFS")
		fmt.Print(bench.FormatVolumeRuns(volumeRuns))
	}
	if all || exp == "table3" {
		costs, err := bench.Costs(volumeRuns, "m5ad.24xlarge")
		if err != nil {
			return err
		}
		section("Table 3: compute cost of the load and of the query run")
		fmt.Print(bench.FormatCosts(costs))
	}
	if all || exp == "table4" {
		var stored int64
		for _, r := range volumeRuns {
			if r.Volume == "s3" {
				stored = r.StoredBytes
			}
		}
		storage, err := bench.StorageCosts(stored)
		if err != nil {
			return err
		}
		section(fmt.Sprintf("Table 4: monthly data-at-rest cost (%d compressed bytes)", stored))
		fmt.Print(bench.FormatStorage(storage))
		// SF-1000-equivalent data volume, for comparison with the paper.
		exStorage, err := bench.StorageCosts(int64(float64(stored) * 1000 / base.SF))
		if err != nil {
			return err
		}
		section("Table 4 (extrapolated to SF 1000 data volume)")
		fmt.Print(bench.FormatStorage(exStorage))
	}

	if all || exp == "table5" || exp == "fig6" {
		runs, err := bench.RunOCM(ctx, base)
		if err != nil {
			return err
		}
		section("Figure 6 / Table 5: impact of the OCM on query execution")
		fmt.Print(bench.FormatOCM(runs))
	}

	if all || exp == "fig7" {
		points, err := bench.RunScaleUp(ctx, base)
		if err != nil {
			return err
		}
		section("Figure 7: scale-up behavior (16 / 48 / 96 CPUs)")
		fmt.Print(bench.FormatScaleUp(points))
	}

	if all || exp == "fig8" {
		samples, err := bench.RunLoadBandwidth(ctx, base)
		if err != nil {
			return err
		}
		section("Figure 8: network bandwidth utilization during load")
		fmt.Print(bench.FormatBandwidth(samples))
	}

	if all || exp == "fig9" {
		points, err := bench.RunScaleOut(ctx, base, []int{2, 4, 8})
		if err != nil {
			return err
		}
		section("Figure 9: scale-out behavior (8 query streams)")
		fmt.Print(bench.FormatScaleOut(points))
	}

	if all || exp == "ablations" {
		prefix, err := bench.AblationPrefixHashing(ctx, 60, base.TimeScale)
		if err != nil {
			return err
		}
		section("Ablations")
		fmt.Print(bench.FormatAblation("hashed key prefixes vs sequential (per-prefix throttling)", prefix))
		ranged, err := bench.AblationKeyRangeSize(ctx, 5000, 2*time.Millisecond, base.TimeScale)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatAblation("key-range caching vs one key per coordinator RPC", ranged))
		retry, err := bench.AblationRetryPolicy(ctx, 100)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatAblation("bounded read retries under eventual consistency", retry))
		wmode, err := bench.AblationOCMWriteMode(ctx, 200, base.TimeScale, base.Trace)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatAblation("OCM write-back vs write-through (churn burst)", wmode))
	}

	if all || exp == "sched" {
		rep, err := bench.RunSchedFleet(ctx, base, 240, 3)
		if err != nil {
			return err
		}
		section(fmt.Sprintf("Mixed fleet: %d concurrent queries, 3 priority lanes over %d readers", rep.Queries, rep.Readers))
		fmt.Print(bench.FormatSched(rep))
		if err := writeJSON(out, rep); err != nil {
			return err
		}
	}

	if all || exp == "failover" {
		rep, err := bench.RunFailover(ctx, base, failoverCycles)
		if err != nil {
			return err
		}
		section(fmt.Sprintf("Coordinator failover: %d kill/promote cycles under the reconcile-loop controller", rep.Cycles))
		fmt.Print(bench.FormatFailover(rep))
		if err := writeJSON(out, rep); err != nil {
			return err
		}
	}

	if all || exp == "pushdown" {
		rep, err := bench.RunPushdown(ctx, base)
		if err != nil {
			return err
		}
		section("Pushdown: store-side filter + partial aggregation vs plain reads")
		fmt.Print(bench.FormatPushdown(rep))
		if err := writeJSON(out, rep); err != nil {
			return err
		}
	}

	if all || exp == "ingest" {
		rep, err := bench.RunIngest(ctx, base)
		if err != nil {
			return err
		}
		section("Ingest: trickle inserts through the delta store, MVCC-merged scans, compaction drain")
		fmt.Print(bench.FormatIngest(rep))
		if err := writeJSON(out, rep); err != nil {
			return err
		}
	}

	known := map[string]bool{"all": true, "table1": true, "table2": true, "table3": true,
		"table4": true, "table5": true, "fig6": true, "fig7": true, "fig8": true,
		"fig9": true, "ablations": true, "sched": true, "failover": true, "pushdown": true,
		"ingest": true}
	if !known[exp] {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	fmt.Printf("\ncompleted in %.1fs wall time (sf=%g, timescale=%g)\n",
		time.Since(started).Seconds(), base.SF, base.TimeScale)
	return nil
}

func section(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}
