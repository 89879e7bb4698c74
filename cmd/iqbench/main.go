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
// Experiments: table1, table2, fig6, fig7, fig8, fig9, ablations, sched,
// failover, pushdown, ingest, all.
//
// The list is bench.Experiments. One run can print several of the paper's
// tables, so table3 and table4 are accepted for table2, and table5 for fig6.
//
// -out writes the run's report: one envelope (build, options, then per
// experiment its result and the per-layer I/O counters it accumulated) for
// any selection, `all` included:
//
//	iqbench -exp sched -short -out BENCH_sched.json
//	iqbench -exp all -short -out BENCH_smoke.json
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
	"cloudiq/internal/trace"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: "+strings.Join(bench.Names(), ", ")+", or all")
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor")
	timeScale := flag.Float64("timescale", 0.2, "real seconds per simulated second (larger = higher fidelity, slower)")
	seed := flag.Int64("seed", 1, "jitter seed")
	short := flag.Bool("short", false, "shrink scale factor and timescale for a fast smoke run (overrides -sf/-timescale)")
	out := flag.String("out", "", "write the run's JSON report (every selected experiment's result and per-layer I/O counters) to this file")
	traceOut := flag.String("trace", "", "write structured span JSON to this file after the run and print the slowest operation tree")
	flag.Parse()

	base := bench.Options{SF: *sf, TimeScale: *timeScale, Seed: *seed}
	if *short {
		base.SF, base.TimeScale = bench.Short.SF, bench.Short.TimeScale
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
	if err := run(context.Background(), strings.ToLower(*exp), base, *out); err != nil {
		fmt.Fprintln(os.Stderr, "iqbench:", err)
		os.Exit(1)
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

// run executes the selected experiments in table order, printing each one's
// tables as it finishes, and writes the report to out if one was asked for.
func run(ctx context.Context, exp string, base bench.Options, out string) error {
	selected, err := bench.Select(exp)
	if err != nil {
		return err
	}
	started := time.Now()
	report := bench.NewReport(base)
	for _, e := range selected {
		entry, err := e.Report(ctx, base)
		if err != nil {
			return err
		}
		section(e.Title)
		fmt.Print(entry.Result.Table())
		report.Experiments = append(report.Experiments, entry)
	}
	if out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nreport written to %s\n", out)
	}
	fmt.Printf("\ncompleted in %.1fs wall time (sf=%g, timescale=%g)\n",
		time.Since(started).Seconds(), base.SF, base.TimeScale)
	return nil
}

func section(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}
