// Command benchmark is cloudiq's benchmark: four workloads over the simulated
// substrate, every metric on exactly one clock (wall, sim or count), results
// checked for correctness, per-layer attribution measured from outside the
// engine. See README.md in this directory.
//
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run (the driver's contract)
//	bash benchmark/run.sh [-seed N] [-out results.json]                   every workload, untraced then traced
//	bash benchmark/run.sh -smoke                                          the same at go-test scale
//	bash benchmark/run.sh compare old.json new.json                       before/after table
//	bash benchmark/run.sh manifest                                        print BENCHMARK.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

// Run parameters the driver does not pass.
const (
	defaultRunSeconds = 15
	defaultSetupReps  = 3
	smokeSeconds      = 0.6
)

func main() {
	runtime.GOMAXPROCS(maxProcs)
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(argv []string, stdout, stderr io.Writer) int {
	if len(argv) > 0 {
		switch argv[0] {
		case "compare":
			return compareMain(argv[1:], stdout, stderr)
		case "manifest":
			data, err := json.MarshalIndent(manifest(), "", "  ")
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "%s\n", data)
			return 0
		case "glossary":
			writeGlossary(stdout)
			return 0
		}
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "", "run one workload and print the driver's result line; empty runs all four, untraced then traced")
		seed         = fs.Int64("seed", 1, "drives the query order, the device jitter streams and the trickle rows")
		seconds      = fs.Float64("seconds", defaultRunSeconds, "timed window of a run")
		traceFlag    = fs.Int("trace", 0, "1 measures the per-layer metrics instead of the end-to-end ones")
		smoke        = fs.Bool("smoke", false, "go-test scale: tiny dataset, sub-second windows; results are stamped and compare refuses them")
		out          = fs.String("out", "", "append every run to this results file")
		updateGolden = fs.String("update-golden", "", "write the golden fingerprints for the scale factor to this golden.json instead of checking them")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	base := runConfig{Seed: *seed, Seconds: *seconds, SF: sfFull, SetupReps: defaultSetupReps, ProbeBudget: probeBudget}
	if *smoke {
		base.SF, base.SetupReps, base.ProbeBudget = sfSmoke, 1, probeBudget/10
		if !seen(fs, "seconds") {
			base.Seconds = smokeSeconds
		}
	}
	ctx := context.Background()

	if *updateGolden != "" {
		return recordGolden(ctx, base, *updateGolden, stdout, stderr)
	}

	var configs []runConfig
	if *workloadName != "" {
		c := base
		c.Workload, c.Trace = *workloadName, *traceFlag != 0
		configs = []runConfig{c}
	} else {
		for _, w := range workloadDefs {
			for _, traced := range []bool{false, true} {
				c := base
				c.Workload, c.Trace = w.Name, traced
				configs = append(configs, c)
			}
		}
	}

	file := &resultsFile{Schema: resultsSchema, Smoke: *smoke, Env: describeEnv(base.SF, int(base.Seconds))}
	ok := true
	var last *runResult
	for _, c := range configs {
		res, err := runOne(ctx, c)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", c.Workload, err)
			return 1
		}
		printRun(stdout, res)
		for _, p := range res.Problems {
			fmt.Fprintf(stderr, "benchmark: %s: %s\n", c.Workload, p)
		}
		ok = ok && res.Correct
		file.Runs = append(file.Runs, *res)
		last = res
	}
	if *out != "" {
		if err := appendResults(*out, file); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if *workloadName != "" {
		// The driver reads the last line of standard output.
		if code := emit(stdout, stderr, driverLine(last)); code != 0 {
			return code
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// seen reports whether the named flag was given on the command line.
func seen(fs *flag.FlagSet, name string) bool {
	found := false
	fs.Visit(func(f *flag.Flag) { found = found || f.Name == name })
	return found
}

// driverLine is the one JSON object the driver parses: exactly these keys,
// each metric exactly a value and a unit.
func driverLine(r *runResult) any {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]vu, len(r.Metrics))
	for name, m := range r.Metrics {
		metrics[name] = vu{m.Value, m.Unit}
	}
	return struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics}
}

func emit(stdout, stderr io.Writer, v any) int {
	data, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return 0
}

// printRun lists every metric of a run by name with its unit, clock and, for
// medians and percentiles, the sample count.
func printRun(w io.Writer, r *runResult) {
	kind := "end-to-end"
	if r.Trace {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "== %s seed=%d %s (%.3g s window): attempted %d, failed %d, correct %v\n",
		r.Workload, r.Seed, kind, r.Seconds, r.Attempted, r.Failed, r.Correct)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("  n=%d", m.N)
		}
		fmt.Fprintf(w, "%-44s %16.6g %-12s [%s]%s\n", name, m.Value, m.Unit, m.Clock, n)
	}
}

// recordGolden runs power_warm and bulk_load in record mode and writes what
// they produced as the golden values for the scale factor.
func recordGolden(ctx context.Context, base runConfig, path string, stdout, stderr io.Writer) int {
	g := &goldenSet{Queries: make(map[string]string)}
	for _, name := range []string{"power_warm", "bulk_load"} {
		c := base
		c.Workload, c.SetupReps, c.record = name, 1, g
		res, err := runOne(ctx, c)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		if !res.Correct {
			fmt.Fprintf(stderr, "benchmark: %s: not recording from a failed run: %v\n", name, res.Problems)
			return 1
		}
	}
	if err := writeGolden(path, base.SF, g); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %d fingerprints for SF %s to %s\n", len(g.Queries), sfKey(base.SF), path)
	return 0
}

// --- BENCHMARK.json and the README glossary, generated from the tables ---

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func manifest() any {
	m := struct {
		Command    []string           `json:"command"`
		Paths      []string           `json:"paths"`
		RunSeconds int                `json:"run_seconds"`
		Workloads  []manifestWorkload `json:"workloads"`
		EndToEnd   []manifestMetric   `json:"end_to_end"`
		PerLayer   []manifestMetric   `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultRunSeconds,
	}
	for _, w := range workloadDefs {
		m.Workloads = append(m.Workloads, manifestWorkload(w))
	}
	for _, d := range endToEnd {
		bound := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}

func writeGlossary(w io.Writer) {
	fmt.Fprintln(w, "| metric | unit · clock | better | bound | definition |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "| `%s` | %s · %s | %s | %.0f %% | %s |\n", d.Name, d.Unit, d.Clock, d.Better, 100*d.Bound, d.Def)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| metric | unit · clock | better | definition | → moves |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for _, d := range perLayer {
		fmt.Fprintf(w, "| `%s` | %s · %s | %s | %s | %s |\n", d.Name, d.Unit, d.Clock, d.Better, d.Def, d.Moves)
	}
}
