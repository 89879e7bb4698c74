package bench

import (
	"context"
	"fmt"
	"runtime/debug"
	"slices"
	"strings"

	"cloudiq/internal/pageio"
)

// Result is what an experiment measured: a JSON-tagged value (snake_case
// keys; time and money carry their clock and unit — _sim_s/_sim_ms are read
// off the modelled-I/O clock, _charged_s is Scale.Charged, _usd is dollars) that can
// also print itself as the paper's table.
type Result interface {
	Table() string
}

// Experiment is one row of the experiment table: everything iqbench, the
// root benchmarks and CI know about an experiment.
type Experiment struct {
	// Name is what `iqbench -exp` accepts and what the report entry carries.
	Name string
	// Aliases are further accepted names: the other tables and figures of
	// the paper that the same run produces.
	Aliases []string
	// Title heads the printed section.
	Title string
	Run   func(ctx context.Context, o Options) (Result, error)
}

// Experiments is the one list of experiments, in the paper's order followed
// by the repo's own. Adding an experiment is adding a row here.
var Experiments = []Experiment{
	{Name: "table1", Title: "Table 1: recovery and garbage collection walkthrough",
		Run: func(ctx context.Context, o Options) (Result, error) { return RunTable1(ctx, o) }},
	{Name: "table2", Aliases: []string{"table3", "table4"},
		Title: "Tables 2–4: load and query times, compute cost, storage cost — S3 vs EBS vs EFS",
		Run:   func(ctx context.Context, o Options) (Result, error) { return RunVolumeComparison(ctx, o) }},
	{Name: "fig6", Aliases: []string{"table5"},
		Title: "Figure 6 / Table 5: impact of the OCM on query execution",
		Run: func(ctx context.Context, o Options) (Result, error) {
			return RunOCM(ctx, o, M5ad4xl, M5ad24xl)
		}},
	{Name: "fig7", Title: "Figure 7: scale-up behavior (16 / 48 / 96 CPUs)",
		Run: func(ctx context.Context, o Options) (Result, error) { return RunScaleUp(ctx, o) }},
	{Name: "fig8", Title: "Figure 8: network bandwidth utilization during load",
		Run: func(ctx context.Context, o Options) (Result, error) { return RunLoadBandwidth(ctx, o) }},
	{Name: "fig9", Title: "Figure 9: scale-out behavior (8 query streams)",
		Run: func(ctx context.Context, o Options) (Result, error) {
			return RunScaleOut(ctx, o, []int{2, 4, 8})
		}},
	{Name: "ablations", Title: "Ablations",
		Run: func(ctx context.Context, o Options) (Result, error) { return RunAblations(ctx, o) }},
	{Name: "sched", Title: "Mixed fleet: concurrent queries in 3 priority lanes over a reader fleet",
		Run: func(ctx context.Context, o Options) (Result, error) { return RunSchedFleet(ctx, o, 240, 3) }},
	{Name: "failover", Title: "Coordinator failover: kill/promote cycles under the reconcile-loop controller",
		Run: func(ctx context.Context, o Options) (Result, error) { return RunFailover(ctx, o, 5) }},
	{Name: "pushdown", Title: "Pushdown: store-side filter + partial aggregation vs plain reads",
		Run: func(ctx context.Context, o Options) (Result, error) { return RunPushdown(ctx, o) }},
	{Name: "ingest", Title: "Ingest: trickle inserts through the delta store, compaction drain",
		Run: func(ctx context.Context, o Options) (Result, error) { return RunIngest(ctx, o) }},
}

// Names lists the experiment names in table order.
func Names() []string {
	names := make([]string, len(Experiments))
	for i, e := range Experiments {
		names[i] = e.Name
	}
	return names
}

// Select resolves what `-exp` was given: "all" is the whole table, anything
// else one experiment by name or alias.
func Select(name string) ([]Experiment, error) {
	if name == "all" {
		return Experiments, nil
	}
	for _, e := range Experiments {
		if e.Name == name || slices.Contains(e.Aliases, name) {
			return []Experiment{e}, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (have %s, all)", name, strings.Join(Names(), ", "))
}

// Report is the one machine-readable record of a run: how it was built and
// configured, then every experiment's result next to the per-layer counters
// that experiment alone accumulated.
type Report struct {
	SchemaVersion int    `json:"schema_version"`
	GoVersion     string `json:"go_version,omitempty"`
	VCSRevision   string `json:"vcs_revision,omitempty"`
	// Options are the options every experiment of the run started from,
	// defaults filled in.
	Options     Options            `json:"options"`
	Experiments []ExperimentReport `json:"experiments"`
}

// ExperimentReport is one experiment's entry in a Report.
type ExperimentReport struct {
	Name   string `json:"name"`
	Result Result `json:"result"`
	// Layers is the pageio.StatsRegistry snapshot: calls, items, errors,
	// bytes and a power-of-two latency histogram per pipeline layer.
	Layers map[string]pageio.LayerSnapshot `json:"layers"`
}

// NewReport starts a report for a run with options o, stamped with the go
// version and VCS revision when the binary's build info has them.
func NewReport(o Options) *Report {
	r := &Report{SchemaVersion: 1, Options: o.withDefaults()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		r.GoVersion = bi.GoVersion
		dirty := ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				r.VCSRevision = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		if r.VCSRevision != "" {
			r.VCSRevision += dirty
		}
	}
	return r
}

// Report runs the experiment against a fresh layer registry, so the entry's
// layers are this experiment's I/O and nothing else's.
func (e Experiment) Report(ctx context.Context, o Options) (ExperimentReport, error) {
	o.IOStats = pageio.NewRegistry()
	res, err := e.Run(ctx, o)
	if err != nil {
		return ExperimentReport{}, fmt.Errorf("bench: %s: %w", e.Name, err)
	}
	return ExperimentReport{Name: e.Name, Result: res, Layers: o.IOStats.Snapshot()}, nil
}

// FormatTable renders rows as an aligned text table.
func FormatTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return sb.String()
}
