package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
	"text/tabwriter"
)

const resultsSchema = 1

// resultsFile is what -out writes: the fixed environment once, then every
// run appended to it.
type resultsFile struct {
	Schema int         `json:"schema"`
	Smoke  bool        `json:"smoke"`
	Env    envInfo     `json:"env"`
	Runs   []runResult `json:"runs"`
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultsSchema {
		return nil, fmt.Errorf("%s: results schema %d, this program reads %d", path, f.Schema, resultsSchema)
	}
	return &f, nil
}

// appendResults adds add's runs to the file at path, creating it if absent
// and refusing to mix environments.
func appendResults(path string, add *resultsFile) error {
	f, err := readResults(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		f = &resultsFile{Schema: resultsSchema, Smoke: add.Smoke, Env: add.Env}
	case err != nil:
		return err
	case f.Env != add.Env || f.Smoke != add.Smoke:
		return fmt.Errorf("%s was recorded in a different environment; write to a new file", path)
	}
	f.Runs = append(f.Runs, add.Runs...)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// cell collects one workload × metric across a file's untraced runs.
func cells(f *resultsFile) (map[[2]string][]float64, map[string][]int64) {
	vals := make(map[[2]string][]float64)
	seeds := make(map[string][]int64)
	for _, r := range f.Runs {
		if r.Trace {
			continue
		}
		seeds[r.Workload] = append(seeds[r.Workload], r.Seed)
		for name, m := range r.Metrics {
			vals[[2]string{r.Workload, name}] = append(vals[[2]string{r.Workload, name}], m.Value)
		}
	}
	for _, s := range seeds {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	return vals, seeds
}

// comparable refuses pairs that would not measure the same thing.
func comparable(a, b *resultsFile) error {
	if a.Smoke || b.Smoke {
		return errors.New("smoke results are not measurements")
	}
	if a.Env != b.Env {
		return fmt.Errorf("recorded environments differ:\n old %+v\n new %+v", a.Env, b.Env)
	}
	_, sa := cells(a)
	_, sb := cells(b)
	for _, w := range workloadDefs {
		if fmt.Sprint(sa[w.Name]) != fmt.Sprint(sb[w.Name]) {
			return fmt.Errorf("%s was run on different seeds: old %v, new %v", w.Name, sa[w.Name], sb[w.Name])
		}
		if len(sa[w.Name]) == 0 {
			return fmt.Errorf("%s has no untraced runs", w.Name)
		}
	}
	for _, f := range []*resultsFile{a, b} {
		for _, r := range f.Runs {
			if !r.Correct {
				return fmt.Errorf("%s seed %d failed %d of %d operations; a run with failures is not a measurement", r.Workload, r.Seed, r.Failed, r.Attempted)
			}
		}
	}
	return nil
}

// verdict judges one workload × metric. worse is how much worse the new
// median is than the old, as a share of the old; spread is the wider of the
// two sides' inter-quartile ranges as a share of their medians. A spread
// wider than the bound cannot support "unchanged", so it reads unresolved.
func verdict(worse, spread, bound float64) string {
	switch {
	case worse > bound:
		return "worse"
	case spread > bound:
		return "unresolved"
	case worse < 0 && -worse > spread:
		return "better"
	}
	return "within"
}

func compareMain(argv []string, stdout, stderr io.Writer) int {
	if len(argv) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare old.json new.json")
		return 2
	}
	var files [2]*resultsFile
	for i, path := range argv {
		f, err := readResults(path)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark compare: %v\n", err)
			return 2
		}
		files[i] = f
	}
	if err := comparable(files[0], files[1]); err != nil {
		fmt.Fprintf(stderr, "benchmark compare: %v\n", err)
		return 2
	}
	if writeComparison(stdout, files[0], files[1]) {
		return 1
	}
	return 0
}

// writeComparison prints one row per workload × end-to-end metric and reports
// whether any is worse.
func writeComparison(w io.Writer, older, newer *resultsFile) (regressed bool) {
	ov, seeds := cells(older)
	nv, _ := cells(newer)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told (median)\tnew (median)\tnew/old\tspread\tbound\tverdict\t")
	for _, wl := range workloadDefs {
		for _, d := range endToEnd {
			key := [2]string{wl.Name, d.Name}
			o, n := median(ov[key]), median(nv[key])
			if o == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%g\t%g\t-\t-\t-\tunresolved\t\n", wl.Name, d.Name, o, n)
				continue
			}
			worse := n/o - 1
			if d.Better == "higher" {
				worse = 1 - n/o
			}
			spread := max(iqrShare(ov[key]), iqrShare(nv[key]))
			v := verdict(worse, spread, d.Bound)
			regressed = regressed || v == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%.4f of %.6g\t%.1f %%\t%.0f %%\t%s\t\n",
				wl.Name, d.Name, o, d.Unit, n, d.Unit, n/o, o, 100*spread, 100*d.Bound, v)
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "\n%d runs per workload (seeds %v); medians over runs, spread = inter-quartile range ÷ median, the wider side.\n",
		len(seeds[workloadDefs[0].Name]), seeds[workloadDefs[0].Name])
	return regressed
}
