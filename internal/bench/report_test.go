package bench

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var (
	snakeCase = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)
	// unitSuffix is what a non-integer quantity's key must say about itself:
	// a clock (elapsed ÷ timescale as sim_s/sim_ms/sim_seconds, Scale.Charged
	// as charged_s), dollars, a rate or a ratio — optionally "per" something.
	unitSuffix = regexp.MustCompile(`(^|_)(sim_s|sim_ms|sim_seconds|charged_s|usd|gbps|ratio)(_per_[a-z]+)?$`)
)

// checkKeys walks a type: every struct field is a snake_case JSON key, and in
// a result (units set) every floating-point one names its clock or unit.
func checkKeys(t *testing.T, exp string, typ reflect.Type, units bool) {
	switch typ.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Map:
		checkKeys(t, exp, typ.Elem(), units)
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if key == "-" {
				continue
			}
			if !snakeCase.MatchString(key) {
				t.Errorf("%s: %s.%s marshals as %q, want a snake_case json tag", exp, typ.Name(), f.Name, key)
			}
			leaf := f.Type
			for leaf.Kind() == reflect.Slice || leaf.Kind() == reflect.Array || leaf.Kind() == reflect.Map {
				leaf = leaf.Elem()
			}
			if units && leaf.Kind() == reflect.Float64 && !unitSuffix.MatchString(key) {
				t.Errorf("%s: %s.%s is a float keyed %q with no clock or unit suffix", exp, typ.Name(), f.Name, key)
			}
			checkKeys(t, exp, f.Type, units)
		}
	}
}

// TestExperimentsTable checks the experiment table itself and the one report
// shape: unique lower-case names, and for every entry a run at the -short
// scale whose report is valid JSON under keys that follow the naming rule.
func TestExperimentsTable(t *testing.T) {
	seen := map[string]bool{"all": true}
	for _, e := range Experiments {
		for _, name := range append([]string{e.Name}, e.Aliases...) {
			if name == "" || name != strings.ToLower(name) || seen[name] {
				t.Errorf("experiment name %q is empty, not lower-case or taken", name)
			}
			seen[name] = true
			if got, err := Select(name); err != nil || len(got) != 1 || got[0].Name != e.Name {
				t.Errorf("Select(%q) = %v, %v; want %s", name, got, err, e.Name)
			}
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %s has no title or no Run", e.Name)
		}
	}
	if _, err := Select("table6"); err == nil {
		t.Error("Select accepted an unknown experiment")
	}
	if all, err := Select("all"); err != nil || len(all) != len(Experiments) {
		t.Errorf("Select(all) = %d experiments, %v", len(all), err)
	}
	if testing.Short() {
		t.Skip("simulated-latency experiments")
	}

	report := NewReport(Short)
	for _, e := range Experiments {
		entry, err := e.Report(ctxb(), Short)
		if err != nil {
			t.Fatal(err)
		}
		if entry.Name != e.Name || entry.Result.Table() == "" {
			t.Errorf("%s: entry named %q with table %q", e.Name, entry.Name, entry.Result.Table())
		}
		if len(entry.Layers) == 0 {
			t.Errorf("%s: no layers collected", e.Name)
		}
		checkKeys(t, e.Name, reflect.TypeOf(entry.Result), true)
		report.Experiments = append(report.Experiments, entry)
	}
	checkKeys(t, "report", reflect.TypeOf(*report), false)

	data, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		SchemaVersion int `json:"schema_version"`
		Options       Options
		Experiments   []struct {
			Name   string
			Result json.RawMessage
			Layers map[string]json.RawMessage
		}
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.SchemaVersion != 1 || decoded.Options.withDefaults() != report.Options || len(decoded.Experiments) != len(Experiments) {
		t.Fatalf("envelope did not survive: %+v", decoded)
	}
	for i, e := range decoded.Experiments {
		want := report.Experiments[i]
		// Decode each result back into its own type and compare.
		back := reflect.New(reflect.TypeOf(want.Result))
		if err := json.Unmarshal(e.Result, back.Interface()); err != nil {
			t.Fatalf("%s: result does not decode into %T: %v", e.Name, want.Result, err)
		}
		if !reflect.DeepEqual(back.Elem().Interface(), want.Result) {
			t.Errorf("%s: result changed across a JSON round trip", e.Name)
		}
		if e.Name != want.Name || len(e.Layers) != len(want.Layers) {
			t.Errorf("entry %d: %s with %d layers, want %s with %d", i, e.Name, len(e.Layers), want.Name, len(want.Layers))
		}
	}
}

// TestExperimentsDocumented holds the prose lists to the table: iqbench's
// usage text, README.md and EXPERIMENTS.md each carry one "Experiments:" list
// and it is exactly the table's names.
func TestExperimentsDocumented(t *testing.T) {
	want := strings.Join(append(Names(), "all"), ", ")
	for _, path := range []string{"../../cmd/iqbench/main.go", "../../README.md", "../../EXPERIMENTS.md"} {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, list, found := strings.Cut(string(text), "Experiments:")
		if !found {
			t.Errorf("%s has no \"Experiments:\" list", path)
			continue
		}
		list, _, _ = strings.Cut(list, ".")
		got := strings.Join(strings.Fields(strings.NewReplacer("//", " ", "`", "").Replace(list)), " ")
		if got != want {
			t.Errorf("%s lists experiments\n\t%s\nthe table has\n\t%s", path, got, want)
		}
	}
}
