package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts expectations of the form `// want "substring"` from corpus
// comments. The quoted text must appear in the diagnostic rendered as
// "rule: message" on the same line.
var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

// TestGoldenCorpus runs each analyzer over its testdata/<rule> corpus and
// checks the produced diagnostics against the `// want` annotations, both
// ways: every want must be matched by a diagnostic on its line, and every
// diagnostic must be covered by a want. The interprocedural rules' corpora
// typically span several packages, since cross-package reasoning is their
// point.
func TestGoldenCorpus(t *testing.T) {
	for _, a := range Analyzers() {
		t.Run(a.Name, func(t *testing.T) {
			runGolden(t, a)
		})
	}
}

// TestGoldenCorpusModule loads the whole testdata tree as one module and runs
// every analyzer in a single RunAll, as cloudiq-lint does. The analyzers share
// one Pass setup and one call graph there, so the run must report exactly the
// union of the analyzers' runs one at a time over the same units, and every
// want annotation in the tree must still be met.
func TestGoldenCorpusModule(t *testing.T) {
	units := loadCorpus(t, ".")
	all := RunAll(units, Analyzers()).Diagnostics

	union := make(map[Diagnostic]bool)
	for _, a := range Analyzers() {
		for _, d := range RunAll(units, []*Analyzer{a}).Diagnostics {
			union[d] = true
		}
	}
	got := make(map[Diagnostic]bool, len(all))
	for _, d := range all {
		got[d] = true
		if !union[d] {
			t.Errorf("combined run reports what no single-rule run does: %s", d)
		}
	}
	for d := range union {
		if !got[d] {
			t.Errorf("combined run misses a single-rule run's diagnostic: %s", d)
		}
	}

	wants := collectWants(t, units)
	if len(wants) == 0 {
		t.Fatal("testdata tree has no want annotations")
	}
	for _, d := range all {
		key := fmt.Sprintf("%s:%d", d.Position.Filename, d.Position.Line)
		consumeWant(wants, key, d.Rule+": "+d.Message)
	}
	for key, subs := range wants {
		for _, sub := range subs {
			t.Errorf("%s: expected diagnostic containing %q, got none", key, sub)
		}
	}
}

func runGolden(t *testing.T, a *Analyzer) {
	t.Helper()
	name := a.Name
	dir, err := filepath.Abs(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("missing golden corpus for %s: %v", name, err)
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	units, err := loader.Load([]string{dir + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range loader.Errors {
		t.Errorf("corpus type error: %v", e)
	}
	if t.Failed() {
		t.FailNow()
	}
	if len(units) == 0 {
		t.Fatalf("corpus %s loaded no packages", dir)
	}

	wants := collectWants(t, units)
	if len(wants) == 0 {
		t.Fatalf("corpus %s has no want annotations", dir)
	}

	diags := RunAll(units, []*Analyzer{a}).Diagnostics
	if len(diags) == 0 {
		t.Fatalf("analyzer %s produced no diagnostics on its corpus", name)
	}
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Position.Filename, d.Position.Line)
		text := d.Rule + ": " + d.Message
		if !consumeWant(wants, key, text) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, subs := range wants {
		for _, sub := range subs {
			t.Errorf("%s: expected diagnostic containing %q, got none", key, sub)
		}
	}
}

// collectWants maps "file:line" to the expected substrings on that line.
func collectWants(t *testing.T, units []*Unit) map[string][]string {
	t.Helper()
	wants := make(map[string][]string)
	for _, u := range units {
		for _, f := range u.Files {
			if !u.Analyze[f] {
				continue
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
						pos := u.Fset.Position(c.Pos())
						key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
						wants[key] = append(wants[key], m[1])
					}
				}
			}
		}
	}
	return wants
}

// consumeWant removes one expectation at key whose substring occurs in text.
func consumeWant(wants map[string][]string, key, text string) bool {
	subs := wants[key]
	for i, sub := range subs {
		if strings.Contains(text, sub) {
			wants[key] = append(subs[:i], subs[i+1:]...)
			if len(wants[key]) == 0 {
				delete(wants, key)
			}
			return true
		}
	}
	return false
}
