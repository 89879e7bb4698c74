package analysis

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"path/filepath"
	"testing"
)

// TestJSONSchemaStability pins the -json output schema: the exact key sets
// {diagnostics, count} and {file, line, col, rule, message} are a contract
// with downstream tooling. Renaming or removing a key must fail this test.
func TestJSONSchemaStability(t *testing.T) {
	diags := []Diagnostic{{
		Position: token.Position{Filename: "/repo/pkg/a.go", Line: 3, Column: 7},
		Rule:     "noclock",
		Message:  "time.Now in deterministic package",
	}}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, "/repo", diags); err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc) != 2 || doc["diagnostics"] == nil || doc["count"] == nil {
		t.Fatalf("top-level keys = %v, want exactly {diagnostics, count}", keysOf(doc))
	}
	var count int
	if err := json.Unmarshal(doc["count"], &count); err != nil || count != 1 {
		t.Fatalf("count = %s, want 1", doc["count"])
	}
	var list []map[string]json.RawMessage
	if err := json.Unmarshal(doc["diagnostics"], &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 {
		t.Fatalf("diagnostics len = %d, want 1", len(list))
	}
	d := list[0]
	for _, key := range []string{"file", "line", "col", "rule", "message"} {
		if d[key] == nil {
			t.Errorf("diagnostic is missing key %q", key)
		}
	}
	if len(d) != 5 {
		t.Errorf("diagnostic keys = %v, want exactly {file, line, col, rule, message}", keysOf(d))
	}
	var file string
	if err := json.Unmarshal(d["file"], &file); err != nil || file != "pkg/a.go" {
		t.Errorf("file = %s, want root-relative \"pkg/a.go\"", d["file"])
	}
}

// TestJSONEmptyReport checks that zero findings still emit a well-formed
// document with an empty array, not null.
func TestJSONEmptyReport(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, "", nil); err != nil {
		t.Fatal(err)
	}
	var report JSONReport
	if err := json.Unmarshal(buf.Bytes(), &report); err != nil {
		t.Fatal(err)
	}
	if report.Count != 0 {
		t.Errorf("count = %d, want 0", report.Count)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"diagnostics": []`)) {
		t.Errorf("empty report must render diagnostics as [], got:\n%s", buf.String())
	}
}

func keysOf[V any](m map[string]V) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestSuppressionDirectives exercises both placement forms of //lint:ignore
// (line above, trailing on the same line), rule matching, and the rejection
// of malformed reason-less directives.
func TestSuppressionDirectives(t *testing.T) {
	src := `package p

//lint:ignore noclock measured on purpose
var a = 1
var b = 2 //lint:ignore lockcheck held across the call by design
//lint:ignore badrule
var c = 3
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "demo.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	sup := newSuppressions()
	sup.scanFile(fset, f)

	diag := func(rule string, line int) Diagnostic {
		return Diagnostic{Position: token.Position{Filename: "demo.go", Line: line}, Rule: rule}
	}
	cases := []struct {
		name string
		d    Diagnostic
		want bool
	}{
		{"line-above form covers next line", diag("noclock", 4), true},
		{"directive covers its own line", diag("noclock", 3), true},
		{"trailing form covers its line", diag("lockcheck", 5), true},
		{"different rule is not covered", diag("noclock", 5), false},
		{"uncovered line stays reported", diag("noclock", 1), false},
		{"malformed directive suppresses nothing", diag("noclock", 7), false},
		{"lintdirective itself cannot be suppressed", diag("lintdirective", 4), false},
	}
	for _, tc := range cases {
		if got := sup.suppressed(tc.d); got != tc.want {
			t.Errorf("%s: suppressed(%s@%d) = %v, want %v",
				tc.name, tc.d.Rule, tc.d.Position.Line, got, tc.want)
		}
	}

	if len(sup.malformed) != 1 {
		t.Fatalf("malformed directives = %d, want 1", len(sup.malformed))
	}
	m := sup.malformed[0]
	if m.Rule != "lintdirective" || m.Position.Line != 6 {
		t.Errorf("malformed diagnostic = %s, want lintdirective at line 6", m)
	}
}

// loadCorpus loads a testdata subtree (all unit variants) for driver tests.
func loadCorpus(t *testing.T, rel string) []*Unit {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", rel))
	if err != nil {
		t.Fatal(err)
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
		t.Fatalf("corpus type error: %v", e)
	}
	if len(units) == 0 {
		t.Fatalf("corpus %s loaded no packages", dir)
	}
	return units
}

// TestIgnoresAudit checks the three directive fates on the ignores corpus:
// a live suppression, a stale one (rule no longer fires on the covered
// lines), and a malformed directive reported as a lintdirective diagnostic.
func TestIgnoresAudit(t *testing.T) {
	units := loadCorpus(t, "ignores")
	res := RunAll(units, Analyzers())

	var live, stale int
	for _, ig := range res.Ignores {
		if ig.Rule != "noclock" {
			t.Errorf("unexpected directive rule %q at %s", ig.Rule, ig.Position)
			continue
		}
		if ig.Stale {
			stale++
			if ig.Reason != "corpus demo of a rotted suppression" {
				t.Errorf("stale directive has wrong reason %q", ig.Reason)
			}
		} else {
			live++
			if ig.Reason != "corpus demo of an audited wall-clock read" {
				t.Errorf("live directive has wrong reason %q", ig.Reason)
			}
		}
	}
	if live != 1 || stale != 1 {
		t.Errorf("want exactly 1 live and 1 stale directive, got %d live, %d stale", live, stale)
	}

	var malformed int
	for _, d := range res.Diagnostics {
		switch d.Rule {
		case "lintdirective":
			malformed++
		case "noclock":
			t.Errorf("suppressed noclock diagnostic leaked through: %s", d)
		}
	}
	if malformed != 1 {
		t.Errorf("want exactly 1 lintdirective diagnostic, got %d", malformed)
	}
}
