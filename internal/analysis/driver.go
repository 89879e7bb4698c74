package analysis

import (
	"cmp"
	"go/token"
	"slices"
)

// Ignore is one //lint:ignore directive found in the analyzed files. Stale
// directives — whose rule no longer fires on the line they cover — are the
// audit-trail rot that cloudiq-lint -ignores exists to catch.
type Ignore struct {
	Position token.Position
	Rule     string
	Reason   string
	Stale    bool
}

// Result is RunAll's full output: the surviving diagnostics plus the
// suppression audit.
type Result struct {
	Diagnostics []Diagnostic
	Ignores     []Ignore
}

// RunAll builds the call graph over the base units once, runs every analyzer
// over the units in order, applies //lint:ignore suppressions, and audits
// every directive for staleness. Malformed or reason-less directives are
// reported under the "lintdirective" pseudo-rule.
func RunAll(units []*Unit, analyzers []*Analyzer) Result {
	if len(units) == 0 {
		return Result{}
	}
	fset := units[0].Fset
	sup := newSuppressions()
	analyzed := make(map[string]bool)
	var base []*Unit
	for _, u := range units {
		for _, f := range u.Files {
			if u.Analyze[f] {
				sup.scanFile(fset, f)
				analyzed[fset.Position(f.Package).Filename] = true
			}
		}
		if !u.Test {
			base = append(base, u)
		}
	}
	graph := BuildGraph(base)

	var diags []Diagnostic
	for _, a := range analyzers {
		a.Run(&Pass{Analyzer: a, Fset: fset, Units: units, Graph: graph, analyzed: analyzed, diags: &diags})
	}

	ignores := sup.audit(diags)
	diags = append(diags, sup.malformed...)
	// Exact duplicates arise when an interprocedural rule reaches the same
	// violation from several roots.
	seen := make(map[Diagnostic]bool, len(diags))
	kept := diags[:0]
	for _, d := range diags {
		if !seen[d] && !sup.suppressed(d) {
			seen[d] = true
			kept = append(kept, d)
		}
	}
	slices.SortStableFunc(kept, func(a, b Diagnostic) int {
		return cmp.Or(
			cmp.Compare(a.Position.Filename, b.Position.Filename),
			cmp.Compare(a.Position.Line, b.Position.Line),
			cmp.Compare(a.Position.Column, b.Position.Column),
			cmp.Compare(a.Rule, b.Rule),
			cmp.Compare(a.Message, b.Message))
	})
	return Result{Diagnostics: kept, Ignores: ignores}
}
