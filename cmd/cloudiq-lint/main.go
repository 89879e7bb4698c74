// Command cloudiq-lint runs the engine's custom static analyzers over module
// packages and reports file:line:col: rule: message diagnostics, exiting
// non-zero on any finding. It is built purely on the standard library's
// go/parser, go/ast and go/types.
//
// One list of analyzers runs, in this reporting order: noclock, lockcheck,
// iqerrcheck, keyhygiene, faultsite and pageioonly check each package's own
// files; lockorder, ctxflow, detclosure and leakcheck walk a whole-module
// call graph — static call edges plus interface-dispatch edges — and reason
// across packages: global lock-ordering cycles, severed context chains, the
// deterministic closure of the simulation tester, and goroutine termination.
// Which package owes which rule is one policy table in internal/analysis.
//
// Usage:
//
//	cloudiq-lint [-json] [-ignores] [pattern ...]
//
// Patterns are module-relative directories, optionally ending in /... to
// recurse ("./...", the default, analyzes the whole module). Intentional
// exceptions are declared in the source as:
//
//	//lint:ignore <rule> <reason>
//
// on the flagged line or the line directly above it. -ignores lists every
// such directive with its rule and reason and exits non-zero if any is stale
// (its rule no longer fires on the line it covers), so suppressions cannot
// outlive the violation they were written for.
package main

import (
	"flag"
	"fmt"
	"os"

	"cloudiq/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON diagnostics")
	ignores := flag.Bool("ignores", false, "audit //lint:ignore directives; exit 1 on stale suppressions")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: cloudiq-lint [-json] [-ignores] [pattern ...]\n\nanalyzers:\n")
		for _, a := range analysis.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "cloudiq-lint:", err)
		os.Exit(2)
	}
	units, err := loader.Load(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cloudiq-lint:", err)
		os.Exit(2)
	}
	if len(loader.Errors) > 0 {
		for _, e := range loader.Errors {
			fmt.Fprintln(os.Stderr, "cloudiq-lint: type error:", e)
		}
		os.Exit(2)
	}

	result := analysis.RunAll(units, analysis.Analyzers())
	cwd, _ := os.Getwd()

	if *ignores {
		stale := 0
		for _, ig := range result.Ignores {
			if ig.Stale {
				stale++
			}
		}
		if *jsonOut {
			if err := analysis.WriteIgnoresJSON(os.Stdout, cwd, result.Ignores); err != nil {
				fmt.Fprintln(os.Stderr, "cloudiq-lint:", err)
				os.Exit(2)
			}
		} else {
			analysis.WriteIgnoresText(os.Stdout, cwd, result.Ignores)
			fmt.Printf("%d suppressions, %d stale\n", len(result.Ignores), stale)
		}
		if stale > 0 {
			os.Exit(1)
		}
		return
	}

	if *jsonOut {
		if err := analysis.WriteJSON(os.Stdout, cwd, result.Diagnostics); err != nil {
			fmt.Fprintln(os.Stderr, "cloudiq-lint:", err)
			os.Exit(2)
		}
	} else {
		analysis.WriteText(os.Stdout, cwd, result.Diagnostics)
	}
	if len(result.Diagnostics) > 0 {
		os.Exit(1)
	}
}
