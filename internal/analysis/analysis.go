// Package analysis is a self-contained static-analysis driver for the
// cloudiq engine, built purely on the standard library's go/parser, go/ast
// and go/types (no golang.org/x/tools dependency). It loads every package in
// the module, runs a pluggable set of analyzers that machine-check the
// paper's discipline rules — never-write-twice key hygiene, deterministic
// simulation clocks, fault-injection coverage, lock balance, and I/O error
// handling — and reports file:line:col diagnostics.
//
// Intentional exceptions are declared in the source with a suppression
// comment on the flagged line or the line directly above it:
//
//	//lint:ignore <rule> <reason>
//
// The reason is mandatory; a directive without one is itself reported, so
// every suppression in the tree stays visible and audited.
package analysis

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"iter"
	"slices"
	"strings"
)

// Analyzer is one named rule. Run sees the whole run through its Pass: a
// per-package rule loops over the units' files, an interprocedural rule walks
// the call graph.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one run through an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Units    []*Unit // every loaded unit, test variants included, in load order
	Graph    *Graph  // call graph over the base (non-test) units

	analyzed map[string]bool // filename -> this run reports on it
	diags    *[]Diagnostic
}

// Reportf records a diagnostic at pos, provided pos lies in a file this run
// analyzes.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if !p.analyzed[position.Filename] {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Position: position,
		Rule:     p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos lies in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// files yields each unit with each file it analyzes. A test variant
// re-type-checks the base files alongside its _test files but owns only the
// latter, so every file is visited once.
func (p *Pass) files() iter.Seq2[*Unit, *ast.File] {
	return func(yield func(*Unit, *ast.File) bool) {
		for _, u := range p.Units {
			for _, f := range u.Files {
				if u.Analyze[f] && !yield(u, f) {
					return
				}
			}
		}
	}
}

// Diagnostic is one finding.
type Diagnostic struct {
	Position token.Position
	Rule     string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s",
		d.Position.Filename, d.Position.Line, d.Position.Column, d.Rule, d.Message)
}

// Analyzers returns the full rule set, in reporting order: the per-package
// rules, then the interprocedural rules over the call graph.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NoClock(),
		LockCheck(),
		IQErrCheck(),
		KeyHygiene(),
		FaultSite(),
		PageioOnly(),
		LockOrder(),
		CtxFlow(),
		DetClosure(),
		LeakCheck(),
	}
}

// --- suppression directives ---

const ignorePrefix = "//lint:ignore"

// parseDirective splits a //lint:ignore comment into its rule and reason; ok
// is false when the comment is not a directive, and rule is "" when it is a
// malformed one.
func parseDirective(text string) (rule, reason string, ok bool) {
	rest, ok := strings.CutPrefix(text, ignorePrefix)
	if !ok {
		return "", "", false
	}
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return "", "", true
	}
	return fields[0], strings.Join(fields[1:], " "), true
}

type directive struct {
	rule   string
	reason string
	pos    token.Position
}

type suppressions struct {
	// byLine maps file -> line -> directives covering that line. Both lines
	// a directive covers point at the same *directive, so liveness marking
	// is shared.
	byLine    map[string]map[int][]*directive
	all       []*directive
	malformed []Diagnostic
}

func newSuppressions() *suppressions {
	return &suppressions{byLine: make(map[string]map[int][]*directive)}
}

func (s *suppressions) scanFile(fset *token.FileSet, f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rule, reason, ok := parseDirective(c.Text)
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			if rule == "" {
				s.malformed = append(s.malformed, Diagnostic{
					Position: pos,
					Rule:     "lintdirective",
					Message:  "malformed //lint:ignore directive: want \"//lint:ignore <rule> <reason>\"",
				})
				continue
			}
			s.add(&directive{rule: rule, reason: reason, pos: pos})
		}
	}
}

func (s *suppressions) add(d *directive) {
	s.all = append(s.all, d)
	lines := s.byLine[d.pos.Filename]
	if lines == nil {
		lines = make(map[int][]*directive)
		s.byLine[d.pos.Filename] = lines
	}
	// A directive covers its own line (trailing comment) and the line below
	// it (comment-above form).
	lines[d.pos.Line] = append(lines[d.pos.Line], d)
	lines[d.pos.Line+1] = append(lines[d.pos.Line+1], d)
}

func (s *suppressions) suppressed(d Diagnostic) bool {
	if d.Rule == "lintdirective" {
		return false
	}
	for _, dir := range s.byLine[d.Position.Filename][d.Position.Line] {
		if dir.rule == d.Rule {
			return true
		}
	}
	return false
}

// audit classifies every directive against the raw (pre-suppression)
// diagnostics: a directive whose rule produced no diagnostic on either line
// it covers is stale. The result is sorted by position.
func (s *suppressions) audit(raw []Diagnostic) []Ignore {
	type key struct {
		file string
		line int
		rule string
	}
	fired := make(map[key]bool, len(raw))
	for _, d := range raw {
		fired[key{d.Position.Filename, d.Position.Line, d.Rule}] = true
	}
	out := make([]Ignore, 0, len(s.all))
	for _, d := range s.all {
		live := fired[key{d.pos.Filename, d.pos.Line, d.rule}] ||
			fired[key{d.pos.Filename, d.pos.Line + 1, d.rule}]
		out = append(out, Ignore{
			Position: d.pos,
			Rule:     d.rule,
			Reason:   d.reason,
			Stale:    !live,
		})
	}
	slices.SortStableFunc(out, func(a, b Ignore) int {
		return cmp.Or(
			cmp.Compare(a.Position.Filename, b.Position.Filename),
			cmp.Compare(a.Position.Line, b.Position.Line),
			cmp.Compare(a.Rule, b.Rule))
	})
	return out
}

// --- shared type helpers used by several analyzers ---

// pkgBase returns the last path segment of an import path ("" for nil).
func pkgBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// calleeFunc resolves the *types.Func a call expression invokes, or nil for
// non-function calls (conversions, built-ins, function-typed variables).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// spawnedCall recognises a goroutine spawn at n: a `go` statement, or a call
// of a function the policy table lists as a spawner (pageio.Go), which runs
// its one argument on another goroutine. It returns the call that runs on
// the new goroutine: for a spawner, its argument called with no arguments.
// Either way the spawn is n itself, from n.Pos() to n.End().
func spawnedCall(info *types.Info, n ast.Node) (*ast.CallExpr, bool) {
	switch st := n.(type) {
	case *ast.GoStmt:
		return st.Call, true
	case *ast.CallExpr:
		if fn := calleeFunc(info, st); len(st.Args) == 1 && fn != nil && fn.Pkg() != nil &&
			fn.Signature().Recv() == nil &&
			slices.Contains(policyOf(fn.Pkg().Path()).spawns, fn.Name()) {
			f := st.Args[0]
			return &ast.CallExpr{Fun: f, Lparen: f.End(), Rparen: f.End()}, true
		}
	}
	return nil, false
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

func isBasic(t types.Type, kind types.BasicKind) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == kind
}

func isByteSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// storeMethod resolves call to a method with the object-store shape — a
// receiver, (context.Context, string, ...) parameters and a final error
// result — or returns nil. pageioonly and keyhygiene narrow it by name and
// arity.
func storeMethod(info *types.Info, call *ast.CallExpr) (*types.Func, *types.Signature) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return nil, nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, nil
	}
	params, res := sig.Params(), sig.Results()
	if params.Len() < 2 || !isContextType(params.At(0).Type()) || !isBasic(params.At(1).Type(), types.String) ||
		res.Len() == 0 || !isErrorType(res.At(res.Len()-1).Type()) {
		return nil, nil
	}
	return fn, sig
}

// forbiddenTimeFuncs are the wall-clock reads. time.Sleep is deliberately
// allowed: iomodel's Scale is the injected clock and implements its scaled
// sleeping with it.
var forbiddenTimeFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// globalRandFuncs are the math/rand (and math/rand/v2) package-level
// functions that draw from the shared global source. Constructors for
// locally seeded generators (New, NewSource, NewPCG, NewChaCha8) stay legal:
// a seeded *rand.Rand is exactly the injected PRNG the rule demands.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int32": true, "Int32N": true, "Int63": true, "Int63n": true,
	"Int64": true, "Int64N": true, "IntN": true,
	"Uint": true, "Uint32": true, "Uint32N": true,
	"Uint64": true, "Uint64N": true, "UintN": true,
	"Float32": true, "Float64": true,
	"ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true, "N": true,
}

// nondetCall names the wall-clock read ("time.Now", clock true) or global-PRNG
// draw ("rand.Intn", clock false) that call makes, or returns "" for any other
// call. Methods never match: (*rand.Rand).Intn draws from a seeded source.
func nondetCall(info *types.Info, call *ast.CallExpr) (what string, clock bool) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return "", false
	}
	switch fn.Pkg().Path() {
	case "time":
		if forbiddenTimeFuncs[fn.Name()] {
			return "time." + fn.Name(), true
		}
	case "math/rand", "math/rand/v2":
		if globalRandFuncs[fn.Name()] {
			return "rand." + fn.Name(), false
		}
	}
	return "", false
}
