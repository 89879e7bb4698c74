package analysis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Unit is one analyzable package variant: the base package (its non-test
// files), the in-package test variant (base plus _test files, reporting only
// on the latter), or the external foo_test package.
type Unit struct {
	Path    string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Analyze map[*ast.File]bool
	Pkg     *types.Package
	Info    *types.Info

	// Test marks the test variants. RunAll builds its call graph from the
	// base units only: test variants re-type-check the base files
	// and would duplicate every function under fresh type identities.
	Test bool
}

// Loader loads and type-checks the module's packages from source. Module
// imports resolve recursively through the loader itself; everything else
// (the standard library) resolves through go/importer's source importer.
type Loader struct {
	Fset *token.FileSet

	root    string // module root directory
	modpath string // module path from go.mod
	ctx     *build.Context
	std     types.Importer
	base    map[string]*basePkg
	loading map[string]bool

	// Errors collects type-check problems without aborting the run; the
	// driver reports them and exits non-zero, since unsound types would make
	// the analyzers unsound too.
	Errors []error
}

type basePkg struct {
	dir       string
	files     []*ast.File
	testFiles []string // in-package _test.go files (absolute paths)
	xtest     []string // external foo_test files (absolute paths)
	pkg       *types.Package
	info      *types.Info
}

// NewLoader locates the enclosing module starting at dir.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
		root = parent
	}
	modpath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	ctx := build.Default
	// The simulated engine is pure Go; disabling cgo keeps the source
	// importer away from cgo preprocessing in packages like net.
	ctx.CgoEnabled = false
	return &Loader{
		Fset:    fset,
		root:    root,
		modpath: modpath,
		ctx:     &ctx,
		std:     importer.ForCompiler(fset, "source", nil),
		base:    make(map[string]*basePkg),
		loading: make(map[string]bool),
	}, nil
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// Load resolves the patterns ("./...", "./internal/wal", "dir/...") against
// the module root and returns the units to analyze, including test variants.
// "..." walks skip testdata, vendor and hidden directories unless the
// pattern itself points inside one.
func (l *Loader) Load(patterns []string) ([]*Unit, error) {
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	var units []*Unit
	for _, dir := range dirs {
		path := l.importPathFor(dir)
		bp, err := l.loadBase(path)
		if err != nil {
			if isNoGo(err) {
				continue
			}
			return nil, err
		}
		units = append(units, l.baseUnit(path, bp))
		if u, err := l.testUnit(path, bp); err != nil {
			return nil, err
		} else if u != nil {
			units = append(units, u)
		}
		if u, err := l.xtestUnit(path, bp); err != nil {
			return nil, err
		} else if u != nil {
			units = append(units, u)
		}
	}
	return units, nil
}

func isNoGo(err error) bool {
	var noGo *build.NoGoError
	return errors.As(err, &noGo)
}

func (l *Loader) expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		dir = filepath.Clean(dir)
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if p, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive, pat = true, p
		} else if pat == "..." {
			recursive, pat = true, "."
		}
		start := pat
		if !filepath.IsAbs(start) {
			start = filepath.Join(l.root, pat)
		}
		if st, err := os.Stat(start); err != nil || !st.IsDir() {
			return nil, fmt.Errorf("analysis: pattern %q: not a directory under the module", pat)
		}
		if !recursive {
			add(start)
			continue
		}
		err := filepath.WalkDir(start, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != start && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			add(p)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil || rel == "." {
		return l.modpath
	}
	return l.modpath + "/" + filepath.ToSlash(rel)
}

func (l *Loader) dirFor(path string) string {
	if path == l.modpath {
		return l.root
	}
	return filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.modpath+"/")))
}

func (l *Loader) isModulePath(path string) bool {
	return path == l.modpath || strings.HasPrefix(path, l.modpath+"/")
}

// Import implements types.Importer: module packages load recursively through
// the loader, everything else through the stdlib source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if !l.isModulePath(path) {
		return l.std.Import(path)
	}
	bp, err := l.loadBase(path)
	if err != nil {
		return nil, err
	}
	return bp.pkg, nil
}

func (l *Loader) loadBase(path string) (*basePkg, error) {
	if bp, ok := l.base[path]; ok {
		return bp, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirFor(path)
	bpkg, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", path, err)
	}
	var files []*ast.File
	for _, name := range bpkg.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, info, err := l.check(path, files)
	if err != nil {
		return nil, err
	}
	bp := &basePkg{dir: dir, files: files, pkg: pkg, info: info}
	for _, name := range bpkg.TestGoFiles {
		bp.testFiles = append(bp.testFiles, filepath.Join(dir, name))
	}
	for _, name := range bpkg.XTestGoFiles {
		bp.xtest = append(bp.xtest, filepath.Join(dir, name))
	}
	l.base[path] = bp
	return bp, nil
}

func (l *Loader) check(path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			l.Errors = append(l.Errors, err)
		},
	}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil && pkg == nil {
		return nil, nil, fmt.Errorf("analysis: type-check %s: %w", path, err)
	}
	return pkg, info, nil
}

func (l *Loader) baseUnit(path string, bp *basePkg) *Unit {
	analyze := make(map[*ast.File]bool, len(bp.files))
	for _, f := range bp.files {
		analyze[f] = true
	}
	return &Unit{
		Path: path, Dir: bp.dir, Fset: l.Fset,
		Files: bp.files, Analyze: analyze, Pkg: bp.pkg, Info: bp.info,
	}
}

// testUnit re-type-checks the package with its in-package _test files and
// reports only on the test files.
func (l *Loader) testUnit(path string, bp *basePkg) (*Unit, error) {
	if len(bp.testFiles) == 0 {
		return nil, nil
	}
	files := append([]*ast.File(nil), bp.files...)
	analyze := make(map[*ast.File]bool, len(files)+len(bp.testFiles))
	for _, f := range bp.files {
		analyze[f] = false
	}
	for _, name := range bp.testFiles {
		f, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		analyze[f] = true
	}
	pkg, info, err := l.check(path, files)
	if err != nil {
		return nil, err
	}
	return &Unit{
		Path: path + " [tests]", Dir: bp.dir, Fset: l.Fset,
		Files: files, Analyze: analyze, Pkg: pkg, Info: info, Test: true,
	}, nil
}

// xtestUnit type-checks the external foo_test package, if any.
func (l *Loader) xtestUnit(path string, bp *basePkg) (*Unit, error) {
	if len(bp.xtest) == 0 {
		return nil, nil
	}
	var files []*ast.File
	analyze := make(map[*ast.File]bool, len(bp.xtest))
	for _, name := range bp.xtest {
		f, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		analyze[f] = true
	}
	pkg, info, err := l.check(path+"_test", files)
	if err != nil {
		return nil, err
	}
	return &Unit{
		Path: path + "_test", Dir: bp.dir, Fset: l.Fset,
		Files: files, Analyze: analyze, Pkg: pkg, Info: info, Test: true,
	}, nil
}
