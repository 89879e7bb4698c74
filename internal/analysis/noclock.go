package analysis

import (
	"go/ast"
	"go/types"
)

// deterministicPkgs are the packages whose behaviour must be a pure function
// of their seeds: the simulation substrate (iomodel, objstore, blockdev),
// the fault planner, the PRNG itself, and the tracer (span timestamps come
// from an injected clock — usually iomodel's charged simulated time — never
// from the wall). Wall-clock reads or draws from the process-global
// math/rand source in any of them would make crash-recovery runs
// irreproducible. The crash harness itself (simtest's step loop and all it
// reaches) is detclosure's to police.
var deterministicPkgs = map[string]bool{
	"iomodel":     true,
	"objstore":    true,
	"blockdev":    true,
	"faultinject": true,
	"mt":          true,
	"trace":       true,
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

// NoClock flags wall-clock reads and global-PRNG draws inside the
// deterministic simulation packages.
func NoClock() *Analyzer {
	a := &Analyzer{
		Name: "noclock",
		Doc:  "no time.Now/time.Since or global math/rand in deterministic simulation packages",
	}
	a.Run = func(pass *Pass) {
		if !deterministicPkgs[pkgBase(pass.Pkg.Path())] {
			return
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(pass.Info, call)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				if !isPackageLevel(fn) {
					return true // methods on seeded sources are fine
				}
				switch fn.Pkg().Path() {
				case "time":
					if forbiddenTimeFuncs[fn.Name()] {
						pass.Reportf(call.Pos(),
							"time.%s in deterministic package %s: use the injected clock (iomodel.Scale) instead",
							fn.Name(), pkgBase(pass.Pkg.Path()))
					}
				case "math/rand", "math/rand/v2":
					if globalRandFuncs[fn.Name()] {
						pass.Reportf(call.Pos(),
							"global rand.%s in deterministic package %s: draw from a seeded source (iomodel.Rand or mt.Source) instead",
							fn.Name(), pkgBase(pass.Pkg.Path()))
					}
				}
				return true
			})
		}
	}
	return a
}

// isPackageLevel reports whether fn is a package-level function (not a
// method): methods like (*rand.Rand).Intn must not match the global draws.
func isPackageLevel(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}
