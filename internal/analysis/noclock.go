package analysis

import (
	"go/ast"
)

// NoClock flags wall-clock reads and global-PRNG draws inside the packages
// the policy table marks deterministic: their behaviour must be a pure
// function of their seeds, or crash-recovery runs become irreproducible. The
// crash harness itself (simtest's step loop and all it reaches) is
// detclosure's to police.
func NoClock() *Analyzer {
	return &Analyzer{
		Name: "noclock",
		Doc:  "no time.Now/time.Since or global math/rand in deterministic simulation packages",
		Run:  runNoClock,
	}
}

func runNoClock(pass *Pass) {
	for u, f := range pass.files() {
		if !policyOf(u.Pkg.Path()).deterministic {
			continue
		}
		pkg := pkgBase(u.Pkg.Path())
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch what, clock := nondetCall(u.Info, call); {
			case what == "":
			case clock:
				pass.Reportf(call.Pos(),
					"%s in deterministic package %s: use the injected clock (iomodel.Scale) instead", what, pkg)
			default:
				pass.Reportf(call.Pos(),
					"global %s in deterministic package %s: draw from a seeded source (iomodel.Rand or mt.Source) instead", what, pkg)
			}
			return true
		})
	}
}
