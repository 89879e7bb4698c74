package analysis

import (
	"go/types"
	"testing"
)

// TestPolicyTableNamesRealCode loads the module and checks that every
// package base name, detclosure root type and spawner function in the
// policy table exists in it. The golden corpora cannot catch a stale row: renaming an engine
// package would silently drop it out of its rules with every corpus green.
func TestPolicyTableNamesRealCode(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	units, err := loader.Load([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range loader.Errors {
		t.Fatalf("type error: %v", e)
	}
	typeNames := make(map[string]map[string]bool) // package base name -> declared type names
	funcNames := make(map[string]map[string]bool) // package base name -> declared package functions
	for _, u := range units {
		if u.Test {
			continue
		}
		base := pkgBase(u.Pkg.Path())
		if typeNames[base] == nil {
			typeNames[base] = make(map[string]bool)
			funcNames[base] = make(map[string]bool)
		}
		scope := u.Pkg.Scope()
		for _, name := range scope.Names() {
			switch scope.Lookup(name).(type) {
			case *types.TypeName:
				typeNames[base][name] = true
			case *types.Func:
				funcNames[base][name] = true
			}
		}
	}
	for base, p := range policies {
		names, ok := typeNames[base]
		if !ok {
			t.Errorf("policy row %q names no package in the module", base)
			continue
		}
		for _, root := range p.roots {
			if !names[root] {
				t.Errorf("policy row %q: detclosure root type %s is not declared in any package %s", base, root, base)
			}
		}
		for _, fn := range p.spawns {
			if !funcNames[base][fn] {
				t.Errorf("policy row %q: spawner %s is not a function of any package %s", base, fn, base)
			}
		}
	}
}
