package analysis

import (
	"go/types"
	"testing"
)

// TestPolicyTableNamesRealCode loads the module and checks that every
// package base name and detclosure root type in the policy table exists in
// it. The golden corpora cannot catch a stale row: renaming an engine
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
	for _, u := range units {
		if u.Test {
			continue
		}
		base := pkgBase(u.Pkg.Path())
		if typeNames[base] == nil {
			typeNames[base] = make(map[string]bool)
		}
		scope := u.Pkg.Scope()
		for _, name := range scope.Names() {
			if _, ok := scope.Lookup(name).(*types.TypeName); ok {
				typeNames[base][name] = true
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
	}
}
