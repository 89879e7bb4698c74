package simtest

import (
	"reflect"
	"testing"
)

// FuzzParseScript: whatever the text, Parse returns an error or a script
// whose String() parses back to an equal script — the property a pasted
// reproducer depends on. It never panics.
func FuzzParseScript(f *testing.F) {
	for _, sc := range []*Script{
		CrashCycles(1, 1, 51), CrashCycles(1, 2, 21),
		Generate(2), GenerateQueries(2), GenerateCluster(2), GenerateDelta(2),
	} {
		f.Add(sc.String())
	}
	f.Add("step quiesce - -1 0 0")
	f.Add("faults put=on bogus=on\nstep gc coord")
	f.Fuzz(func(t *testing.T, text string) {
		sc, err := Parse(text)
		if err != nil {
			return
		}
		again, err := Parse(sc.String())
		if err != nil {
			t.Fatalf("String() of a parsed script does not parse: %v\n%s", err, sc)
		}
		if !reflect.DeepEqual(sc, again) {
			t.Fatalf("round trip diverged:\n%s\n%s", sc, again)
		}
	})
}
