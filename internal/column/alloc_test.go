//go:build !race

package column

import "testing"

// TestEncodeSegmentAllocs gates the allocations of encoding one 512-row
// string page, dictionary and plain. The ceilings are the counts measured
// when the gate was added; a change that needs more says so by raising them.
// The race detector adds allocations of its own, so the gate is built
// without it.
func TestEncodeSegmentAllocs(t *testing.T) {
	for _, c := range []struct {
		name  string
		v     *Vector
		limit float64
	}{
		{"dict_string", distinctStrings(25), 4},
		{"plain_string", distinctStrings(257), 3},
	} {
		if got := testing.AllocsPerRun(100, func() { segmentSink = EncodeSegment(c.v) }); got > c.limit {
			t.Errorf("%s: %.0f allocations per EncodeSegment, limit %.0f", c.name, got, c.limit)
		}
	}
}
