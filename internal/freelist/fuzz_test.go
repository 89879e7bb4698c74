package freelist

import (
	"bytes"
	"testing"
)

// FuzzUnmarshal: arbitrary bytes are rejected or decode to a list that
// marshals back to exactly the bytes it was read from — the 16-byte header
// and its bitmap words; anything after them is ignored — and that allocates
// and releases without a panic, handing out only blocks below Blocks().
func FuzzUnmarshal(f *testing.F) {
	empty := New(0)
	small := New(10)
	if _, err := small.Allocate(3); err != nil {
		f.Fatal(err)
	}
	straddle := New(130)
	if err := straddle.MarkUsed(60, 10); err != nil {
		f.Fatal(err)
	}
	for _, l := range []*List{empty, small, straddle} {
		f.Add(l.Marshal(), uint16(1))
	}
	f.Add(append(small.Marshal(), 0xff), uint16(4)) // trailing bytes
	// A block count within 63 of 2^64 once wrapped the word count to zero:
	// the image was accepted and the first Allocate indexed an empty bitmap.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0}, uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		l, err := Unmarshal(data)
		if err != nil {
			return
		}
		end := 16 + 8*wordsFor(l.Blocks())
		if got := l.Marshal(); !bytes.Equal(got, data[:end]) {
			t.Fatalf("%d-block list re-marshals to %x, read from %x", l.Blocks(), got, data[:end])
		}
		size := uint64(n%16) + 1
		for range 4 {
			start, err := l.Allocate(size)
			if err != nil {
				break
			}
			if start+size > l.Blocks() {
				t.Fatalf("Allocate(%d) = %d on a %d-block list", size, start, l.Blocks())
			}
			if err := l.Release(start, 1); err != nil {
				t.Fatalf("Release(%d, 1) of an allocated block: %v", start, err)
			}
		}
		_ = l.Release(uint64(n), size) // may be out of range; must not panic
	})
}
