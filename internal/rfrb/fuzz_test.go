package rfrb

import (
	"bytes"
	"math"
	"testing"
)

// FuzzUnmarshal: arbitrary bytes are rejected or decode to a bitmap that
// marshals back to exactly the bytes it was read from — the count and its n
// ranges; anything after them is ignored — never a panic.
func FuzzUnmarshal(f *testing.F) {
	var empty, one, split, both Bitmap
	one.Add(10, 20)
	split.Add(0, 100)
	split.Remove(40, 60)
	split.Remove(0, 1)
	both.Add(CloudKeyBase-8, CloudKeyBase+8)
	both.Add(math.MaxUint64-2, math.MaxUint64)
	both.Remove(CloudKeyBase, CloudKeyBase+1)
	for _, b := range []*Bitmap{&empty, &one, &split, &both} {
		f.Add(b.Marshal())
	}
	f.Add(append(one.Marshal(), 0xff)) // trailing bytes
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := Unmarshal(data)
		if err != nil {
			return
		}
		n := len(b.Ranges())
		if got := b.Marshal(); !bytes.Equal(got, data[:8+16*n]) {
			t.Fatalf("%d-range bitmap %s re-marshals to %x, read from %x", n, b, got, data[:8+16*n])
		}
	})
}
