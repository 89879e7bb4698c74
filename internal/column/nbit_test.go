package column

import (
	"math"
	"testing"
)

// TestNbitKernelMatchesAt holds the word-at-a-time kernel to at, value for
// value and bit for bit, at every width the packer writes: for every length
// up to past three of the kernel's k-value blocks and through the stream's
// last eight bytes, from several first values, into int64, int32 and
// float64, and through a decimal page's division at scale 0 and 2.
func TestNbitKernelMatchesAt(t *testing.T) {
	x := lcg(50)
	for width := 0; width <= 56; width++ {
		k := 1
		if width > 0 && width <= 19 {
			k = 57 / width
		}
		// Lengths cover three blocks and 16 bytes' worth of values beyond
		// them, so a block edge and the stream's last eight bytes fall
		// inside each; the block is packed once, at the longest.
		longest := 3*k + 2 + 128/max(width, 1)
		minV := int64(x.next()) - 1<<47
		vals := make([]int64, longest)
		for i := range vals {
			raw := (x.next()<<16 ^ x.next()) & (1<<width - 1)
			vals[i] = int64(uint64(minV) + raw)
		}
		if width > 0 {
			vals[longest/2] = int64(uint64(minV) + 1<<width - 1) // the full width is used
		}
		for n := 0; n <= longest; n++ {
			b, err := parseNbit(packInts(nil, vals[:n], minV, width), n)
			if err != nil {
				t.Fatalf("width %d, %d values: %v", width, n, err)
			}
			for _, first := range []int{0, 1, k - 1, k, k + 1} {
				if first > n {
					continue
				}
				i64 := make([]int64, n-first)
				unpackTo(b, i64, first, 1)
				i32 := make([]int32, n-first)
				unpackTo(b, i32, first, 1)
				f64 := make([]float64, n-first)
				unpackTo(b, f64, first, 1)
				for i := range i64 {
					want := b.at(first + i)
					if want != vals[first+i] {
						t.Fatalf("width %d, %d values: at(%d) = %d, packed %d", width, n, first+i, want, vals[first+i])
					}
					if i64[i] != want || i32[i] != int32(want) || math.Float64bits(f64[i]) != math.Float64bits(float64(want)) {
						t.Fatalf("width %d, %d values from %d: value %d unpacked %d / %d / %v, at %d",
							width, n, first, first+i, i64[i], i32[i], f64[i], want)
					}
				}
			}
			for _, scale := range []int{0, 2} {
				d := decimal{pow10[scale], b}
				got := d.floats(n, nil, true)
				for i, f := range got {
					if want := float64(b.at(i)) / d.div; math.Float64bits(f) != math.Float64bits(want) {
						t.Fatalf("width %d, %d values, scale %d: value %d = %v, want %v", width, n, scale, i, f, want)
					}
				}
			}
		}
	}
}
