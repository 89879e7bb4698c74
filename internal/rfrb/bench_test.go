package rfrb

import "testing"

// interleaved returns a bitmap of n disjoint two-key ranges starting at base,
// spaced so that two bitmaps with bases one key apart interleave without
// merging — the worst case for Union's ordered insert.
func interleaved(base uint64, n int) *Bitmap {
	var b Bitmap
	for i := range n {
		start := base + uint64(4*i)
		b.Add(start, start+1)
	}
	return &b
}

// BenchmarkUnion folds one 1,000-range bitmap into another whose ranges
// interleave with it, as a secondary node's commit folds the keys it consumed
// into its running consumed set (txn.Manager.Commit).
func BenchmarkUnion(b *testing.B) {
	dst, src := interleaved(CloudKeyBase, 1000), interleaved(CloudKeyBase+2, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		d := dst.Clone()
		d.Union(src)
	}
}

// sink keeps the compiler from discarding a benchmarked call's result.
var sink []byte

func BenchmarkMarshal(b *testing.B) {
	bm := interleaved(CloudKeyBase, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		sink = bm.Marshal()
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	data := interleaved(CloudKeyBase, 1000).Marshal()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}
