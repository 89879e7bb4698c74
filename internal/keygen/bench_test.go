package keygen

import (
	"testing"

	"cloudiq/internal/blockdev"
	"cloudiq/internal/wal"
)

// BenchmarkAllocate is one key-range allocation with its RecAlloc record
// appended to a WAL on an in-memory device: the coordinator's cost per range
// a writer asks for.
func BenchmarkAllocate(b *testing.B) {
	log, err := wal.Open(ctxb(), blockdev.NewMem(blockdev.Config{Growable: true}))
	if err != nil {
		b.Fatal(err)
	}
	g := NewGenerator(log)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := g.Allocate(ctxb(), "w1", 64); err != nil {
			b.Fatal(err)
		}
	}
}
