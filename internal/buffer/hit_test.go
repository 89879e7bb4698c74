package buffer

import (
	"testing"

	"cloudiq/internal/core"
	"cloudiq/internal/objstore"
)

// warmReader commits n pages through a writer and returns a read-only handle
// on the committed identity with every page already cached, plus the page
// numbers in order.
func warmReader(tb testing.TB, n int) (*Object, []uint64) {
	tb.Helper()
	r := newRig(nil, 1<<20, objstore.Consistency{})
	w := r.open(nil, 8)
	logicals := make([]uint64, n)
	for i := range logicals {
		logicals[i] = uint64(i)
		if err := w.Write(ctxb(), logicals[i], pageData(logicals[i], 256)); err != nil {
			tb.Fatal(err)
		}
	}
	id, err := w.FlushForCommit(ctxb())
	if err != nil {
		tb.Fatal(err)
	}
	bm, err := core.OpenBlockmap(r.ds, id)
	if err != nil {
		tb.Fatal(err)
	}
	reader := r.pool.OpenObject(r.ds, bm, nil)
	if _, err := reader.ReadBatch(ctxb(), logicals); err != nil {
		tb.Fatal(err)
	}
	return reader, logicals
}

var sinkPages [][]byte

// BenchmarkPoolReadBatchHit is the micro-scale guard for power_warm: one
// segment's worth of pages, a read-only handle, everything cached.
func BenchmarkPoolReadBatchHit(b *testing.B) {
	reader, logicals := warmReader(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkPages, _ = reader.ReadBatch(ctxb(), logicals)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(logicals)), "ns/page")
}

// TestReadBatchHitAllocs pins the hit path's allocations at the result slice:
// resolving sixteen cache keys must not cost a second one.
func TestReadBatchHitAllocs(t *testing.T) {
	reader, logicals := warmReader(t, 16)
	allocs := testing.AllocsPerRun(100, func() {
		sinkPages, _ = reader.ReadBatch(ctxb(), logicals)
	})
	if allocs > 1 {
		t.Fatalf("warmed ReadBatch allocates %.0f times per call, want 1 (the result slice)", allocs)
	}
}
