package exec

// OCM coherence pins for pushdown. A select is served by the store's compute
// endpoint from the stored page images: no page bytes may enter the Object
// Cache Manager on its behalf (select results are derived, filtered data —
// installing them under page keys would poison later full reads), and a later
// full read of the same segment must hit the normal read-through path exactly
// once per page, with no stale bytes and no double charge.

import (
	"context"
	"testing"

	"cloudiq/internal/blockdev"
	"cloudiq/internal/buffer"
	"cloudiq/internal/core"
	"cloudiq/internal/keygen"
	"cloudiq/internal/mt"
	"cloudiq/internal/objstore"
	"cloudiq/internal/ocm"
	"cloudiq/internal/rfrb"
	"cloudiq/internal/table"
)

// pushdownOCMTable is pushdownTable with an Object Cache Manager between the
// dbspace and the store. The tiny pool keeps the buffer cache cold, so full
// reads actually consult the OCM.
func pushdownOCMTable(t *testing.T, store *objstore.MemStore, rows, segRows int) (*table.Table, *ocm.Cache) {
	t.Helper()
	gen := keygen.NewGenerator(nil)
	client := keygen.NewClient(func(ctx context.Context, n uint64) (rfrb.Range, error) {
		return gen.Allocate(ctx, "n", n)
	})
	dev := blockdev.NewMem(blockdev.Config{Capacity: 1 << 22})
	cache, err := ocm.New(ocm.Config{Device: dev, Store: store, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cache.Close() })
	ds := core.NewCloud(core.CloudConfig{Name: "user", Store: store, Keys: client, Cache: cache})
	pool := buffer.NewPool(buffer.Config{Capacity: 4096})
	bm, err := core.NewBlockmap(ds, 16)
	if err != nil {
		t.Fatal(err)
	}
	obj := pool.OpenObject(ds, bm, core.LockedSink(core.BitmapSink{RB: &rfrb.Bitmap{}, RF: &rfrb.Bitmap{}}))
	tbl, err := table.Create("t", obj, table.Schema{Cols: []table.ColumnDef{
		intCol("a"), intCol("b"), fltCol("f"), fltCol("g"), strCol("s"), strCol("t"),
	}}, table.Options{SegRows: segRows})
	if err != nil {
		t.Fatal(err)
	}
	rng := mt.New(0xc0Fe)
	b, _ := diffBatch(rng, rows)
	if err := tbl.Append(ctxb(), b); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	cache.Quiesce()
	return tbl, cache
}

// TestPushdownOCMCoherence is the pinned coherence test: a forced-pushdown
// scan must leave the OCM completely untouched — no entries installed, no
// lookups, no page gets — and the subsequent full read must return rows
// byte-identical to the pushed result while charging the store once per
// cache miss (misses and store gets move in lockstep; everything else is an
// OCM hit).
func TestPushdownOCMCoherence(t *testing.T) {
	store := objstore.NewMem(objstore.Config{})
	tbl, cache := pushdownOCMTable(t, store, 400, 64)
	pred := func() Expr { return Ge(Col("a"), ConstI(0)) }

	m := store.Metrics()
	preLen := cache.Len()
	preStats := cache.Stats()
	preGets, preSelects := m.Gets(), m.Selects()

	pushed := collectScan(t, tbl, ScanOptions{Filter: pred(), Pushdown: PushdownForce})

	mid := cache.Stats()
	if m.Selects() == preSelects {
		t.Fatal("forced pushdown never reached the store's compute endpoint")
	}
	if got := cache.Len(); got != preLen {
		t.Errorf("pushdown changed OCM entry count: %d -> %d", preLen, got)
	}
	if mid.Hits != preStats.Hits || mid.Misses != preStats.Misses {
		t.Errorf("pushdown consulted the OCM: hits %d->%d misses %d->%d",
			preStats.Hits, mid.Hits, preStats.Misses, mid.Misses)
	}
	if got := m.Gets(); got != preGets {
		t.Errorf("pushdown issued %d page gets; selects must bypass page reads entirely", got-preGets)
	}

	plain := collectScan(t, tbl, ScanOptions{Filter: pred()})
	if !sameBatch(plain, pushed) {
		t.Fatalf("full read after pushdown diverged (%d vs %d rows)", plain.Rows(), pushed.Rows())
	}

	post := cache.Stats()
	lookups := (post.Hits - mid.Hits) + (post.Misses - mid.Misses)
	if lookups == 0 {
		t.Fatal("full read never consulted the OCM; the coherence path went unexercised")
	}
	if getsDelta, missDelta := m.Gets()-preGets, post.Misses-mid.Misses; getsDelta != missDelta {
		t.Errorf("store gets (%d) != OCM misses (%d): pages were double-charged or served stale",
			getsDelta, missDelta)
	}
}
