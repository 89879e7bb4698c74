package cloudiq

import (
	"testing"
)

// TestSharedPageCacheAcrossTransactions pins what keying clean pages by
// their never-rewritten cloud key buys at the engine's surface: every
// Tx.Table call opens a fresh buffer handle, yet a transaction finds in the
// pool whatever an earlier one loaded or a commit flushed. The dbspace has an
// OCM so the layers under the pool can be watched too.
func TestSharedPageCacheAcrossTransactions(t *testing.T) {
	store := NewMemObjectStore(ObjectStoreConfig{})
	dev := NewMemBlockDevice(BlockDeviceConfig{Capacity: 16 << 20})
	db, err := Open(ctxb(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	if err := db.AttachCloudDbspace("user", store, CloudOptions{CacheDevice: dev}); err != nil {
		t.Fatal(err)
	}

	const rows, segRows = 2000, 32
	tx := db.Begin()
	tbl, err := tx.CreateTable(ctxb(), "user", "t", demoSchema(), TableOptions{SegRows: segRows})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Append(ctxb(), fillBatch(rows, 0)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	db.WaitIO()
	// Every data page read is a pool miss, so zero misses is the exact claim.
	// What a warm scan may still read below the pool are the nodes of the
	// blockmap its fresh handle opens: 2 column pages per segment plus the
	// meta page under a fanout-64 tree, with one more leaf once the
	// compaction below has appended its segment.
	const dataPages = 2*((rows+segRows-1)/segRows) + 1
	const bmNodes = 2 + (dataPages+blockmapFanout-1)/blockmapFanout

	// scan runs fn and reports what it cost each layer.
	type cost struct{ poolMisses, ocmReads, storeGets int64 }
	scan := func(fn func()) cost {
		t.Helper()
		pool, ocm, gets := db.PoolStats(), db.OCMStats()[0], store.Metrics().Gets()
		fn()
		db.WaitIO()
		pool2, ocm2 := db.PoolStats(), db.OCMStats()[0]
		return cost{
			poolMisses: pool2.Misses - pool.Misses,
			ocmReads:   ocm2.Hits + ocm2.Misses - ocm.Hits - ocm.Misses,
			storeGets:  store.Metrics().Gets() - gets,
		}
	}
	wantWarm := func(what string, c cost) {
		t.Helper()
		if c.poolMisses != 0 || c.ocmReads > bmNodes || c.storeGets > bmNodes {
			t.Fatalf("%s: %d pool misses, %d OCM reads and %d GETs for a blockmap of at most %d nodes and %d data pages; want a scan served from the pool",
				what, c.poolMisses, c.ocmReads, c.storeGets, bmNodes, dataPages)
		}
	}

	// A reader opened after the commit hits every page the commit flushed,
	// and the next transaction's scan is no different.
	for _, what := range []string{"first reader after the load", "second reader"} {
		wantWarm(what, scan(func() {
			if got := scanKV(t, db, "t"); len(got) != rows {
				t.Fatalf("%s sees %d rows, want %d", what, len(got), rows)
			}
		}))
	}

	// A compaction writes a new table version that shares every sealed
	// segment with the old one. A reader pinned before it keeps its view; a
	// fresh reader finds the new version's pages — shared or just flushed —
	// already cached.
	w := db.Begin()
	if err := w.Insert(ctxb(), "t", fillBatch(13, 5000)); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	pinned := db.Begin()
	defer func() { _ = pinned.Rollback(ctxb()) }()
	before := scanKVAt(t, pinned, "t")
	db.FreezeDelta()
	if n, err := db.CompactDelta(ctxb(), "user"); err != nil || n != 13 {
		t.Fatalf("CompactDelta = %d, %v; want 13 rows drained", n, err)
	}
	wantWarm("fresh reader after the compaction", scan(func() {
		if got := scanKV(t, db, "t"); len(got) != rows+13 {
			t.Fatalf("fresh reader sees %d rows, want %d", len(got), rows+13)
		}
	}))
	wantWarm("pinned reader across the compaction", scan(func() {
		if after := scanKVAt(t, pinned, "t"); !sameKeys(before, after) {
			t.Fatalf("pinned reader's view changed: %d rows, then %d", len(before), len(after))
		}
	}))
}
