package cloudiq

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"cloudiq/internal/rfrb"
)

func ctxb() context.Context { return context.Background() }

func demoSchema() Schema {
	return Schema{Cols: []ColumnDef{
		{Name: "k", Typ: Int64},
		{Name: "v", Typ: String},
	}}
}

func fillBatch(n int, base int64) *Batch {
	b := NewBatch(demoSchema())
	for i := 0; i < n; i++ {
		b.Vecs[0].AppendInt(base + int64(i))
		b.Vecs[1].AppendStr(fmt.Sprintf("val-%d", base+int64(i)))
	}
	return b
}

func newDB(t *testing.T) (*Database, *MemObjectStore) {
	t.Helper()
	store := NewMemObjectStore(ObjectStoreConfig{
		Consistency: ObjectStoreConsistency{NewKeyMissReads: 1},
	})
	db, err := Open(ctxb(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	if err := db.AttachCloudDbspace("user", store, CloudOptions{}); err != nil {
		t.Fatal(err)
	}
	return db, store
}

func TestCreateLoadQueryRoundTrip(t *testing.T) {
	db, _ := newDB(t)
	tx := db.Begin()
	tbl, err := tx.CreateTable(ctxb(), "user", "kv", demoSchema(), TableOptions{SegRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Append(ctxb(), fillBatch(200, 0)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}

	reader := db.Begin()
	rt, err := reader.Table(ctxb(), "user", "kv")
	if err != nil {
		t.Fatal(err)
	}
	src, err := Scan(rt, []string{"k", "v"}, ScanOptions{Filter: GeE(Col("k"), ConstI(150))})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(ctxb(), src)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 50 {
		t.Fatalf("rows = %d, want 50", out.Rows())
	}
	if out.Col("v").Str[0] != "val-150" {
		t.Fatalf("first v = %q", out.Col("v").Str[0])
	}
	if err := reader.Rollback(ctxb()); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotIsolationBetweenTransactions(t *testing.T) {
	db, _ := newDB(t)
	tx := db.Begin()
	tbl, _ := tx.CreateTable(ctxb(), "user", "t", demoSchema(), TableOptions{SegRows: 32})
	_ = tbl.Append(ctxb(), fillBatch(10, 0))
	if err := tx.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}

	// Reader starts before the second commit: it must keep seeing 10 rows.
	reader := db.Begin()

	tx2 := db.Begin()
	tbl2, err := tx2.OpenTableForAppend(ctxb(), "user", "t")
	if err != nil {
		t.Fatal(err)
	}
	_ = tbl2.Append(ctxb(), fillBatch(10, 100))
	if err := tx2.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}

	rt, err := reader.Table(ctxb(), "user", "t")
	if err != nil {
		t.Fatal(err)
	}
	if rt.Rows() != 10 {
		t.Fatalf("reader sees %d rows, want 10 (snapshot isolation)", rt.Rows())
	}
	late := db.Begin()
	lt, _ := late.Table(ctxb(), "user", "t")
	if lt.Rows() != 20 {
		t.Fatalf("late reader sees %d rows, want 20", lt.Rows())
	}
	_ = reader.Rollback(ctxb())
	_ = late.Rollback(ctxb())
}

func TestRollbackLeavesNoTrace(t *testing.T) {
	db, store := newDB(t)
	tx := db.Begin()
	tbl, _ := tx.CreateTable(ctxb(), "user", "ghost", demoSchema(), TableOptions{})
	_ = tbl.Append(ctxb(), fillBatch(100, 0))
	// Force some pages to storage before rolling back.
	if _, err := tbl.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(ctxb()); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 0 {
		t.Fatalf("store has %d objects after rollback", store.Len())
	}
	r := db.Begin()
	if _, err := r.Table(ctxb(), "user", "ghost"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("err = %v", err)
	}
	_ = r.Rollback(ctxb())
}

func TestOldVersionsGarbageCollected(t *testing.T) {
	db, store := newDB(t)
	tx := db.Begin()
	tbl, _ := tx.CreateTable(ctxb(), "user", "t", demoSchema(), TableOptions{SegRows: 16})
	_ = tbl.Append(ctxb(), fillBatch(16, 0))
	if err := tx.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	afterV1 := store.Len()

	for i := 0; i < 3; i++ {
		txi := db.Begin()
		ti, err := txi.OpenTableForAppend(ctxb(), "user", "t")
		if err != nil {
			t.Fatal(err)
		}
		_ = ti.Append(ctxb(), fillBatch(16, int64(100*(i+1))))
		if err := txi.Commit(ctxb()); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CollectGarbage(ctxb()); err != nil {
		t.Fatal(err)
	}
	// Each new version rewrites the meta page, index pages and blockmap
	// path; superseded ones must have been reclaimed, so growth must be
	// bounded by data actually added (16 rows × 2 columns + overhead per
	// version), far below 4× the v1 footprint.
	if got := store.Len(); got > afterV1*4 {
		t.Fatalf("store has %d objects after GC (v1 had %d): old versions leak", got, afterV1)
	}
	// All rows remain readable.
	r := db.Begin()
	rt, _ := r.Table(ctxb(), "user", "t")
	if rt.Rows() != 64 {
		t.Fatalf("rows = %d, want 64", rt.Rows())
	}
	_ = r.Rollback(ctxb())
}

func TestCrashRecoveryEndToEnd(t *testing.T) {
	store := NewMemObjectStore(ObjectStoreConfig{})
	logDev := NewMemBlockDevice(BlockDeviceConfig{Growable: true})

	db, err := Open(ctxb(), Config{LogDevice: logDev})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AttachCloudDbspace("user", store, CloudOptions{}); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	tbl, _ := tx.CreateTable(ctxb(), "user", "t", demoSchema(), TableOptions{SegRows: 32})
	_ = tbl.Append(ctxb(), fillBatch(50, 0))
	if err := tx.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(ctxb()); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint commit (replayed from the log at recovery).
	tx2 := db.Begin()
	tbl2, _ := tx2.OpenTableForAppend(ctxb(), "user", "t")
	_ = tbl2.Append(ctxb(), fillBatch(50, 1000))
	if err := tx2.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}

	// Crash: a fresh Database over the surviving log device and store.
	db2, err := Open(ctxb(), Config{LogDevice: logDev})
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.AttachCloudDbspace("user", store, CloudOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := db2.Recover(ctxb()); err != nil {
		t.Fatal(err)
	}
	r := db2.Begin()
	rt, err := r.Table(ctxb(), "user", "t")
	if err != nil {
		t.Fatal(err)
	}
	if rt.Rows() != 100 {
		t.Fatalf("recovered rows = %d, want 100", rt.Rows())
	}
	src, _ := Scan(rt, []string{"k"}, ScanOptions{})
	out, err := Collect(ctxb(), src)
	if err != nil || out.Rows() != 100 {
		t.Fatalf("recovered scan = %d rows, %v", out.Rows(), err)
	}
	// New writes after recovery use fresh keys and commit cleanly.
	tx3 := db2.Begin()
	tbl3, err := tx3.OpenTableForAppend(ctxb(), "user", "t")
	if err != nil {
		t.Fatal(err)
	}
	_ = tbl3.Append(ctxb(), fillBatch(10, 5000))
	if err := tx3.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	_ = r.Rollback(ctxb())
}

func TestSnapshotsAndPointInTimeRestore(t *testing.T) {
	db, store := newDB(t)
	var now int64
	if err := db.EnableSnapshots(ctxb(), store, 1000, func() int64 { return now }); err != nil {
		t.Fatal(err)
	}

	tx := db.Begin()
	tbl, _ := tx.CreateTable(ctxb(), "user", "t", demoSchema(), TableOptions{SegRows: 32})
	_ = tbl.Append(ctxb(), fillBatch(32, 0))
	if err := tx.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}

	info, err := db.TakeSnapshot(ctxb())
	if err != nil {
		t.Fatal(err)
	}

	// Mutate after the snapshot.
	now = 10
	tx2 := db.Begin()
	tbl2, _ := tx2.OpenTableForAppend(ctxb(), "user", "t")
	_ = tbl2.Append(ctxb(), fillBatch(32, 500))
	if err := tx2.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	if err := db.CollectGarbage(ctxb()); err != nil {
		t.Fatal(err)
	}
	{
		r := db.Begin()
		rt, _ := r.Table(ctxb(), "user", "t")
		if rt.Rows() != 64 {
			t.Fatalf("pre-restore rows = %d", rt.Rows())
		}
		_ = r.Rollback(ctxb())
	}

	// Point-in-time restore to the snapshot.
	if err := db.RestoreSnapshot(ctxb(), info.ID); err != nil {
		t.Fatal(err)
	}
	r := db.Begin()
	rt, err := r.Table(ctxb(), "user", "t")
	if err != nil {
		t.Fatal(err)
	}
	if rt.Rows() != 32 {
		t.Fatalf("restored rows = %d, want 32", rt.Rows())
	}
	src, _ := Scan(rt, []string{"k"}, ScanOptions{})
	out, err := Collect(ctxb(), src)
	if err != nil || out.Rows() != 32 {
		t.Fatalf("restored scan = %d rows, %v", out.Rows(), err)
	}
	_ = r.Rollback(ctxb())

	// Retention expiry reclaims retained pages.
	now = 2000
	if _, err := db.ExpireSnapshots(ctxb()); err != nil {
		t.Fatal(err)
	}
	if snaps, _ := db.Snapshots(); len(snaps) != 0 {
		t.Fatalf("snapshots after expiry = %v", snaps)
	}
}

func TestOCMIntegration(t *testing.T) {
	store := NewMemObjectStore(ObjectStoreConfig{})
	ssd := NewMemBlockDevice(BlockDeviceConfig{Capacity: 8 << 20})
	db, err := Open(ctxb(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.AttachCloudDbspace("user", store, CloudOptions{CacheDevice: ssd}); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	tbl, _ := tx.CreateTable(ctxb(), "user", "t", demoSchema(), TableOptions{SegRows: 64})
	_ = tbl.Append(ctxb(), fillBatch(512, 0))
	if err := tx.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	// After commit everything is durable on the store.
	if store.Len() == 0 {
		t.Fatal("no objects on the store after commit through the OCM")
	}
	// Reads are served from the OCM: store GETs stay flat.
	db.WaitIO()
	r := db.Begin()
	rt, _ := r.Table(ctxb(), "user", "t")
	db.WaitIO()
	gets := store.Metrics().Gets()
	src, _ := Scan(rt, []string{"k", "v"}, ScanOptions{})
	out, err := Collect(ctxb(), src)
	if err != nil || out.Rows() != 512 {
		t.Fatalf("scan through OCM = %d rows, %v", out.Rows(), err)
	}
	if store.Metrics().Gets() != gets {
		t.Fatalf("scan issued %d store GETs despite warm OCM", store.Metrics().Gets()-gets)
	}
	_ = r.Rollback(ctxb())
}

func TestAttachValidation(t *testing.T) {
	db, store := newDB(t)
	if err := db.AttachCloudDbspace("user", store, CloudOptions{}); err == nil {
		t.Fatal("duplicate dbspace accepted")
	}
	if err := db.AttachBlockDbspace("user", NewMemBlockDevice(BlockDeviceConfig{Capacity: 1 << 20}), 512); err == nil {
		t.Fatal("duplicate dbspace name accepted across kinds")
	}
	if err := db.AttachBlockDbspace("main", NewMemBlockDevice(BlockDeviceConfig{Capacity: 1 << 20}), 512); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if _, err := tx.CreateTable(ctxb(), "nope", "t", demoSchema(), TableOptions{}); err == nil {
		t.Fatal("create in unattached dbspace accepted")
	}
	_ = tx.Rollback(ctxb())
}

func TestCreateTableConflicts(t *testing.T) {
	db, _ := newDB(t)
	tx := db.Begin()
	if _, err := tx.CreateTable(ctxb(), "user", "t", demoSchema(), TableOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.CreateTable(ctxb(), "user", "t", demoSchema(), TableOptions{}); err == nil {
		t.Fatal("duplicate create in one tx accepted")
	}
	if err := tx.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	tx2 := db.Begin()
	if _, err := tx2.CreateTable(ctxb(), "user", "t", demoSchema(), TableOptions{}); err == nil {
		t.Fatal("create of existing table accepted")
	}
	_ = tx2.Rollback(ctxb())
}

func TestTablesOnConventionalDbspace(t *testing.T) {
	db, _ := newDB(t)
	dev := NewMemBlockDevice(BlockDeviceConfig{Capacity: 16 << 20})
	if err := db.AttachBlockDbspace("main", dev, 4096); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	tbl, err := tx.CreateTable(ctxb(), "main", "conv", demoSchema(), TableOptions{SegRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	_ = tbl.Append(ctxb(), fillBatch(128, 0))
	if err := tx.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	r := db.Begin()
	rt, err := r.Table(ctxb(), "main", "conv")
	if err != nil || rt.Rows() != 128 {
		t.Fatalf("conventional table: %v rows, %v", rt.Rows(), err)
	}
	_ = r.Rollback(ctxb())
}

func TestSecondaryNodeAgainstCoordinator(t *testing.T) {
	// A coordinator and a secondary writer sharing one object store: the
	// writer draws key ranges from the coordinator, commits locally and
	// notifies the coordinator; the coordinator can then GC the writer's
	// outstanding allocations on restart.
	coord, store := newDB(t)
	writer, err := Open(ctxb(), Config{
		Node: "w1",
		AllocKeys: func(ctx context.Context, n uint64) (rfrb.Range, error) {
			return coord.AllocateKeys(ctx, "w1", n)
		},
		Notify: func(node string, consumed *rfrb.Bitmap) {
			_ = coord.NotifyCommit(ctxb(), node, consumed)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	if err := writer.AttachCloudDbspace("user", store, CloudOptions{}); err != nil {
		t.Fatal(err)
	}
	tx := writer.Begin()
	tbl, err := tx.CreateTable(ctxb(), "user", "w1data", demoSchema(), TableOptions{SegRows: 32})
	if err != nil {
		t.Fatal(err)
	}
	_ = tbl.Append(ctxb(), fillBatch(64, 0))
	if err := tx.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	objectsAfterCommit := store.Len()

	// An uncommitted writer transaction dies with the node; the coordinator
	// polls and clears its outstanding ranges.
	tx2 := writer.Begin()
	tbl2, _ := tx2.OpenTableForAppend(ctxb(), "user", "w1data")
	_ = tbl2.Append(ctxb(), fillBatch(64, 1000))
	if _, err := tbl2.Commit(ctxb()); err != nil { // flush pages, no txn commit
		t.Fatal(err)
	}
	if store.Len() <= objectsAfterCommit {
		t.Fatal("uncommitted pages never reached the store")
	}
	if err := coord.WriterRestartGC(ctxb(), "w1"); err != nil {
		t.Fatal(err)
	}
	if got := store.Len(); got != objectsAfterCommit {
		t.Fatalf("store has %d objects after writer-restart GC, want %d", got, objectsAfterCommit)
	}
	// Snapshots are a coordinator feature.
	if err := writer.EnableSnapshots(ctxb(), store, 10, func() int64 { return 0 }); err == nil {
		t.Fatal("snapshots enabled on a secondary node")
	}
	if _, err := writer.AllocateKeys(ctxb(), "x", 1); err == nil {
		t.Fatal("secondary node allocated keys locally")
	}
}

func TestDropTableRetiresAllPages(t *testing.T) {
	db, store := newDB(t)
	tx := db.Begin()
	tbl, _ := tx.CreateTable(ctxb(), "user", "doomed", demoSchema(), TableOptions{SegRows: 16})
	_ = tbl.Append(ctxb(), fillBatch(64, 0))
	if err := tx.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	if store.Len() == 0 {
		t.Fatal("nothing stored")
	}

	// A reader opened before the drop keeps seeing the table (MVCC).
	early := db.Begin()

	dropper := db.Begin()
	if err := dropper.DropTable(ctxb(), "user", "doomed"); err != nil {
		t.Fatal(err)
	}
	if err := dropper.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}

	if rt, err := early.Table(ctxb(), "user", "doomed"); err != nil || rt.Rows() != 64 {
		t.Fatalf("pre-drop reader lost the table: %v", err)
	}
	late := db.Begin()
	if _, err := late.Table(ctxb(), "user", "doomed"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("post-drop reader err = %v", err)
	}
	_ = late.Rollback(ctxb())

	// While the early reader lives, pages must survive.
	if err := db.CollectGarbage(ctxb()); err != nil {
		t.Fatal(err)
	}
	if store.Len() == 0 {
		t.Fatal("pages reclaimed under a live reader")
	}
	_ = early.Rollback(ctxb())
	if err := db.CollectGarbage(ctxb()); err != nil {
		t.Fatal(err)
	}
	if got := store.Len(); got != 0 {
		t.Fatalf("store has %d objects after drop + GC, want 0", got)
	}

	// Dropping again fails; dropping a staged table fails.
	tx2 := db.Begin()
	if err := tx2.DropTable(ctxb(), "user", "doomed"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("double drop err = %v", err)
	}
	if _, err := tx2.CreateTable(ctxb(), "user", "fresh", demoSchema(), TableOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := tx2.DropTable(ctxb(), "user", "fresh"); err == nil {
		t.Fatal("dropped a table staged in the same transaction")
	}
	_ = tx2.Rollback(ctxb())
}

func TestDropTableSurvivesRecovery(t *testing.T) {
	store := NewMemObjectStore(ObjectStoreConfig{})
	logDev := NewMemBlockDevice(BlockDeviceConfig{Growable: true})
	db, err := Open(ctxb(), Config{LogDevice: logDev})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AttachCloudDbspace("user", store, CloudOptions{}); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	tbl, _ := tx.CreateTable(ctxb(), "user", "t", demoSchema(), TableOptions{SegRows: 16})
	_ = tbl.Append(ctxb(), fillBatch(32, 0))
	if err := tx.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	d := db.Begin()
	if err := d.DropTable(ctxb(), "user", "t"); err != nil {
		t.Fatal(err)
	}
	if err := d.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(ctxb(), Config{LogDevice: logDev})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if err := db2.AttachCloudDbspace("user", store, CloudOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := db2.Recover(ctxb()); err != nil {
		t.Fatal(err)
	}
	r := db2.Begin()
	if _, err := r.Table(ctxb(), "user", "t"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("dropped table visible after recovery: %v", err)
	}
	_ = r.Rollback(ctxb())
	// Recovery drained the chain: the dropped pages are gone.
	if got := store.Len(); got != 0 {
		t.Fatalf("store has %d objects after recovery, want 0", got)
	}
}
