package cloudiq

// Ingest-lane tests: trickle inserts through Tx.Insert land in the in-memory
// delta store, are made durable by the WAL, merge into scans under snapshot
// isolation, and are drained into encoded column segments by the compactor.
// The differential tests compare every observable scan against a naive
// in-memory reference — the engine's merged view must match byte for byte at
// every step, including across crash-replay and compaction swaps.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"cloudiq/internal/faultinject"
	"cloudiq/internal/mt"
)

// scanKV collects the table at a fresh snapshot and returns its keys sorted,
// failing the test if any row's v column disagrees with its k ("val-<k>").
func scanKV(t *testing.T, db *Database, name string) []int64 {
	t.Helper()
	tx := db.Begin()
	defer func() { _ = tx.Rollback(ctxb()) }()
	return scanKVAt(t, tx, name)
}

func scanKVAt(t *testing.T, tx *Tx, name string) []int64 {
	t.Helper()
	tbl, err := tx.Table(ctxb(), "user", name)
	if err != nil {
		t.Fatal(err)
	}
	src, err := Scan(tbl, []string{"k", "v"}, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(ctxb(), src)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]int64, out.Rows())
	for i := range keys {
		k := out.Col("k").I64[i]
		if want := fmt.Sprintf("val-%d", k); out.Col("v").Str[i] != want {
			t.Fatalf("row %d: k=%d paired with v=%q, want %q", i, k, out.Col("v").Str[i], want)
		}
		keys[i] = k
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func sameKeys(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortedCopy(a []int64) []int64 {
	c := append([]int64(nil), a...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

func TestDeltaTrickleInsertMVCCVisibility(t *testing.T) {
	db, _ := newDB(t)
	tx := db.Begin()
	tbl, err := tx.CreateTable(ctxb(), "user", "t", demoSchema(), TableOptions{SegRows: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Append(ctxb(), fillBatch(40, 0)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}

	// Reader pinned before the trickle insert commits.
	early := db.Begin()

	w := db.Begin()
	if err := w.Insert(ctxb(), "t", fillBatch(7, 1000)); err != nil {
		t.Fatal(err)
	}
	// Uncommitted: invisible to everyone, including a brand-new snapshot.
	if got := scanKV(t, db, "t"); len(got) != 40 {
		t.Fatalf("uncommitted insert leaked: %d rows visible, want 40", len(got))
	}
	if err := w.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}

	if got := scanKV(t, db, "t"); len(got) != 47 {
		t.Fatalf("committed trickle rows: %d visible, want 47", len(got))
	}
	if db.DeltaLiveRows("t") != 7 {
		t.Fatalf("DeltaLiveRows = %d, want 7", db.DeltaLiveRows("t"))
	}
	// The pinned reader's snapshot predates the commit.
	if got := scanKVAt(t, early, "t"); len(got) != 40 {
		t.Fatalf("pinned reader sees %d rows, want 40", len(got))
	}
	_ = early.Rollback(ctxb())
}

// badBatches are batches of demoSchema's shape that cannot be rows of it: a
// ragged one (v five rows short), a mistyped one (an int vector for v), one
// with a nil vector and one whose int vector also holds a float.
func badBatches() map[string]*Batch {
	ragged, mistyped, nilVec, twoTyped := fillBatch(10, 500), fillBatch(10, 500), fillBatch(10, 500), fillBatch(10, 500)
	ragged.Vecs[1].Str = ragged.Vecs[1].Str[:5]
	mistyped.Vecs[1] = mistyped.Vecs[0]
	nilVec.Vecs[0] = nil
	twoTyped.Vecs[0].F64 = []float64{1.5}
	return map[string]*Batch{"ragged": ragged, "mistyped": mistyped, "nil vector": nilVec, "two-typed": twoTyped}
}

// TestBadBatchShapesAreErrors: Table.Append and Tx.Insert refuse a batch that
// does not fit the schema with an error, not a panic, and keep what the
// transaction had staged before it.
func TestBadBatchShapesAreErrors(t *testing.T) {
	db, _ := newDB(t)
	tx := db.Begin()
	tbl, err := tx.CreateTable(ctxb(), "user", "t", demoSchema(), TableOptions{SegRows: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Append(ctxb(), fillBatch(40, 0)); err != nil {
		t.Fatal(err)
	}
	for name, b := range badBatches() {
		if err := tbl.Append(ctxb(), b); err == nil {
			t.Errorf("Append of a %s batch: no error", name)
		}
	}
	if err := tx.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	w := db.Begin()
	if err := w.Insert(ctxb(), "t", fillBatch(7, 1000)); err != nil {
		t.Fatal(err)
	}
	for name, b := range badBatches() {
		if err := w.Insert(ctxb(), "t", b); err == nil {
			t.Errorf("Insert of a %s batch: no error", name)
		}
	}
	// A batch that fits its own schema but not the earlier insert's.
	other := NewBatch(Schema{Cols: []ColumnDef{{Name: "k", Typ: Int64}, {Name: "v", Typ: Int64}}})
	other.Vecs[0].AppendInt(1)
	other.Vecs[1].AppendInt(2)
	if err := w.Insert(ctxb(), "t", other); err == nil {
		t.Error("Insert unlike the earlier insert: no error")
	}
	if err := w.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	want := make([]int64, 0, 47)
	for k := int64(0); k < 40; k++ {
		want = append(want, k)
	}
	for k := int64(1000); k < 1007; k++ {
		want = append(want, k)
	}
	if got := scanKV(t, db, "t"); !sameKeys(got, want) {
		t.Fatalf("after the refused batches the table holds %v, want %v", got, want)
	}
}

// TestDeltaDifferentialInterleavings drives randomized interleavings of
// segment appends, trickle inserts, freezes, compactions, and GC against a
// naive key-set reference. After every step a fresh scan must agree exactly.
func TestDeltaDifferentialInterleavings(t *testing.T) {
	for _, seed := range []uint64{1, 2, 17, 91, 413} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			db, _ := newDB(t)
			src := mt.New(seed)
			tx := db.Begin()
			if _, err := tx.CreateTable(ctxb(), "user", "t", demoSchema(), TableOptions{SegRows: 16}); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(ctxb()); err != nil {
				t.Fatal(err)
			}
			var ref []int64
			next := int64(0)
			take := func(n int) *Batch {
				b := fillBatch(n, next)
				for i := 0; i < n; i++ {
					ref = append(ref, next+int64(i))
				}
				next += int64(n)
				return b
			}
			for step := 0; step < 60; step++ {
				switch src.Uint64() % 10 {
				case 0, 1, 2: // segment append
					w := db.Begin()
					tb, err := w.OpenTableForAppend(ctxb(), "user", "t")
					if err != nil {
						t.Fatal(err)
					}
					if err := tb.Append(ctxb(), take(1+int(src.Uint64()%20))); err != nil {
						t.Fatal(err)
					}
					if err := w.Commit(ctxb()); err != nil {
						t.Fatal(err)
					}
				case 3, 4, 5, 6: // trickle insert
					w := db.Begin()
					if err := w.Insert(ctxb(), "t", take(1+int(src.Uint64()%8))); err != nil {
						t.Fatal(err)
					}
					if err := w.Commit(ctxb()); err != nil {
						t.Fatal(err)
					}
				case 7: // freeze a run boundary
					db.FreezeDelta()
				case 8: // compact: drain frozen delta into segments
					if _, err := db.CompactDelta(ctxb(), "user"); err != nil {
						t.Fatal(err)
					}
				case 9: // retire absorbed runs
					if err := db.CollectGarbage(ctxb()); err != nil {
						t.Fatal(err)
					}
				}
				if got := scanKV(t, db, "t"); !sameKeys(got, sortedCopy(ref)) {
					t.Fatalf("step %d: scan has %d rows, reference %d", step, len(got), len(ref))
				}
			}
			// Quiesce: drain twice — the first pass stops at a pending
			// freeze watermark, the second takes everything behind it.
			for i := 0; i < 2 && db.DeltaLiveRows("t") > 0; i++ {
				if _, err := db.CompactDelta(ctxb(), "user"); err != nil {
					t.Fatal(err)
				}
			}
			if n := db.DeltaLiveRows("t"); n != 0 {
				t.Fatalf("%d delta rows live after quiesce drain", n)
			}
			if got := scanKV(t, db, "t"); !sameKeys(got, sortedCopy(ref)) {
				t.Fatalf("post-drain scan diverged from reference")
			}
		})
	}
}

// TestDeltaCompactionStraddlingReader pins a reader before the compaction
// swap: it must keep reading the pre-swap world (segments + delta) while new
// snapshots read the drained segments, both byte-identical in content.
func TestDeltaCompactionStraddlingReader(t *testing.T) {
	db, _ := newDB(t)
	tx := db.Begin()
	tbl, _ := tx.CreateTable(ctxb(), "user", "t", demoSchema(), TableOptions{SegRows: 32})
	_ = tbl.Append(ctxb(), fillBatch(40, 0))
	if err := tx.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	w := db.Begin()
	if err := w.Insert(ctxb(), "t", fillBatch(13, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}

	pinned := db.Begin()
	before := scanKVAt(t, pinned, "t")
	if len(before) != 53 {
		t.Fatalf("pinned reader sees %d rows pre-swap, want 53", len(before))
	}

	n, err := db.CompactDelta(ctxb(), "user")
	if err != nil {
		t.Fatal(err)
	}
	if n != 13 {
		t.Fatalf("compactor drained %d rows, want 13", n)
	}

	// The pinned snapshot re-reads the identical pre-swap result: the old
	// catalog version plus the delta rows its snapshot can still see.
	after := scanKVAt(t, pinned, "t")
	if !sameKeys(before, after) {
		t.Fatalf("pinned reader's view changed across the swap: %d vs %d rows", len(before), len(after))
	}
	// A fresh snapshot reads the same rows from segments, delta now empty.
	fresh := scanKV(t, db, "t")
	if !sameKeys(fresh, before) {
		t.Fatalf("post-swap scan diverged: %d vs %d rows", len(fresh), len(before))
	}
	if db.DeltaLiveRows("t") != 0 {
		t.Fatalf("DeltaLiveRows = %d after swap, want 0", db.DeltaLiveRows("t"))
	}
	_ = pinned.Rollback(ctxb())
	// With the straddling reader gone, GC retires the absorbed runs.
	if err := db.CollectGarbage(ctxb()); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaCrashRecoveryReplay crashes with trickle rows on both sides of a
// checkpoint (some already compacted) and expects every row back exactly once.
func TestDeltaCrashRecoveryReplay(t *testing.T) {
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
	_ = tbl.Append(ctxb(), fillBatch(30, 0))
	if err := tx.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	// Trickle rows, one batch compacted into segments, one left in delta,
	// then a checkpoint (its image carries the residual delta).
	w := db.Begin()
	_ = w.Insert(ctxb(), "t", fillBatch(10, 1000))
	if err := w.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CompactDelta(ctxb(), "user"); err != nil {
		t.Fatal(err)
	}
	w2 := db.Begin()
	_ = w2.Insert(ctxb(), "t", fillBatch(5, 2000))
	if err := w2.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(ctxb()); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint trickle rows live only in the log.
	w3 := db.Begin()
	_ = w3.Insert(ctxb(), "t", fillBatch(8, 3000))
	if err := w3.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}

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
	got := scanKV(t, db2, "t")
	want := sortedCopy(append(append(append(seqKeys(0, 30), seqKeys(1000, 10)...), seqKeys(2000, 5)...), seqKeys(3000, 8)...))
	if !sameKeys(got, want) {
		t.Fatalf("recovered %d rows, want %d (zero lost, zero duplicated)", len(got), len(want))
	}
	// The replayed delta drains cleanly on the recovered node.
	if _, err := db2.CompactDelta(ctxb(), "user"); err != nil {
		t.Fatal(err)
	}
	if n := db2.DeltaLiveRows("t"); n != 0 {
		t.Fatalf("%d delta rows live after post-recovery drain", n)
	}
	if got := scanKV(t, db2, "t"); !sameKeys(got, want) {
		t.Fatalf("post-recovery drain changed the row set")
	}
}

// checkpointingLog is a log device whose first write after arm starts a
// checkpoint of db on another goroutine and holds the write 20 ms: time for
// the checkpoint to take its image unless a lock stops it. Its own log
// append waits for the held write either way.
type checkpointingLog struct {
	*MemBlockDevice
	mu    sync.Mutex
	db    *Database
	armed bool
	done  chan error
}

func (d *checkpointingLog) arm(db *Database) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.db, d.armed, d.done = db, true, make(chan error, 1)
}

func (d *checkpointingLog) WriteAt(ctx context.Context, p []byte, off int64) error {
	d.mu.Lock()
	fire, db, done := d.armed, d.db, d.done
	d.armed = false
	d.mu.Unlock()
	if fire {
		go func() { done <- db.Checkpoint(context.Background()) }()
		time.Sleep(20 * time.Millisecond)
	}
	return d.MemBlockDevice.WriteAt(ctx, p, off)
}

// TestDeltaCheckpointRacingTrickleCommit starts a checkpoint while a trickle
// transaction's first log frame is being written. The checkpoint either
// precedes the commit, and replay applies the commit's rows after it, or
// follows it and carries them in its delta image; recovery must see every
// committed row either way. Rows logged in a record of their own ahead of
// the commit record were lost here: the checkpoint landed between the two
// records, without the uncommitted rows, and replay started after them.
func TestDeltaCheckpointRacingTrickleCommit(t *testing.T) {
	store := NewMemObjectStore(ObjectStoreConfig{})
	logDev := &checkpointingLog{MemBlockDevice: NewMemBlockDevice(BlockDeviceConfig{Growable: true})}
	db, err := Open(ctxb(), Config{LogDevice: logDev})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AttachCloudDbspace("user", store, CloudOptions{}); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if _, err := tx.CreateTable(ctxb(), "user", "t", demoSchema(), TableOptions{SegRows: 32}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	w := db.Begin()
	if err := w.Insert(ctxb(), "t", fillBatch(6, 100)); err != nil {
		t.Fatal(err)
	}
	logDev.arm(db)
	if err := w.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	if err := <-logDev.done; err != nil {
		t.Fatalf("racing checkpoint: %v", err)
	}
	if got := scanKV(t, db, "t"); !sameKeys(got, seqKeys(100, 6)) {
		t.Fatalf("live node sees %d rows, want 6", len(got))
	}

	db2, err := Open(ctxb(), Config{LogDevice: logDev.MemBlockDevice})
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.AttachCloudDbspace("user", store, CloudOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := db2.Recover(ctxb()); err != nil {
		t.Fatal(err)
	}
	if got := scanKV(t, db2, "t"); !sameKeys(got, seqKeys(100, 6)) {
		t.Fatalf("recovered %d of the 6 committed rows", len(got))
	}
}

func seqKeys(base int64, n int) []int64 {
	ks := make([]int64, n)
	for i := range ks {
		ks[i] = base + int64(i)
	}
	return ks
}

// TestDeltaCrashMidCompactCycles repeatedly crashes a node mid-compaction —
// before the drain and at the doomed drain commit — and checks that every
// cycle recovers with zero lost and zero duplicated rows.
func TestDeltaCrashMidCompactCycles(t *testing.T) {
	store := NewMemObjectStore(ObjectStoreConfig{})
	logDev := NewMemBlockDevice(BlockDeviceConfig{Growable: true})
	plan := faultinject.New(0xC0)
	open := func() *Database {
		db, err := Open(ctxb(), Config{LogDevice: logDev, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.AttachCloudDbspace("user", store, CloudOptions{}); err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	tx := db.Begin()
	if _, err := tx.CreateTable(ctxb(), "user", "t", demoSchema(), TableOptions{SegRows: 32}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	var want []int64
	sites := []faultinject.Site{
		faultinject.DeltaCompact,
		faultinject.DeltaCompact.With("swap"),
		faultinject.WALAppend.With("commit"), // dooms the drain's own commit
	}
	for cycle, site := range sites {
		w := db.Begin()
		base := int64(1000 * (cycle + 1))
		if err := w.Insert(ctxb(), "t", fillBatch(9, base)); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(ctxb()); err != nil {
			t.Fatal(err)
		}
		want = append(want, seqKeys(base, 9)...)

		plan.Always(site)
		if _, err := db.CompactDelta(ctxb(), "user"); !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("cycle %d (%s): compact err = %v, want injected", cycle, site, err)
		}
		plan.Clear(site)

		// Crash and recover over the surviving log + store.
		db = open()
		if err := db.Recover(ctxb()); err != nil {
			t.Fatal(err)
		}
		got := scanKV(t, db, "t")
		if !sameKeys(got, sortedCopy(want)) {
			t.Fatalf("cycle %d (%s): recovered %d rows, want %d", cycle, site, len(got), len(want))
		}
		// The abandoned cycle's rows are still in the delta; a clean retry
		// drains them without duplicating anything.
		if _, err := db.CompactDelta(ctxb(), "user"); err != nil {
			t.Fatal(err)
		}
		if got := scanKV(t, db, "t"); !sameKeys(got, sortedCopy(want)) {
			t.Fatalf("cycle %d (%s): post-retry scan diverged", cycle, site)
		}
		if n := db.DeltaLiveRows("t"); n != 0 {
			t.Fatalf("cycle %d (%s): %d delta rows live after retry", cycle, site, n)
		}
	}
}

// TestDeltaOrphanedInsertRecordIgnored dooms a trickle transaction's commit
// record. Its rows ride that record, so none of them reach the log and
// replay must not bring them back. (Rows used to be logged in records of
// their own ahead of the commit record, and this left orphans replay had to
// drop.)
func TestDeltaOrphanedInsertRecordIgnored(t *testing.T) {
	store := NewMemObjectStore(ObjectStoreConfig{})
	logDev := NewMemBlockDevice(BlockDeviceConfig{Growable: true})
	plan := faultinject.New(0xA1)
	db, err := Open(ctxb(), Config{LogDevice: logDev, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AttachCloudDbspace("user", store, CloudOptions{}); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if _, err := tx.CreateTable(ctxb(), "user", "t", demoSchema(), TableOptions{SegRows: 32}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	w := db.Begin()
	_ = w.Insert(ctxb(), "t", fillBatch(6, 100))
	if err := w.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}

	// Doomed transaction: its commit record, rows included, never lands.
	plan.Always(faultinject.WALAppend.With("commit"))
	w2 := db.Begin()
	_ = w2.Insert(ctxb(), "t", fillBatch(6, 200))
	if err := w2.Commit(ctxb()); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("doomed commit err = %v, want injected", err)
	}
	plan.Clear(faultinject.WALAppend.With("commit"))

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
	got := scanKV(t, db2, "t")
	if !sameKeys(got, seqKeys(100, 6)) {
		t.Fatalf("recovered %d rows %v, want only the committed 6", len(got), got)
	}
}

// TestDeltaOrphanTxnIDNotReclaimedAcrossRestart keeps a doomed commit's rows
// dead across two restarts with a committed transaction between them. Rows
// used to be logged ahead of the commit record under the transaction's id,
// and a post-crash transaction reusing that id resurrected them at the next
// replay; now they ride the commit record, so a doomed commit leaves nothing
// in the log for a later transaction to claim.
func TestDeltaOrphanTxnIDNotReclaimedAcrossRestart(t *testing.T) {
	store := NewMemObjectStore(ObjectStoreConfig{})
	logDev := NewMemBlockDevice(BlockDeviceConfig{Growable: true})
	plan := faultinject.New(0xB2)
	db, err := Open(ctxb(), Config{LogDevice: logDev, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AttachCloudDbspace("user", store, CloudOptions{}); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if _, err := tx.CreateTable(ctxb(), "user", "t", demoSchema(), TableOptions{SegRows: 32}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	w := db.Begin()
	_ = w.Insert(ctxb(), "t", fillBatch(6, 100))
	if err := w.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}

	// The doomed commit: its record, rows included, never lands.
	plan.Always(faultinject.WALAppend.With("commit"))
	w2 := db.Begin()
	_ = w2.Insert(ctxb(), "t", fillBatch(4, 200))
	if err := w2.Commit(ctxb()); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("doomed commit err = %v, want injected", err)
	}
	plan.Clear(faultinject.WALAppend.With("commit"))

	// Crash, recover, and commit again, perhaps under the doomed
	// transaction's id.
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
	w3 := db2.Begin()
	_ = w3.Insert(ctxb(), "t", fillBatch(3, 300))
	if err := w3.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}

	// A second crash replays the whole log: the doomed rows must stay
	// dead even though a committed transaction now follows them.
	db3, err := Open(ctxb(), Config{LogDevice: logDev})
	if err != nil {
		t.Fatal(err)
	}
	if err := db3.AttachCloudDbspace("user", store, CloudOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := db3.Recover(ctxb()); err != nil {
		t.Fatal(err)
	}
	want := sortedCopy(append(seqKeys(100, 6), seqKeys(300, 3)...))
	if got := scanKV(t, db3, "t"); !sameKeys(got, want) {
		t.Fatalf("recovered %d rows %v, want %d (doomed rows resurrected?)", len(got), got, len(want))
	}
	if _, err := db3.CompactDelta(ctxb(), "user"); err != nil {
		t.Fatal(err)
	}
	if got := scanKV(t, db3, "t"); !sameKeys(got, want) {
		t.Fatalf("drain changed the row set")
	}
}

// TestDeltaCompactDefersToOpenAppendTxn pins the compaction gate: while a
// transaction holds a table open for append, a compaction drain of the same
// table must defer (rows stay live) rather than publish an identity the
// transaction's commit would silently supersede — which would lose the
// drained rows' segments while the swap hides their delta copies.
func TestDeltaCompactDefersToOpenAppendTxn(t *testing.T) {
	db, _ := newDB(t)
	tx := db.Begin()
	tbl, _ := tx.CreateTable(ctxb(), "user", "t", demoSchema(), TableOptions{SegRows: 32})
	_ = tbl.Append(ctxb(), fillBatch(10, 0))
	if err := tx.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	w := db.Begin()
	_ = w.Insert(ctxb(), "t", fillBatch(7, 100))
	if err := w.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}

	// A writer holds the table open; the drain must step aside.
	a := db.Begin()
	atbl, err := a.OpenTableForAppend(ctxb(), "user", "t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CompactDelta(ctxb(), "user"); !errors.Is(err, ErrDeltaBusy) {
		t.Fatalf("compact under open append txn: err = %v, want ErrDeltaBusy", err)
	}
	if n := db.DeltaLiveRows("t"); n != 7 {
		t.Fatalf("%d delta rows live after deferred drain, want 7", n)
	}
	if err := atbl.Append(ctxb(), fillBatch(5, 200)); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}

	// Gate released: the drain proceeds and nothing is lost.
	if n, err := db.CompactDelta(ctxb(), "user"); err != nil || n != 7 {
		t.Fatalf("drain after commit: n=%d err=%v, want 7 rows", n, err)
	}
	if n := db.DeltaLiveRows("t"); n != 0 {
		t.Fatalf("%d delta rows live after drain", n)
	}
	want := sortedCopy(append(append(seqKeys(0, 10), seqKeys(100, 7)...), seqKeys(200, 5)...))
	if got := scanKV(t, db, "t"); !sameKeys(got, want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
}
