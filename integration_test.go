package cloudiq

// Integration tests that combine subsystems the way production would:
// aggressive eventual consistency + OCM + compression + crash recovery +
// snapshots + injected storage faults, all through the public API.

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestEndToEndUnderHarshEventualConsistency runs the full lifecycle with a
// store that 404s every fresh key three times and serves stale data on
// overwrites — the worst of §3's anomaly scenarios.
func TestEndToEndUnderHarshEventualConsistency(t *testing.T) {
	store := NewMemObjectStore(ObjectStoreConfig{
		Consistency: ObjectStoreConsistency{NewKeyMissReads: 3, StaleReads: 5},
	})
	logDev := NewMemBlockDevice(BlockDeviceConfig{Growable: true})
	db, err := Open(ctxb(), Config{LogDevice: logDev})
	if err != nil {
		t.Fatal(err)
	}
	ssd := NewMemBlockDevice(BlockDeviceConfig{Capacity: 32 << 20})
	if err := db.AttachCloudDbspace("user", store, CloudOptions{CacheDevice: ssd, ReadRetries: 8}); err != nil {
		t.Fatal(err)
	}

	// Several generations of commits, each superseding pages.
	for gen := 0; gen < 4; gen++ {
		tx := db.Begin()
		var tbl *Table
		if gen == 0 {
			tbl, err = tx.CreateTable(ctxb(), "user", "t", demoSchema(), TableOptions{SegRows: 32})
		} else {
			tbl, err = tx.OpenTableForAppend(ctxb(), "user", "t")
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.Append(ctxb(), fillBatch(64, int64(gen*1000))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(ctxb()); err != nil {
			t.Fatalf("generation %d: %v", gen, err)
		}
	}
	if err := db.CollectGarbage(ctxb()); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(ctxb()); err != nil {
		t.Fatal(err)
	}
	db.WaitIO()
	_ = db.Close()

	// Crash and recover with a cold engine over the surviving store+log.
	db2, err := Open(ctxb(), Config{LogDevice: logDev})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if err := db2.AttachCloudDbspace("user", store, CloudOptions{ReadRetries: 8}); err != nil {
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
	src, err := Scan(rt, []string{"k", "v"}, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(ctxb(), src)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 256 {
		t.Fatalf("recovered rows = %d, want 256", out.Rows())
	}
	// Spot-check contents across generations.
	found := map[int64]bool{}
	for _, k := range out.Col("k").I64 {
		found[k] = true
	}
	for gen := 0; gen < 4; gen++ {
		if !found[int64(gen*1000)+63] {
			t.Fatalf("generation %d rows missing after recovery", gen)
		}
	}
	_ = r.Rollback(ctxb())
}

// TestCommitRollsBackWhenStoreRefusesWrites exercises §4's durability rule:
// if a page cannot reach the object store within the retry budget, the
// transaction rolls back and leaves nothing behind.
func TestCommitRollsBackWhenStoreRefusesWrites(t *testing.T) {
	plan := NewFaultPlan(1)
	store := NewMemObjectStore(ObjectStoreConfig{Faults: plan})
	db, err := Open(ctxb(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.AttachCloudDbspace("user", store, CloudOptions{}); err != nil {
		t.Fatal(err)
	}
	// A healthy baseline commit.
	tx := db.Begin()
	tbl, _ := tx.CreateTable(ctxb(), "user", "t", demoSchema(), TableOptions{SegRows: 16})
	_ = tbl.Append(ctxb(), fillBatch(16, 0))
	if err := tx.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	objects := store.Len()

	// Now the store refuses writes: the commit must fail and roll back.
	plan.Always(FaultObjPut)
	tx2 := db.Begin()
	tbl2, err := tx2.OpenTableForAppend(ctxb(), "user", "t")
	if err != nil {
		t.Fatal(err)
	}
	_ = tbl2.Append(ctxb(), fillBatch(16, 100))
	if err := tx2.Commit(ctxb()); err == nil {
		t.Fatal("commit succeeded while the store refused writes")
	}
	plan.Clear(FaultObjPut)
	if got := store.Len(); got != objects {
		t.Fatalf("store has %d objects after failed commit, want %d", got, objects)
	}
	// The table remains at its pre-failure version and is fully readable.
	r := db.Begin()
	rt, err := r.Table(ctxb(), "user", "t")
	if err != nil || rt.Rows() != 16 {
		t.Fatalf("post-failure table: %v rows, %v", rt.Rows(), err)
	}
	_ = r.Rollback(ctxb())
}

// TestConcurrentReadersWritersAndGC hammers one database with concurrent
// writers (each on its own table), readers and GC, verifying isolation and
// key uniqueness end to end.
func TestConcurrentReadersWritersAndGC(t *testing.T) {
	store := NewMemObjectStore(ObjectStoreConfig{
		Consistency: ObjectStoreConsistency{NewKeyMissReads: 1},
	})
	db, err := Open(ctxb(), Config{CacheBytes: 1 << 20}) // small: force churn
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.AttachCloudDbspace("user", store, CloudOptions{}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("t%d", w)
			for gen := 0; gen < 5; gen++ {
				tx := db.Begin()
				var tbl *Table
				var err error
				if gen == 0 {
					tbl, err = tx.CreateTable(ctxb(), "user", name, demoSchema(), TableOptions{SegRows: 32})
				} else {
					tbl, err = tx.OpenTableForAppend(ctxb(), "user", name)
				}
				if err == nil {
					err = tbl.Append(ctxb(), fillBatch(64, int64(gen*100)))
				}
				if err == nil {
					if gen%2 == 1 {
						err = tx.Rollback(ctxb())
					} else {
						err = tx.Commit(ctxb())
					}
				}
				if err != nil {
					errs <- fmt.Errorf("writer %d gen %d: %w", w, gen, err)
					return
				}
			}
		}(w)
	}
	// Readers validate whatever snapshot they land on.
	for rdr := 0; rdr < 4; rdr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				tx := db.Begin()
				for _, name := range tx.Tables() {
					tbl, err := tx.Table(ctxb(), "user", name)
					if err != nil {
						if errors.Is(err, ErrNoSuchTable) {
							continue // dropped between listing and open
						}
						errs <- err
						return
					}
					// A committed table always has a multiple of 128 rows
					// (two committed generations of 64 interleave with
					// rolled-back ones).
					if tbl.Rows()%64 != 0 {
						errs <- fmt.Errorf("reader saw partial table %s: %d rows", name, tbl.Rows())
						return
					}
				}
				if err := tx.Rollback(ctxb()); err != nil {
					errs <- err
					return
				}
				_ = db.CollectGarbage(ctxb())
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Final state: 4 tables × 3 committed generations (0, 2, 4) × 64 rows.
	r := db.Begin()
	for w := 0; w < 4; w++ {
		tbl, err := r.Table(ctxb(), "user", fmt.Sprintf("t%d", w))
		if err != nil {
			t.Fatal(err)
		}
		if tbl.Rows() != 3*64 {
			t.Fatalf("t%d rows = %d, want 192", w, tbl.Rows())
		}
	}
	_ = r.Rollback(ctxb())
}

// TestSnapshotSurvivesEngineRestart takes a snapshot, restarts the engine,
// reloads the snapshot manager state from the object store, and restores.
func TestSnapshotSurvivesEngineRestart(t *testing.T) {
	store := NewMemObjectStore(ObjectStoreConfig{})
	logDev := NewMemBlockDevice(BlockDeviceConfig{Growable: true})
	var now int64
	db, err := Open(ctxb(), Config{LogDevice: logDev})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AttachCloudDbspace("user", store, CloudOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := db.EnableSnapshots(ctxb(), store, 1000, func() int64 { return now }); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	tbl, _ := tx.CreateTable(ctxb(), "user", "t", demoSchema(), TableOptions{SegRows: 16})
	_ = tbl.Append(ctxb(), fillBatch(32, 0))
	if err := tx.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	info, err := db.TakeSnapshot(ctxb())
	if err != nil {
		t.Fatal(err)
	}
	tx2 := db.Begin()
	tbl2, _ := tx2.OpenTableForAppend(ctxb(), "user", "t")
	_ = tbl2.Append(ctxb(), fillBatch(32, 500))
	if err := tx2.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(ctxb()); err != nil {
		t.Fatal(err)
	}
	_ = db.Close()

	// Restart: recover the engine, re-enable snapshots (Load pulls the
	// manager's metadata back from the store), then restore.
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
	if err := db2.EnableSnapshots(ctxb(), store, 1000, func() int64 { return now }); err != nil {
		t.Fatal(err)
	}
	snaps, err := db2.Snapshots()
	if err != nil || len(snaps) != 1 || snaps[0].ID != info.ID {
		t.Fatalf("snapshots after restart = %v, %v", snaps, err)
	}
	if err := db2.RestoreSnapshot(ctxb(), info.ID); err != nil {
		t.Fatal(err)
	}
	r := db2.Begin()
	rt, err := r.Table(ctxb(), "user", "t")
	if err != nil || rt.Rows() != 32 {
		t.Fatalf("restored rows = %v, %v (want 32)", rt.Rows(), err)
	}
	_ = r.Rollback(ctxb())
}
