package txn

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"cloudiq/internal/blockdev"
	"cloudiq/internal/core"
	"cloudiq/internal/keygen"
	"cloudiq/internal/objstore"
	"cloudiq/internal/rfrb"
	"cloudiq/internal/wal"
)

func ctxb() context.Context { return context.Background() }

// env is a single-node (coordinator) test rig: a key generator, one cloud
// dbspace and one conventional dbspace, all registered with a Manager.
type env struct {
	t      *testing.T
	store  *objstore.MemStore
	gen    *keygen.Generator
	mgr    *Manager
	cloud  *core.CloudDbspace
	block  *core.BlockDbspace
	log    *wal.Log
	logDev *blockdev.MemDevice
}

func newEnv(t *testing.T) *env {
	t.Helper()
	e := &env{t: t, logDev: blockdev.NewMem(blockdev.Config{Growable: true})}
	var err error
	e.log, err = wal.Open(ctxb(), e.logDev)
	if err != nil {
		t.Fatal(err)
	}
	e.gen = keygen.NewGenerator(e.log)
	e.store = objstore.NewMem(objstore.Config{})
	client := keygen.NewClient(func(ctx context.Context, n uint64) (rfrb.Range, error) {
		return e.gen.Allocate(ctx, "coord", n)
	})
	e.cloud = core.NewCloud(core.CloudConfig{Name: "user", Store: e.store, Keys: client})
	dev := blockdev.NewMem(blockdev.Config{Capacity: 1 << 20})
	e.block, err = core.NewBlock(core.BlockConfig{Name: "main", Device: dev, BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	e.mgr, err = NewManager(Config{Node: "coord", Log: e.log, Keys: e.gen})
	if err != nil {
		t.Fatal(err)
	}
	e.mgr.Register(e.cloud)
	e.mgr.Register(e.block)
	return e
}

// writePages writes n pages to ds under t's sink and returns the entries.
func (e *env) writePages(t *Txn, ds core.Dbspace, n int) []core.Entry {
	e.t.Helper()
	sink := t.Sink(ds.Name())
	var entries []core.Entry
	for i := 0; i < n; i++ {
		written, err := ds.WriteBatch(ctxb(), [][]byte{{byte(i)}}, core.WriteThrough)
		if err != nil {
			e.t.Fatal(err)
		}
		sink.NoteAllocated(written[0])
		entries = append(entries, written[0])
	}
	return entries
}

func TestBeginCommitLifecycle(t *testing.T) {
	e := newEnv(t)
	tx := e.mgr.Begin()
	if tx.Status() != StatusActive || tx.Snapshot() != 0 {
		t.Fatalf("new txn: status %v snapshot %d", tx.Status(), tx.Snapshot())
	}
	e.writePages(tx, e.cloud, 3)
	if err := e.mgr.Commit(ctxb(), tx, nil, nil); err != nil {
		t.Fatal(err)
	}
	if tx.Status() != StatusCommitted {
		t.Fatalf("status = %v", tx.Status())
	}
	if e.mgr.CommitSeq() != 1 {
		t.Fatalf("CommitSeq = %d", e.mgr.CommitSeq())
	}
	if err := e.mgr.Commit(ctxb(), tx, nil, nil); !errors.Is(err, ErrNotActive) {
		t.Fatalf("double commit err = %v", err)
	}
	if err := e.mgr.Rollback(ctxb(), tx); !errors.Is(err, ErrNotActive) {
		t.Fatalf("rollback after commit err = %v", err)
	}
}

func TestSnapshotSequencesAdvance(t *testing.T) {
	e := newEnv(t)
	t1 := e.mgr.Begin()
	if err := e.mgr.Commit(ctxb(), t1, nil, nil); err != nil {
		t.Fatal(err)
	}
	t2 := e.mgr.Begin()
	if t2.Snapshot() != 1 {
		t.Fatalf("t2 snapshot = %d, want 1", t2.Snapshot())
	}
	_ = e.mgr.Rollback(ctxb(), t2)
}

func TestRollbackReclaimsAllocationsImmediately(t *testing.T) {
	e := newEnv(t)
	tx := e.mgr.Begin()
	e.writePages(tx, e.cloud, 5)
	e.writePages(tx, e.block, 2)
	if e.store.Len() != 5 || e.block.Freelist().InUse() == 0 {
		t.Fatalf("setup: store %d, blocks %d", e.store.Len(), e.block.Freelist().InUse())
	}
	if err := e.mgr.Rollback(ctxb(), tx); err != nil {
		t.Fatal(err)
	}
	if e.store.Len() != 0 {
		t.Fatalf("store has %d objects after rollback", e.store.Len())
	}
	if got := e.block.Freelist().InUse(); got != 0 {
		t.Fatalf("freelist has %d blocks in use after rollback", got)
	}
	if tx.Status() != StatusRolledBack {
		t.Fatalf("status = %v", tx.Status())
	}
}

func TestMVCCDefersReclamationUntilReadersFinish(t *testing.T) {
	e := newEnv(t)

	// Version 1 of a "table": one page.
	t1 := e.mgr.Begin()
	v1 := e.writePages(t1, e.cloud, 1)
	if err := e.mgr.Commit(ctxb(), t1, nil, nil); err != nil {
		t.Fatal(err)
	}

	// A long-running reader pins version 1.
	reader := e.mgr.Begin()

	// Version 2 supersedes the page.
	t2 := e.mgr.Begin()
	e.writePages(t2, e.cloud, 1)
	t2.Sink("user").NoteFreed(v1[0])
	if err := e.mgr.Commit(ctxb(), t2, nil, nil); err != nil {
		t.Fatal(err)
	}

	// Both versions must still exist: the reader may access v1.
	if e.store.Len() != 2 {
		t.Fatalf("store has %d objects, want 2 (v1 retained for reader)", e.store.Len())
	}
	if e.mgr.ChainLen() != 1 {
		t.Fatalf("chain len = %d, want 1", e.mgr.ChainLen())
	}

	// Reader finishes: v1's page becomes garbage.
	if err := e.mgr.Rollback(ctxb(), reader); err != nil {
		t.Fatal(err)
	}
	if err := e.mgr.CollectGarbage(ctxb()); err != nil {
		t.Fatal(err)
	}
	if e.store.Len() != 1 {
		t.Fatalf("store has %d objects after GC, want 1", e.store.Len())
	}
	if _, err := e.cloud.ReadBatch(ctxb(), v1[:1]); err == nil {
		t.Fatal("superseded version still readable after GC")
	}
}

func TestGCOrderFollowsChain(t *testing.T) {
	e := newEnv(t)
	var retired []string
	e.mgr.SetRetire(func(ctx context.Context, space string, r rfrb.Range) error {
		retired = append(retired, fmt.Sprintf("%s:%d", space, r.Len()))
		return nil
	})
	// Reader pins everything.
	reader := e.mgr.Begin()

	for i := 1; i <= 3; i++ {
		tx := e.mgr.Begin()
		entries := e.writePages(tx, e.cloud, i)
		tx.Sink("user").NoteFreed(entries[0])
		if err := e.mgr.Commit(ctxb(), tx, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(retired) != 0 {
		t.Fatalf("retired %v while reader active", retired)
	}
	_ = e.mgr.Rollback(ctxb(), reader)
	if err := e.mgr.CollectGarbage(ctxb()); err != nil {
		t.Fatal(err)
	}
	if len(retired) != 3 {
		t.Fatalf("retired = %v, want 3 entries in chain order", retired)
	}
}

func TestRetireFailureKeepsChainEntry(t *testing.T) {
	e := newEnv(t)
	fail := true
	e.mgr.SetRetire(func(ctx context.Context, space string, r rfrb.Range) error {
		if fail {
			return fmt.Errorf("transient retire failure")
		}
		return nil
	})
	tx := e.mgr.Begin()
	entries := e.writePages(tx, e.cloud, 1)
	tx.Sink("user").NoteFreed(entries[0])
	if err := e.mgr.Commit(ctxb(), tx, nil, nil); err == nil {
		t.Fatal("commit-time GC should surface the retire failure")
	}
	if e.mgr.ChainLen() != 1 {
		t.Fatalf("chain len = %d, want 1 (entry kept for retry)", e.mgr.ChainLen())
	}
	fail = false
	if err := e.mgr.CollectGarbage(ctxb()); err != nil {
		t.Fatal(err)
	}
	if e.mgr.ChainLen() != 0 {
		t.Fatalf("chain len = %d after retry, want 0", e.mgr.ChainLen())
	}
}

func TestCommitApplyPublishesAtomically(t *testing.T) {
	e := newEnv(t)
	tx := e.mgr.Begin()
	var published uint64
	err := e.mgr.Commit(ctxb(), tx, nil, func(seq uint64) error {
		published = seq
		return nil
	})
	if err != nil || published != 1 {
		t.Fatalf("apply seq = %d, err %v", published, err)
	}
	// A failing apply aborts the publish and does not advance the sequence.
	tx2 := e.mgr.Begin()
	wantErr := errors.New("catalog conflict")
	if err := e.mgr.Commit(ctxb(), tx2, nil, func(uint64) error { return wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	if e.mgr.CommitSeq() != 1 {
		t.Fatalf("CommitSeq = %d, want 1", e.mgr.CommitSeq())
	}
}

func TestCommitUnregisteredSpaceFails(t *testing.T) {
	e := newEnv(t)
	tx := e.mgr.Begin()
	tx.Sink("ghost").NoteAllocated(core.Entry{Loc: rfrb.CloudKeyBase + 1, Size: 1})
	if err := e.mgr.Commit(ctxb(), tx, nil, nil); err == nil {
		t.Fatal("commit touching unregistered dbspace succeeded")
	}
}

func TestCheckpointAndRecover(t *testing.T) {
	e := newEnv(t)

	// Pre-checkpoint state: a committed txn on both dbspaces.
	t1 := e.mgr.Begin()
	e.writePages(t1, e.cloud, 3)
	e.writePages(t1, e.block, 2)
	if err := e.mgr.Commit(ctxb(), t1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.mgr.Checkpoint(ctxb()); err != nil {
		t.Fatal(err)
	}
	blocksAtCkpt := e.block.Freelist().InUse()

	// Post-checkpoint: another committed txn.
	t2 := e.mgr.Begin()
	e.writePages(t2, e.block, 3)
	if err := e.mgr.Commit(ctxb(), t2, nil, nil); err != nil {
		t.Fatal(err)
	}
	maxKey := e.gen.MaxAllocated()
	seq := e.mgr.CommitSeq()

	// Crash: rebuild everything from the log. The conventional device and
	// the object store survive; in-memory state does not.
	log2, err := wal.Open(ctxb(), e.logDev)
	if err != nil {
		t.Fatal(err)
	}
	gen2 := keygen.NewGenerator(log2)
	mgr2, err := NewManager(Config{Node: "coord", Log: log2, Keys: gen2})
	if err != nil {
		t.Fatal(err)
	}
	// Fresh dbspace shells over the surviving devices/stores.
	client2 := keygen.NewClient(func(ctx context.Context, n uint64) (rfrb.Range, error) {
		return gen2.Allocate(ctx, "coord", n)
	})
	cloud2 := core.NewCloud(core.CloudConfig{Name: "user", Store: e.store, Keys: client2})
	block2 := e.block // device survives; freelist image restored by recovery
	mgr2.Register(cloud2)
	mgr2.Register(block2)

	if err := mgr2.Recover(ctxb(), nil); err != nil {
		t.Fatal(err)
	}
	if got := gen2.MaxAllocated(); got != maxKey {
		t.Fatalf("recovered max key = %#x, want %#x", got, maxKey)
	}
	if got := mgr2.CommitSeq(); got != seq {
		t.Fatalf("recovered commit seq = %d, want %d", got, seq)
	}
	// Freelist: checkpoint image + replayed t2 allocations.
	if got := block2.Freelist().InUse(); got != blocksAtCkpt+3 {
		t.Fatalf("recovered freelist in-use = %d, want %d", got, blocksAtCkpt+3)
	}
	// New allocations never collide with pre-crash keys.
	r, err := gen2.Allocate(ctxb(), "coord", 1)
	if err != nil || r.Start < maxKey {
		t.Fatalf("post-recovery allocation %v (max %#x): %v", r, maxKey, err)
	}
}

func TestRecoverDrainsRFOfCommittedTxns(t *testing.T) {
	e := newEnv(t)
	// t1 writes a page; t2 supersedes it but the GC never runs because we
	// "crash" first (simulated by rebuilding from the log).
	t1 := e.mgr.Begin()
	v1 := e.writePages(t1, e.cloud, 1)
	if err := e.mgr.Commit(ctxb(), t1, nil, nil); err != nil {
		t.Fatal(err)
	}
	reader := e.mgr.Begin() // blocks GC
	t2 := e.mgr.Begin()
	e.writePages(t2, e.cloud, 1)
	t2.Sink("user").NoteFreed(v1[0])
	if err := e.mgr.Commit(ctxb(), t2, nil, nil); err != nil {
		t.Fatal(err)
	}
	_ = reader // crash with the reader still open
	if e.store.Len() != 2 {
		t.Fatalf("pre-crash store = %d", e.store.Len())
	}

	log2, _ := wal.Open(ctxb(), e.logDev)
	gen2 := keygen.NewGenerator(log2)
	mgr2, _ := NewManager(Config{Node: "coord", Log: log2, Keys: gen2})
	client2 := keygen.NewClient(func(ctx context.Context, n uint64) (rfrb.Range, error) {
		return gen2.Allocate(ctx, "coord", n)
	})
	mgr2.Register(core.NewCloud(core.CloudConfig{Name: "user", Store: e.store, Keys: client2}))
	if err := mgr2.Recover(ctxb(), nil); err != nil {
		t.Fatal(err)
	}
	// After a crash there are no live readers: v1's page is collected.
	if e.store.Len() != 1 {
		t.Fatalf("store = %d after recovery, want 1", e.store.Len())
	}
}

func TestConcurrentTransactions(t *testing.T) {
	e := newEnv(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				tx := e.mgr.Begin()
				sink := tx.Sink("user")
				written, err := e.cloud.WriteBatch(ctxb(), [][]byte{{byte(w)}}, core.WriteThrough)
				if err != nil {
					t.Error(err)
					return
				}
				sink.NoteAllocated(written[0])
				if i%3 == 0 {
					err = e.mgr.Rollback(ctxb(), tx)
				} else {
					err = e.mgr.Commit(ctxb(), tx, nil, nil)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := e.mgr.CollectGarbage(ctxb()); err != nil {
		t.Fatal(err)
	}
	// 8 workers × 20 txns: 7 rollbacks each (i = 0,3,..,18), 13 commits.
	if got := e.store.Len(); got != 8*13 {
		t.Fatalf("store has %d objects, want %d", got, 8*13)
	}
	if e.mgr.ActiveCount() != 0 {
		t.Fatalf("active = %d", e.mgr.ActiveCount())
	}
}

func TestCommitRecordRoundTrip(t *testing.T) {
	var rf, rb rfrb.Bitmap
	rf.Add(10, 20)
	rb.Add(rfrb.CloudKeyBase+5, rfrb.CloudKeyBase+9)
	rec := CommitRecord{
		TxnID: 42,
		Node:  "w1",
		Spaces: []SpaceBitmaps{
			{Space: "user", RF: &rf, RB: &rb},
			{Space: "main", RF: &rfrb.Bitmap{}, RB: &rfrb.Bitmap{}},
		},
	}
	got, err := UnmarshalCommit(MarshalCommit(rec))
	if err != nil {
		t.Fatal(err)
	}
	if got.TxnID != 42 || got.Node != "w1" || len(got.Spaces) != 2 {
		t.Fatalf("decoded = %+v", got)
	}
	if got.Spaces[0].RF.String() != rf.String() || got.Spaces[0].RB.String() != rb.String() {
		t.Fatalf("bitmaps differ: %v %v", got.Spaces[0].RF, got.Spaces[0].RB)
	}
	if _, err := UnmarshalCommit([]byte{1, 2, 3}); err == nil {
		t.Fatal("short payload accepted")
	}
	img := MarshalCommit(rec)
	if _, err := UnmarshalCommit(img[:len(img)-5]); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestStatusString(t *testing.T) {
	for _, tc := range []struct {
		s    Status
		want string
	}{{StatusActive, "active"}, {StatusCommitted, "committed"}, {StatusRolledBack, "rolled back"}, {Status(9), "status(9)"}} {
		if got := tc.s.String(); got != tc.want {
			t.Errorf("String(%d) = %q", tc.s, got)
		}
	}
}

func TestNewManagerRequiresLog(t *testing.T) {
	if _, err := NewManager(Config{}); err == nil {
		t.Fatal("manager without log accepted")
	}
}

// Regression for simulation seed 91: the committed-txn retirement chain
// (superseded pages waiting for their readers to finish) was not part of the
// checkpoint payload. A checkpoint taken while the chain was non-empty,
// followed by a crash, forgot the pending retirements for good — the
// superseded pages leaked. The chain must ride the checkpoint and come back
// from recovery intact.
func TestCheckpointCarriesRetirementChain(t *testing.T) {
	e := newEnv(t)

	t1 := e.mgr.Begin()
	v1 := e.writePages(t1, e.cloud, 1)
	if err := e.mgr.Commit(ctxb(), t1, nil, nil); err != nil {
		t.Fatal(err)
	}
	// A reader pins version 1 while version 2 supersedes it, parking the
	// superseded page on the chain.
	reader := e.mgr.Begin()
	t2 := e.mgr.Begin()
	e.writePages(t2, e.cloud, 1)
	t2.Sink("user").NoteFreed(v1[0])
	if err := e.mgr.Commit(ctxb(), t2, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Checkpoint with the chain non-empty; the checkpoint bounds replay,
	// so only its payload can carry the chain across the crash.
	if err := e.mgr.Checkpoint(ctxb()); err != nil {
		t.Fatal(err)
	}
	_ = reader

	// Crash: rebuild from the log over the surviving store.
	log2, err := wal.Open(ctxb(), e.logDev)
	if err != nil {
		t.Fatal(err)
	}
	gen2 := keygen.NewGenerator(log2)
	mgr2, err := NewManager(Config{Node: "coord", Log: log2, Keys: gen2})
	if err != nil {
		t.Fatal(err)
	}
	client2 := keygen.NewClient(func(ctx context.Context, n uint64) (rfrb.Range, error) {
		return gen2.Allocate(ctx, "coord", n)
	})
	mgr2.Register(core.NewCloud(core.CloudConfig{Name: "user", Store: e.store, Keys: client2}))
	mgr2.Register(e.block)
	// The crash ended every reader, so Recover's closing GC must drain the
	// checkpointed chain and reclaim the superseded page. If the chain was
	// lost from the checkpoint, the page leaks forever.
	if err := mgr2.Recover(ctxb(), nil); err != nil {
		t.Fatal(err)
	}
	if mgr2.ChainLen() != 0 {
		t.Fatalf("chain len after recovery = %d, want 0 (drained by recovery GC)", mgr2.ChainLen())
	}
	if e.store.Len() != 1 {
		t.Fatalf("store has %d objects after recovery, want 1 (superseded page leaked)", e.store.Len())
	}
}
