package txn

import (
	"context"
	"testing"

	"cloudiq/internal/blockdev"
	"cloudiq/internal/core"
	"cloudiq/internal/keygen"
	"cloudiq/internal/objstore"
	"cloudiq/internal/rfrb"
	"cloudiq/internal/wal"
)

// TestTable1Scenario replays the recovery and garbage-collection walkthrough
// of Table 1 in the paper, with a coordinator and one writer node W1. The
// paper's illustrative keys 101–200 correspond here to the first 100 keys of
// the reserved range [2^63, 2^64).
func TestTable1Scenario(t *testing.T) {
	base := rfrb.CloudKeyBase
	keys := func(lo, hi uint64) rfrb.Range { // paper key K -> base + (K - 101)
		return rfrb.Range{Start: base + lo - 101, End: base + hi - 101 + 1}
	}

	// Coordinator: key generator + its own transaction log.
	coordLogDev := blockdev.NewMem(blockdev.Config{Growable: true})
	coordLog, err := wal.Open(ctxb(), coordLogDev)
	if err != nil {
		t.Fatal(err)
	}
	gen := keygen.NewGenerator(coordLog)
	coord, err := NewManager(Config{Node: "coord", Log: coordLog, Keys: gen})
	if err != nil {
		t.Fatal(err)
	}

	// Shared object store; the user dbspace as seen from W1. The writer's
	// key client asks the coordinator for exactly 100 keys at a time so the
	// allocation event at clock 60 matches the table.
	store := objstore.NewMem(objstore.Config{})
	w1Client := keygen.NewClient(func(ctx context.Context, n uint64) (rfrb.Range, error) {
		return gen.Allocate(ctx, "W1", 100)
	})
	cloud := core.NewCloud(core.CloudConfig{Name: "user", Store: store, Keys: w1Client})
	coord.Register(cloud)

	// Writer node W1: its own log; commit notifications flow to the
	// coordinator (and are durably logged there).
	w1LogDev := blockdev.NewMem(blockdev.Config{Growable: true})
	w1Log, err := wal.Open(ctxb(), w1LogDev)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := NewManager(Config{
		Node: "W1",
		Log:  w1Log,
		Notify: func(node string, consumed *rfrb.Bitmap) {
			if err := coord.NotifyCommit(ctxb(), node, consumed); err != nil {
				t.Error(err)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	w1.Register(cloud)

	write := func(tx *Txn, n int) {
		t.Helper()
		sink := tx.Sink("user")
		for i := 0; i < n; i++ {
			written, err := cloud.WriteBatch(ctxb(), [][]byte{{byte(i)}}, core.WriteThrough)
			if err != nil {
				t.Fatal(err)
			}
			sink.NoteAllocated(written[0])
		}
	}
	activeSet := func(g *keygen.Generator) []rfrb.Range { return g.ActiveSet("W1") }

	// Clock 50: checkpoint. The active set is empty.
	if err := coord.Checkpoint(ctxb()); err != nil {
		t.Fatal(err)
	}
	if got := activeSet(gen); got != nil {
		t.Fatalf("clock 50: active set = %v, want empty", got)
	}

	// Clock 60–70: T1 begins on W1; its first flush triggers the key-range
	// allocation 101–200, and objects 101–130 are flushed.
	t1 := w1.Begin()
	write(t1, 30)
	if got := activeSet(gen); len(got) != 1 || got[0] != keys(101, 200) {
		t.Fatalf("clock 70: active set = %v, want [%v]", got, keys(101, 200))
	}

	// Clock 80: T2 begins on W1, uses keys 131–150.
	t2 := w1.Begin()
	write(t2, 20)

	// Clock 90: T1 commits; the active set shrinks to 131–200.
	if err := w1.Commit(ctxb(), t1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := activeSet(gen); len(got) != 1 || got[0] != keys(131, 200) {
		t.Fatalf("clock 90: active set = %v, want [%v]", got, keys(131, 200))
	}

	// Clock 100: T3 begins on W1, flushes keys 151–160.
	t3 := w1.Begin()
	write(t3, 10)
	if got := store.Len(); got != 60 {
		t.Fatalf("clock 100: store has %d objects, want 60", got)
	}

	// Clock 110–120: the coordinator crashes and recovers. The active set
	// is rebuilt from the checkpoint (empty), the allocation record
	// (101–200) and the commit notification for T1 (drop 101–130).
	coordLog2, err := wal.Open(ctxb(), coordLogDev)
	if err != nil {
		t.Fatal(err)
	}
	gen2 := keygen.NewGenerator(coordLog2)
	coord2, err := NewManager(Config{Node: "coord", Log: coordLog2, Keys: gen2})
	if err != nil {
		t.Fatal(err)
	}
	coord2.Register(cloud)
	if err := coord2.Recover(ctxb(), nil); err != nil {
		t.Fatal(err)
	}
	if got := activeSet(gen2); len(got) != 1 || got[0] != keys(131, 200) {
		t.Fatalf("clock 120: recovered active set = %v, want [%v]", got, keys(131, 200))
	}
	if got := gen2.MaxAllocated(); got != keys(101, 200).End {
		t.Fatalf("clock 120: recovered max key = %#x, want %#x", got, keys(101, 200).End)
	}

	// Clock 130: T2 rolls back. Its objects (131–150) are garbage collected
	// immediately, but — deliberately — the active set is NOT updated
	// (avoiding coordinator communication for the common rollback case).
	if err := w1.Rollback(ctxb(), t2); err != nil {
		t.Fatal(err)
	}
	if got := store.Len(); got != 40 {
		t.Fatalf("clock 130: store has %d objects, want 40", got)
	}
	if got := activeSet(gen2); len(got) != 1 || got[0] != keys(131, 200) {
		t.Fatalf("clock 130: active set = %v, must be unchanged", got)
	}

	// Clock 140–150: W1 crashes and restarts. The coordinator polls every
	// key in W1's active set 131–200: T2's keys are already gone (harmless
	// re-poll), T3's flushed keys 151–160 are deleted, unconsumed keys
	// 161–200 never existed. The active set is cleared.
	if err := coord2.WriterRestartGC(ctxb(), "W1"); err != nil {
		t.Fatal(err)
	}
	if got := activeSet(gen2); got != nil {
		t.Fatalf("clock 150: active set = %v, want empty", got)
	}
	// Only T1's committed objects (101–130) survive.
	if got := store.Len(); got != 30 {
		t.Fatalf("clock 150: store has %d objects, want 30 (T1's committed pages)", got)
	}
	for k := keys(101, 130).Start; k < keys(101, 130).End; k++ {
		name := core.KeyNamer{}.Name(k)
		if ok, _ := store.Exists(ctxb(), name); !ok {
			t.Fatalf("committed object %#x missing after GC", k)
		}
	}
	_ = t3 // T3 died with the writer crash; its pages were collected above.
}
