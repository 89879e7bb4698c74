package cloudiq

import (
	"context"
	"testing"

	"cloudiq/internal/rfrb"
)

// TestReaderNodeOverSharedSystemDbspace exercises the multiplex reader path
// through the public API: a coordinator loads data; a reader node gets a
// copy of the system dbspace, recovers read-only (no GC, no writes), and
// queries the shared store.
func TestReaderNodeOverSharedSystemDbspace(t *testing.T) {
	store := NewMemObjectStore(ObjectStoreConfig{})
	logDev := NewMemBlockDevice(BlockDeviceConfig{Growable: true})
	coord, err := Open(ctxb(), Config{LogDevice: logDev})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.AttachCloudDbspace("user", store, CloudOptions{}); err != nil {
		t.Fatal(err)
	}
	tx := coord.Begin()
	tbl, _ := tx.CreateTable(ctxb(), "user", "shared", demoSchema(), TableOptions{SegRows: 32})
	_ = tbl.Append(ctxb(), fillBatch(100, 0))
	if err := tx.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	objects := store.Len()

	// Reader node: its own copy of the system dbspace image.
	img := make([]byte, logDev.Size())
	if err := logDev.ReadAt(ctxb(), img, 0); err != nil {
		t.Fatal(err)
	}
	readerLog := NewMemBlockDevice(BlockDeviceConfig{Growable: true})
	if err := readerLog.WriteAt(ctxb(), img, 0); err != nil {
		t.Fatal(err)
	}
	reader, err := Open(ctxb(), Config{
		Node:      "r1",
		LogDevice: readerLog,
		AllocKeys: func(ctx context.Context, n uint64) (rfrb.Range, error) { panic("readers do not allocate") },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	if err := reader.AttachCloudDbspace("user", store, CloudOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := reader.RecoverAsReader(ctxb()); err != nil {
		t.Fatal(err)
	}
	// Reader recovery must not have garbage collected anything.
	if got := store.Len(); got != objects {
		t.Fatalf("reader recovery changed the store: %d -> %d objects", objects, got)
	}
	rtx := reader.Begin()
	rt, err := rtx.Table(ctxb(), "user", "shared")
	if err != nil {
		t.Fatal(err)
	}
	src, err := Scan(rt, []string{"k"}, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(ctxb(), src)
	if err != nil || out.Rows() != 100 {
		t.Fatalf("reader scan = %d rows, %v", out.Rows(), err)
	}
	_ = rtx.Rollback(ctxb())
}

// TestReaderRecoversPastBlockDbspaceCheckpoint: a coordinator checkpoint
// carries the freelist of every block dbspace it owns, but a reader node
// applies only the counters and the catalog image of a checkpoint. A reader
// that attaches the shared cloud dbspace alone must recover past such a
// checkpoint without looking the block dbspace up.
func TestReaderRecoversPastBlockDbspaceCheckpoint(t *testing.T) {
	store := NewMemObjectStore(ObjectStoreConfig{})
	logDev := NewMemBlockDevice(BlockDeviceConfig{Growable: true})
	coord, err := Open(ctxb(), Config{LogDevice: logDev})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.AttachCloudDbspace("user", store, CloudOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := coord.AttachBlockDbspace("main", NewMemBlockDevice(BlockDeviceConfig{Capacity: 1 << 20}), 512); err != nil {
		t.Fatal(err)
	}
	tx := coord.Begin()
	tbl, err := tx.CreateTable(ctxb(), "user", "shared", demoSchema(), TableOptions{SegRows: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Append(ctxb(), fillBatch(100, 0)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	if err := coord.Checkpoint(ctxb()); err != nil {
		t.Fatal(err)
	}

	img := make([]byte, logDev.Size())
	if err := logDev.ReadAt(ctxb(), img, 0); err != nil {
		t.Fatal(err)
	}
	readerLog := NewMemBlockDevice(BlockDeviceConfig{Growable: true})
	if err := readerLog.WriteAt(ctxb(), img, 0); err != nil {
		t.Fatal(err)
	}
	reader, err := Open(ctxb(), Config{
		Node:      "r1",
		LogDevice: readerLog,
		AllocKeys: func(ctx context.Context, n uint64) (rfrb.Range, error) { panic("readers do not allocate") },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	if err := reader.AttachCloudDbspace("user", store, CloudOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := reader.RecoverAsReader(ctxb()); err != nil {
		t.Fatal(err)
	}
	rtx := reader.Begin()
	defer rtx.Rollback(ctxb())
	rt, err := rtx.Table(ctxb(), "user", "shared")
	if err != nil {
		t.Fatal(err)
	}
	src, err := Scan(rt, []string{"k"}, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(ctxb(), src)
	if err != nil || out.Rows() != 100 {
		t.Fatalf("reader scan = %v rows, %v", out, err)
	}
}

// TestCoordinatorRPCThroughPublicAPI drives the multiplex server/client
// re-exports end to end.
func TestCoordinatorRPCThroughPublicAPI(t *testing.T) {
	store := NewMemObjectStore(ObjectStoreConfig{})
	coord, err := Open(ctxb(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.AttachCloudDbspace("user", store, CloudOptions{}); err != nil {
		t.Fatal(err)
	}
	srv, err := ListenCoordinator(context.Background(), "127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := DialCoordinator(srv.Addr(), "W1")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	writer, err := Open(ctxb(), Config{
		Node:      "W1",
		AllocKeys: client.AllocFunc(),
		Notify:    client.Notify(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	if err := writer.AttachCloudDbspace("user", store, CloudOptions{}); err != nil {
		t.Fatal(err)
	}

	tx := writer.Begin()
	tbl, err := tx.CreateTable(ctxb(), "user", "t", demoSchema(), TableOptions{SegRows: 16})
	if err != nil {
		t.Fatal(err)
	}
	_ = tbl.Append(ctxb(), fillBatch(64, 0))
	if err := tx.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	committed := store.Len()

	// Orphan some pages, then crash + restart GC over RPC.
	tx2 := writer.Begin()
	tbl2, _ := tx2.OpenTableForAppend(ctxb(), "user", "t")
	_ = tbl2.Append(ctxb(), fillBatch(64, 500))
	if _, err := tbl2.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	if store.Len() <= committed {
		t.Fatal("no orphaned objects were flushed")
	}
	if err := client.AnnounceRestart(ctxb()); err != nil {
		t.Fatal(err)
	}
	if got := store.Len(); got != committed {
		t.Fatalf("restart GC left %d objects, want %d", got, committed)
	}
}
