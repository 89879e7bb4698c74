package ocm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cloudiq/internal/blockdev"
	"cloudiq/internal/faultinject"
	"cloudiq/internal/objstore"
)

func ctxb() context.Context { return context.Background() }

func newCache(t *testing.T, deviceBytes int64, store objstore.Store) *Cache {
	t.Helper()
	dev := blockdev.NewMem(blockdev.Config{Capacity: deviceBytes})
	c, err := New(Config{Device: dev, Store: store, BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("timeout waiting for ", msg)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestReadThroughMissThenHit(t *testing.T) {
	store := objstore.NewMem(objstore.Config{})
	_ = store.Put(ctxb(), "k1", []byte("contents"))
	c := newCache(t, 1<<16, store)

	got, err := c.Get(ctxb(), "k1")
	if err != nil || string(got) != "contents" {
		t.Fatalf("miss read = %q, %v", got, err)
	}
	// The fill is asynchronous; wait for it to land.
	c.Quiesce()

	storeGets := store.Metrics().Gets()
	got, err = c.Get(ctxb(), "k1")
	if err != nil || string(got) != "contents" {
		t.Fatalf("hit read = %q, %v", got, err)
	}
	if store.Metrics().Gets() != storeGets {
		t.Fatal("cache hit still touched the object store")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.HitRate() != 0.5 {
		t.Fatalf("HitRate = %v", s.HitRate())
	}
}

func TestGetMissingKeyPropagates(t *testing.T) {
	store := objstore.NewMem(objstore.Config{})
	c := newCache(t, 1<<16, store)
	if _, err := c.Get(ctxb(), "ghost"); !errors.Is(err, objstore.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestPutBackIsAsyncDurableAfterFlush(t *testing.T) {
	store := objstore.NewMem(objstore.Config{})
	c := newCache(t, 1<<16, store)
	if err := c.PutBack(ctxb(), "page1", []byte("dirty")); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushForCommit(ctxb(), []string{"page1"}); err != nil {
		t.Fatal(err)
	}
	got, err := store.Get(ctxb(), "page1")
	if err != nil || string(got) != "dirty" {
		t.Fatalf("store after flush = %q, %v", got, err)
	}
	// The written page is readable through the cache without a store GET.
	gets := store.Metrics().Gets()
	got, err = c.Get(ctxb(), "page1")
	if err != nil || string(got) != "dirty" || store.Metrics().Gets() != gets {
		t.Fatalf("cached read-back = %q, %v (gets %d->%d)", got, err, gets, store.Metrics().Gets())
	}
}

func TestPutThroughSynchronouslyDurable(t *testing.T) {
	store := objstore.NewMem(objstore.Config{})
	c := newCache(t, 1<<16, store)
	if err := c.PutThrough(ctxb(), "p", []byte("commit")); err != nil {
		t.Fatal(err)
	}
	// Durable immediately, no flush needed.
	got, err := store.Get(ctxb(), "p")
	if err != nil || string(got) != "commit" {
		t.Fatalf("store = %q, %v", got, err)
	}
	waitFor(t, func() bool { return c.Len() == 1 }, "async cache fill")
}

func TestFlushForCommitSkipsUnknownAndDurableKeys(t *testing.T) {
	store := objstore.NewMem(objstore.Config{})
	c := newCache(t, 1<<16, store)
	_ = c.PutThrough(ctxb(), "durable", []byte("x"))
	if err := c.FlushForCommit(ctxb(), []string{"durable", "never-seen"}); err != nil {
		t.Fatal(err)
	}
}

func TestUploadFailureRollsBackCommit(t *testing.T) {
	plan := faultinject.New(1)
	plan.Always(faultinject.ObjPut.With("bad"))
	store := objstore.NewMem(objstore.Config{Faults: plan})
	c := newCache(t, 1<<16, store)
	if err := c.PutBack(ctxb(), "bad", []byte("x")); err != nil {
		t.Fatal(err) // write-back itself succeeds (local write)
	}
	if err := c.FlushForCommit(ctxb(), []string{"bad"}); !errors.Is(err, ErrUploadFailed) {
		t.Fatalf("err = %v, want ErrUploadFailed", err)
	}
	if got := c.Stats().UploadFails; got != 1 {
		t.Fatalf("UploadFails = %d, want 1", got)
	}
}

func TestFailedEntryDoesNotServeReads(t *testing.T) {
	plan := faultinject.New(1)
	plan.Always(faultinject.ObjPut.With("bad"))
	store := objstore.NewMem(objstore.Config{Faults: plan})
	c := newCache(t, 1<<16, store)
	_ = c.PutBack(ctxb(), "bad", []byte("x"))
	waitFor(t, func() bool { return c.Stats().UploadFails > 0 }, "upload failure")
	// The page never reached the store and must not be readable.
	if _, err := c.Get(ctxb(), "bad"); !errors.Is(err, objstore.ErrNotFound) {
		t.Fatalf("read of failed page: err = %v, want ErrNotFound", err)
	}
}

func TestLocalDeviceFailureDegradesToDirectWrite(t *testing.T) {
	// §4: if the write to locally attached storage fails, the error is
	// ignored and the page is written directly to the object store.
	dev := blockdev.NewMem(blockdev.Config{
		Capacity: 1 << 16,
		Faults:   faultinject.New(1).Always(faultinject.DevWrite),
	})
	store := objstore.NewMem(objstore.Config{})
	c, err := New(Config{Device: dev, Store: store, BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	if err := c.PutBack(ctxb(), "p", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got, err := store.Get(ctxb(), "p"); err != nil || string(got) != "x" {
		t.Fatalf("store = %q, %v", got, err)
	}
	if c.Len() != 0 {
		t.Fatal("failed local write left an index entry")
	}
}

func TestLRUEviction(t *testing.T) {
	store := objstore.NewMem(objstore.Config{})
	// Device fits exactly 4 one-block entries.
	c := newCache(t, 4*64, store)
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("k%d", i)
		_ = store.Put(ctxb(), key, []byte{byte(i)})
		_, _ = c.Get(ctxb(), key)
		c.Quiesce()
	}
	// Touch k0 so k1 becomes the LRU victim.
	_, _ = c.Get(ctxb(), "k0")
	_ = store.Put(ctxb(), "k4", []byte{4})
	_, _ = c.Get(ctxb(), "k4")
	waitFor(t, func() bool { return c.Stats().Evictions >= 1 }, "eviction")

	// k0 must still be cached; k1 must have been evicted.
	gets := store.Metrics().Gets()
	_, _ = c.Get(ctxb(), "k0")
	if store.Metrics().Gets() != gets {
		t.Fatal("k0 was evicted despite being recently used")
	}
	_, _ = c.Get(ctxb(), "k1")
	if store.Metrics().Gets() != gets+1 {
		t.Fatal("k1 unexpectedly still cached")
	}
}

// A dropped write-back upload (the queue a crashed process never drained)
// must surface through FlushForCommit, not silently commit.
func TestUploadQueueDropOnCrash(t *testing.T) {
	plan := faultinject.New(11)
	plan.FailNext(faultinject.OCMUploadDrop, 1)
	store := objstore.NewMem(objstore.Config{})
	dev := blockdev.NewMem(blockdev.Config{Capacity: 1 << 16})
	c, err := New(Config{Device: dev, Store: store, BlockSize: 64, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	if err := c.PutBack(ctxb(), "dropped", []byte("x")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return c.Stats().UploadFails > 0 }, "drop")
	if err := c.FlushForCommit(ctxb(), []string{"dropped"}); !errors.Is(err, ErrUploadFailed) {
		t.Fatalf("err = %v, want ErrUploadFailed", err)
	}
	if store.Len() != 0 {
		t.Fatal("dropped upload reached the store")
	}
	// A fresh write-back after the drop succeeds (site was one-shot).
	if err := c.PutBack(ctxb(), "ok", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushForCommit(ctxb(), []string{"ok"}); err != nil {
		t.Fatal(err)
	}
}

// gatedStore blocks Puts of one key until released, so tests can hold an
// upload in flight while they probe the cache's eviction behaviour.
type gatedStore struct {
	*objstore.MemStore
	gateKey string
	blocked atomic.Int64
	release chan struct{}
}

func (g *gatedStore) Put(ctx context.Context, key string, data []byte) error {
	if key == g.gateKey {
		g.blocked.Add(1)
		<-g.release
	}
	return g.MemStore.Put(ctx, key, data)
}

func TestWriteBackEntriesNotEvictableUntilUploaded(t *testing.T) {
	// Make uploads hang until released, then fill the device: eviction
	// must not touch the pending entries.
	store := &gatedStore{
		MemStore: objstore.NewMem(objstore.Config{}),
		gateKey:  "pending",
		release:  make(chan struct{}),
	}
	c := newCache(t, 2*64, store) // two blocks total
	if err := c.PutBack(ctxb(), "pending", []byte("p")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return store.blocked.Load() > 0 }, "upload to start")

	// Fill the remaining block, then force an allocation that requires
	// evicting: only the second entry is evictable.
	_ = store.Put(ctxb(), "a", []byte("a"))
	_, _ = c.Get(ctxb(), "a")
	waitFor(t, func() bool { return c.Len() == 2 }, "fill a")
	_ = store.Put(ctxb(), "b", []byte("b"))
	_, _ = c.Get(ctxb(), "b")
	waitFor(t, func() bool { return c.Stats().Evictions+c.Stats().FillDrops >= 1 }, "eviction or drop")

	close(store.release)
	if err := c.FlushForCommit(ctxb(), []string{"pending"}); err != nil {
		t.Fatal(err)
	}
	if got, err := store.Get(ctxb(), "pending"); err != nil || string(got) != "p" {
		t.Fatalf("pending entry lost: %q, %v", got, err)
	}
}

// gatedDevice holds every WriteAt open until released, so tests can probe
// the cache while an entry is indexed but its blocks are not yet written.
type gatedDevice struct {
	blockdev.Device
	blocked atomic.Int64
	release chan struct{}
}

func (g *gatedDevice) WriteAt(ctx context.Context, p []byte, off int64) error {
	g.blocked.Add(1)
	<-g.release
	return g.Device.WriteAt(ctx, p, off)
}

// An entry is indexed before its device write lands. Until it has landed the
// blocks hold zeros (or the previous tenant's page), so a concurrent Get must
// go to the store instead of serving them.
func TestGetDuringFillReadsStoreNotDevice(t *testing.T) {
	store := objstore.NewMem(objstore.Config{})
	_ = store.Put(ctxb(), "k", []byte("contents"))
	dev := &gatedDevice{
		Device:  blockdev.NewMem(blockdev.Config{Capacity: 1 << 12}),
		release: make(chan struct{}),
	}
	c, err := New(Config{Device: dev, Store: store, BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	// Runs before Close, which waits for the gated fill.
	var release sync.Once
	openGate := func() { release.Do(func() { close(dev.release) }) }
	t.Cleanup(openGate)

	if got, err := c.Get(ctxb(), "k"); err != nil || string(got) != "contents" {
		t.Fatalf("first read = %q, %v", got, err)
	}
	waitFor(t, func() bool { return dev.blocked.Load() == 1 }, "fill to reach the device")
	if got, err := c.Get(ctxb(), "k"); err != nil || string(got) != "contents" {
		t.Fatalf("read during fill = %q, %v", got, err)
	}

	// Same window on the write-back path: the page is on neither the device
	// nor the store until PutBack returns, so the honest answer is not-found.
	putDone := make(chan error, 1)
	go func() { putDone <- c.PutBack(ctxb(), "n", []byte("new page")) }()
	waitFor(t, func() bool { return dev.blocked.Load() == 2 }, "PutBack to reach the device")
	if got, err := c.Get(ctxb(), "n"); !errors.Is(err, objstore.ErrNotFound) {
		t.Fatalf("read during PutBack = %q, %v", got, err)
	}

	openGate()
	if err := <-putDone; err != nil {
		t.Fatal(err)
	}
	c.Quiesce()
	if s := c.Stats(); s.Hits != 0 || s.Misses != 3 || s.FillDrops != 1 {
		t.Fatalf("stats = %+v, want 0 hits, 3 misses, the duplicate fill dropped", s)
	}
	for key, want := range map[string]string{"k": "contents", "n": "new page"} {
		if got, err := c.Get(ctxb(), key); err != nil || string(got) != want {
			t.Fatalf("Get(%s) after the writes landed = %q, %v", key, got, err)
		}
	}
	if s := c.Stats(); s.Hits != 2 {
		t.Fatalf("stats = %+v, want both reads served from the device", s)
	}
}

func TestDeleteInvalidatesAndRemoves(t *testing.T) {
	store := objstore.NewMem(objstore.Config{})
	c := newCache(t, 1<<16, store)
	_ = c.PutBack(ctxb(), "k", []byte("x"))
	if err := c.FlushForCommit(ctxb(), []string{"k"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(ctxb(), "k"); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatal("entry still indexed after delete")
	}
	if _, err := store.Get(ctxb(), "k"); !errors.Is(err, objstore.ErrNotFound) {
		t.Fatalf("store still has the object: %v", err)
	}
	// Deleting an uncached key is fine.
	if err := c.Delete(ctxb(), "ghost"); err != nil {
		t.Fatal(err)
	}
}

func TestClosedCacheRejectsOperations(t *testing.T) {
	store := objstore.NewMem(objstore.Config{})
	c := newCache(t, 1<<16, store)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctxb(), "k"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get err = %v", err)
	}
	if err := c.PutBack(ctxb(), "k", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("PutBack err = %v", err)
	}
	if err := c.FlushForCommit(ctxb(), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("FlushForCommit err = %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal("second Close errored")
	}
}

func TestCloseDrainsPendingUploads(t *testing.T) {
	store := objstore.NewMem(objstore.Config{})
	c := newCache(t, 1<<16, store)
	for i := 0; i < 50; i++ {
		if err := c.PutBack(ctxb(), fmt.Sprintf("k%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := store.Len(); got != 50 {
		t.Fatalf("store has %d objects after Close, want 50", got)
	}
}

func TestNewValidation(t *testing.T) {
	store := objstore.NewMem(objstore.Config{})
	if _, err := New(Config{Store: store}); err == nil {
		t.Fatal("nil device accepted")
	}
	dev := blockdev.NewMem(blockdev.Config{Capacity: 10})
	if _, err := New(Config{Device: dev}); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, err := New(Config{Device: dev, Store: store, BlockSize: 4096}); err == nil {
		t.Fatal("device smaller than a block accepted")
	}
}

func TestConcurrentMixedWorkload(t *testing.T) {
	store := objstore.NewMem(objstore.Config{})
	c := newCache(t, 1<<14, store) // small device to force evictions
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("w%d-%d", w, i)
				var err error
				if i%2 == 0 {
					err = c.PutBack(ctxb(), key, []byte(key))
				} else {
					err = c.PutThrough(ctxb(), key, []byte(key))
				}
				if err != nil {
					t.Error(err)
					return
				}
				if i%10 == 9 {
					var keys []string
					for j := i - 9; j <= i; j++ {
						keys = append(keys, fmt.Sprintf("w%d-%d", w, j))
					}
					if err := c.FlushForCommit(ctxb(), keys); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := store.Len(); got != 800 {
		t.Fatalf("store has %d objects, want 800", got)
	}
	// Every object is readable with correct contents.
	for w := 0; w < 8; w++ {
		for i := 0; i < 100; i++ {
			key := fmt.Sprintf("w%d-%d", w, i)
			got, err := c.Get(ctxb(), key)
			if err != nil || string(got) != key {
				t.Fatalf("Get(%s) = %q, %v", key, got, err)
			}
		}
	}
}
