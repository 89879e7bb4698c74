package buffer

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"cloudiq/internal/blockdev"
	"cloudiq/internal/core"
	"cloudiq/internal/keygen"
	"cloudiq/internal/objstore"
	"cloudiq/internal/rfrb"
)

func ctxb() context.Context { return context.Background() }

type rig struct {
	store *objstore.MemStore
	ds    *core.CloudDbspace
	pool  *Pool
	rb    *rfrb.Bitmap
	rf    *rfrb.Bitmap
}

func newRig(t *testing.T, capacity int64, consistency objstore.Consistency) *rig {
	if t != nil {
		t.Helper()
	}
	store := objstore.NewMem(objstore.Config{Consistency: consistency})
	gen := keygen.NewGenerator(nil)
	client := keygen.NewClient(func(ctx context.Context, n uint64) (rfrb.Range, error) {
		return gen.Allocate(ctx, "node", n)
	})
	ds := core.NewCloud(core.CloudConfig{Name: "user", Store: store, Keys: client})
	return &rig{
		store: store,
		ds:    ds,
		pool:  NewPool(Config{Capacity: capacity}),
		rb:    &rfrb.Bitmap{},
		rf:    &rfrb.Bitmap{},
	}
}

func (r *rig) open(t *testing.T, fanout int) *Object {
	bm, err := core.NewBlockmap(r.ds, fanout)
	if t != nil && err != nil {
		t.Fatal(err)
	}
	return r.pool.OpenObject(r.ds, bm, core.LockedSink(core.BitmapSink{RB: r.rb, RF: r.rf}))
}

func pageData(i uint64, n int) []byte {
	d := make([]byte, n)
	for j := range d {
		d[j] = byte(i + uint64(j))
	}
	return d
}

func TestWriteReadInCache(t *testing.T) {
	r := newRig(t, 1<<20, objstore.Consistency{})
	obj := r.open(t, 8)
	want := pageData(1, 100)
	if err := obj.Write(ctxb(), 0, want); err != nil {
		t.Fatal(err)
	}
	got, err := obj.Read(ctxb(), 0)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Read = %v, %v", got, err)
	}
	// Nothing hit storage yet: pages are born in RAM.
	if r.store.Len() != 0 {
		t.Fatalf("store has %d objects before any flush", r.store.Len())
	}
	if obj.DirtyCount() != 1 {
		t.Fatalf("DirtyCount = %d", obj.DirtyCount())
	}
}

func TestFlushForCommitPersistsAndReopens(t *testing.T) {
	r := newRig(t, 1<<20, objstore.Consistency{NewKeyMissReads: 1})
	obj := r.open(t, 4)
	for i := uint64(0); i < 20; i++ {
		if err := obj.Write(ctxb(), i, pageData(i, 64)); err != nil {
			t.Fatal(err)
		}
	}
	id, err := obj.FlushForCommit(ctxb())
	if err != nil {
		t.Fatal(err)
	}
	if obj.DirtyCount() != 0 {
		t.Fatalf("DirtyCount after commit = %d", obj.DirtyCount())
	}
	// Reopen from the identity with a cold pool: all pages readable, even
	// under eventual consistency (retry-until-found).
	bm, err := core.OpenBlockmap(r.ds, id)
	if err != nil {
		t.Fatal(err)
	}
	cold := NewPool(Config{Capacity: 1 << 20})
	reader := cold.OpenObject(r.ds, bm, nil)
	for i := uint64(0); i < 20; i++ {
		got, err := reader.Read(ctxb(), i)
		if err != nil || !bytes.Equal(got, pageData(i, 64)) {
			t.Fatalf("page %d: %v, %v", i, got, err)
		}
	}
}

func TestReadOnlyObjectRejectsWrites(t *testing.T) {
	r := newRig(t, 1<<20, objstore.Consistency{})
	bm, _ := core.NewBlockmap(r.ds, 4)
	reader := r.pool.OpenObject(r.ds, bm, nil)
	if err := reader.Write(ctxb(), 0, []byte("x")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("err = %v", err)
	}
	if _, err := reader.FlushForCommit(ctxb()); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("err = %v", err)
	}
}

func TestReadUnmappedPageFails(t *testing.T) {
	r := newRig(t, 1<<20, objstore.Consistency{})
	obj := r.open(t, 4)
	if _, err := obj.Read(ctxb(), 7); err == nil {
		t.Fatal("reading an unmapped page succeeded")
	}
}

func TestEvictionFlushesDirtyPagesWriteBack(t *testing.T) {
	// Capacity for ~4 pages of 100 bytes: writing 10 forces evictions,
	// which must flush dirty pages to the store.
	r := newRig(t, 400, objstore.Consistency{})
	obj := r.open(t, 8)
	for i := uint64(0); i < 10; i++ {
		if err := obj.Write(ctxb(), i, pageData(i, 100)); err != nil {
			t.Fatal(err)
		}
	}
	stats := r.pool.Stats()
	if stats.Evictions == 0 || stats.Flushes == 0 {
		t.Fatalf("stats = %+v, want evictions and flushes", stats)
	}
	if r.store.Len() == 0 {
		t.Fatal("no pages reached the store despite evictions")
	}
	if r.pool.Size() > 400 {
		t.Fatalf("pool size %d over budget", r.pool.Size())
	}
	// All pages still readable (evicted ones reload from the store).
	for i := uint64(0); i < 10; i++ {
		got, err := obj.Read(ctxb(), i)
		if err != nil || !bytes.Equal(got, pageData(i, 100)) {
			t.Fatalf("page %d after eviction: %v", i, err)
		}
	}
}

func TestEvictedThenRewrittenPageVersionsNotReused(t *testing.T) {
	// A page evicted (flushed), re-read, re-dirtied and committed must
	// never overwrite its first object key: RB accumulates both versions,
	// RF records the superseded one.
	r := newRig(t, 150, objstore.Consistency{})
	obj := r.open(t, 4)
	_ = obj.Write(ctxb(), 0, pageData(0, 100))
	_ = obj.Write(ctxb(), 1, pageData(1, 100)) // evicts page 0 (dirty flush)
	if r.store.Len() == 0 {
		t.Fatal("expected page 0 to be flushed by eviction")
	}
	keysAfterEvict := r.store.Len()
	if err := obj.Write(ctxb(), 0, pageData(42, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := obj.FlushForCommit(ctxb()); err != nil {
		t.Fatal(err)
	}
	// The first version's key is in RF (superseded), and no key appears
	// twice: store object count equals RB count.
	if r.rf.Count() == 0 {
		t.Fatal("RF empty: superseded version not recorded")
	}
	if uint64(r.store.Len()) != r.rb.Count() {
		t.Fatalf("store %d objects vs RB %d: key reuse or leak", r.store.Len(), r.rb.Count())
	}
	_ = keysAfterEvict
	got, err := obj.Read(ctxb(), 0)
	if err != nil || !bytes.Equal(got, pageData(42, 100)) {
		t.Fatalf("final contents wrong: %v", err)
	}
}

func TestLRUKeepsHotPages(t *testing.T) {
	r := newRig(t, 350, objstore.Consistency{})
	obj := r.open(t, 8)
	for i := uint64(0); i < 3; i++ {
		_ = obj.Write(ctxb(), i, pageData(i, 100))
	}
	if _, err := obj.FlushForCommit(ctxb()); err != nil {
		t.Fatal(err)
	}
	// Touch page 0 repeatedly, then stream pages 1,2 plus new reads to
	// force eviction: page 0 should stay resident.
	for i := 0; i < 5; i++ {
		if _, err := obj.Read(ctxb(), 0); err != nil {
			t.Fatal(err)
		}
	}
	base := r.pool.Stats()
	_ = obj.Write(ctxb(), 3, pageData(3, 100))
	_ = obj.Write(ctxb(), 4, pageData(4, 100))
	if _, err := obj.Read(ctxb(), 0); err != nil {
		t.Fatal(err)
	}
	after := r.pool.Stats()
	if after.Hits <= base.Hits {
		t.Fatalf("page 0 was evicted despite recency: %+v -> %+v", base, after)
	}
}

func TestDiscardDropsDirtyPages(t *testing.T) {
	r := newRig(t, 1<<20, objstore.Consistency{})
	obj := r.open(t, 4)
	_ = obj.Write(ctxb(), 0, pageData(0, 50))
	obj.Discard()
	if obj.DirtyCount() != 0 {
		t.Fatalf("DirtyCount = %d after discard", obj.DirtyCount())
	}
	if r.pool.Size() != 0 {
		t.Fatalf("pool size = %d after discard", r.pool.Size())
	}
	if _, err := obj.Read(ctxb(), 0); err == nil {
		t.Fatal("discarded page still readable")
	}
}

func TestFlateCodecRoundTripAndCompresses(t *testing.T) {
	codec := FlateCodec{}
	src := bytes.Repeat([]byte("abcdabcd"), 1000)
	packed := codec.Compress(src)
	if len(packed) >= len(src) {
		t.Fatalf("compressible data grew: %d -> %d", len(src), len(packed))
	}
	got, err := codec.Decompress(packed)
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("round trip failed: %v", err)
	}
	if _, err := codec.Decompress([]byte{0xFF, 0x00, 0xAB}); err == nil {
		t.Fatal("garbage accepted by Decompress")
	}
}

func TestCompressedPagesStoredSmaller(t *testing.T) {
	r := newRig(t, 1<<20, objstore.Consistency{})
	bm, _ := core.NewBlockmap(r.ds, 4)
	obj := r.pool.OpenObject(r.ds, bm, core.LockedSink(core.BitmapSink{RB: r.rb, RF: r.rf}))
	src := bytes.Repeat([]byte("columnar!"), 500)
	_ = obj.Write(ctxb(), 0, src)
	id, err := obj.FlushForCommit(ctxb())
	if err != nil {
		t.Fatal(err)
	}
	entry, err := bm.Get(ctxb(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if int(entry.Size) >= len(src) {
		t.Fatalf("stored size %d not smaller than logical %d", entry.Size, len(src))
	}
	// Read back through a fresh object with the same codec.
	bm2, _ := core.OpenBlockmap(r.ds, id)
	reader := NewPool(Config{Capacity: 1 << 20}).OpenObject(r.ds, bm2, nil)
	got, err := reader.Read(ctxb(), 0)
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("decompressed read failed: %v", err)
	}
}

func TestConcurrentReadersOneObject(t *testing.T) {
	r := newRig(t, 1<<18, objstore.Consistency{})
	obj := r.open(t, 8)
	for i := uint64(0); i < 32; i++ {
		_ = obj.Write(ctxb(), i, pageData(i, 128))
	}
	id, err := obj.FlushForCommit(ctxb())
	if err != nil {
		t.Fatal(err)
	}
	bm, _ := core.OpenBlockmap(r.ds, id)
	reader := r.pool.OpenObject(r.ds, bm, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				logical := uint64((w*7 + i) % 32)
				got, err := reader.Read(ctxb(), logical)
				if err != nil || !bytes.Equal(got, pageData(logical, 128)) {
					t.Errorf("page %d: %v", logical, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestConcurrentWritersDistinctObjects(t *testing.T) {
	r := newRig(t, 4096, objstore.Consistency{}) // small: force eviction races
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker acts as its own transaction: private bitmaps,
			// as the transaction manager provides in production.
			bm, err := core.NewBlockmap(r.ds, 4)
			if err != nil {
				t.Error(err)
				return
			}
			sink := core.LockedSink(core.BitmapSink{RB: &rfrb.Bitmap{}, RF: &rfrb.Bitmap{}})
			obj := r.pool.OpenObject(r.ds, bm, sink)
			for i := uint64(0); i < 40; i++ {
				if err := obj.Write(ctxb(), i, pageData(i+uint64(w)<<32, 100)); err != nil {
					t.Error(err)
					return
				}
			}
			if _, err := obj.FlushForCommit(ctxb()); err != nil {
				t.Error(err)
				return
			}
			for i := uint64(0); i < 40; i++ {
				got, err := obj.Read(ctxb(), i)
				if err != nil || !bytes.Equal(got, pageData(i+uint64(w)<<32, 100)) {
					t.Errorf("worker %d page %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestPropertyWriteCommitReadIdentity(t *testing.T) {
	f := func(pages []byte, capSel uint16) bool {
		capacity := int64(capSel%2048) + 256
		r := newRig(nil, capacity, objstore.Consistency{NewKeyMissReads: 1})
		obj := r.open(nil, 4)
		want := make(map[uint64][]byte)
		for i, b := range pages {
			logical := uint64(b % 32)
			data := pageData(uint64(i)*131+uint64(b), int(b%200)+1)
			if err := obj.Write(ctxb(), logical, data); err != nil {
				return false
			}
			want[logical] = data
		}
		if _, err := obj.FlushForCommit(ctxb()); err != nil {
			return false
		}
		for logical, data := range want {
			got, err := obj.Read(ctxb(), logical)
			if err != nil || !bytes.Equal(got, data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPoolStatsAndSize(t *testing.T) {
	r := newRig(t, 1<<20, objstore.Consistency{})
	obj := r.open(t, 4)
	_ = obj.Write(ctxb(), 0, pageData(0, 128))
	if got := r.pool.Size(); got != 128 {
		t.Fatalf("Size = %d, want 128", got)
	}
	_, _ = obj.Read(ctxb(), 0)
	if s := r.pool.Stats(); s.Hits != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// Overwriting replaces the accounted size.
	_ = obj.Write(ctxb(), 0, pageData(0, 64))
	if got := r.pool.Size(); got != 64 {
		t.Fatalf("Size after overwrite = %d, want 64", got)
	}
}

func TestInPlaceRewriteOnConventionalDbspace(t *testing.T) {
	// §3.1: within one transaction, a conventional dbspace may update a
	// re-flushed page in place; a cloud dbspace must version every flush.
	dev := blockdev.NewMem(blockdev.Config{Capacity: 1 << 20})
	bds, err := core.NewBlock(core.BlockConfig{Name: "main", Device: dev, BlockSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(Config{Capacity: 1 << 20})
	bm, _ := core.NewBlockmap(bds, 4)
	var rb, rf rfrb.Bitmap
	obj := pool.OpenObject(bds, bm, core.LockedSink(core.BitmapSink{RB: &rb, RF: &rf}))

	_ = obj.Write(ctxb(), 0, pageData(0, 200))
	if _, err := obj.FlushForCommit(ctxb()); err != nil {
		t.Fatal(err)
	}
	first, err := bm.Get(ctxb(), 0)
	if err != nil {
		t.Fatal(err)
	}

	// Re-dirty and re-flush the same page, same transaction, same size.
	_ = obj.Write(ctxb(), 0, pageData(42, 180))
	if _, err := obj.FlushForCommit(ctxb()); err != nil {
		t.Fatal(err)
	}
	second, err := bm.Get(ctxb(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// The data page kept its block run (only the image and size changed);
	// blockmap pages still version, which is what the tree requires.
	if second.Loc != first.Loc {
		t.Fatalf("same-txn re-flush moved the page: %v -> %v", first, second)
	}
	if want := len(FlateCodec{}.Compress(pageData(42, 180))); second.Size != uint32(want) {
		t.Fatalf("rewritten size = %d, want %d", second.Size, want)
	}
	// The run is still the page's: the rewrite supersedes nothing.
	if rf.Contains(first.Loc) {
		t.Fatalf("the in-place rewrite recorded its own run %v as freed", first)
	}
	got, err := obj.Read(ctxb(), 0)
	if err != nil || !bytes.Equal(got, pageData(42, 180)) {
		t.Fatalf("contents after in-place rewrite: %v", err)
	}

	// Contrast: a cloud dbspace versions every flush of the same page.
	r := newRig(t, 1<<20, objstore.Consistency{})
	cobj := r.open(t, 4)
	_ = cobj.Write(ctxb(), 0, pageData(0, 200))
	if _, err := cobj.FlushForCommit(ctxb()); err != nil {
		t.Fatal(err)
	}
	cloudAllocs := r.rb.Count()
	_ = cobj.Write(ctxb(), 0, pageData(1, 200))
	if _, err := cobj.FlushForCommit(ctxb()); err != nil {
		t.Fatal(err)
	}
	if r.rb.Count() <= cloudAllocs {
		t.Fatal("cloud re-flush did not allocate fresh keys")
	}
	if r.rf.Count() == 0 {
		t.Fatal("cloud re-flush did not supersede the old version")
	}
}

// cancelStore cancels a context after a fixed number of Puts, simulating an
// operator abort arriving while a commit flush is mid-flight.
type cancelStore struct {
	objstore.Store
	mu     sync.Mutex
	puts   int
	after  int
	cancel context.CancelFunc
}

func (c *cancelStore) Put(ctx context.Context, key string, data []byte) error {
	err := c.Store.Put(ctx, key, data)
	c.mu.Lock()
	c.puts++
	if c.puts == c.after {
		c.cancel()
	}
	c.mu.Unlock()
	return err
}

func (c *cancelStore) Puts() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.puts
}

// TestFlushForCommitHonorsCancellation cancels the context after the second
// page upload of a 32-page commit flush. The flush must return the
// cancellation error, and must stop flushing promptly instead of driving all
// remaining uploads to completion (the pre-pageio flush workers never looked
// at ctx again once started).
func TestFlushForCommitHonorsCancellation(t *testing.T) {
	const pages = 32
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inner := objstore.NewMem(objstore.Config{})
	cs := &cancelStore{Store: inner, after: 2, cancel: cancel}
	gen := keygen.NewGenerator(nil)
	client := keygen.NewClient(func(ctx context.Context, n uint64) (rfrb.Range, error) {
		return gen.Allocate(ctx, "node", n)
	})
	ds := core.NewCloud(core.CloudConfig{Name: "user", Store: cs, Keys: client})
	pool := NewPool(Config{Capacity: 1 << 20})
	bm, err := core.NewBlockmap(ds, 8)
	if err != nil {
		t.Fatal(err)
	}
	rb, rf := &rfrb.Bitmap{}, &rfrb.Bitmap{}
	obj := pool.OpenObject(ds, bm, core.LockedSink(core.BitmapSink{RB: rb, RF: rf}))
	for i := uint64(0); i < pages; i++ {
		if err := obj.Write(ctxb(), i, pageData(i, 64)); err != nil {
			t.Fatal(err)
		}
	}
	_, err = obj.FlushForCommit(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("FlushForCommit after mid-flight cancel = %v, want context.Canceled", err)
	}
	if got := cs.Puts(); got >= pages {
		t.Fatalf("flush drove %d uploads to completion despite cancellation", got)
	}
}

// failingStore fails every Put of designated keys (by order of first
// appearance) with that key's own sentinel error; retries of the same key
// keep failing identically.
type failingStore struct {
	objstore.Store
	mu    sync.Mutex
	seen  map[string]int
	fails map[int]error // first-appearance index -> error
}

func (f *failingStore) Put(ctx context.Context, key string, data []byte) error {
	f.mu.Lock()
	idx, ok := f.seen[key]
	if !ok {
		idx = len(f.seen)
		f.seen[key] = idx
	}
	err := f.fails[idx]
	f.mu.Unlock()
	if err != nil {
		return err
	}
	return f.Store.Put(ctx, key, data)
}

// TestFlushForCommitJoinsDistinctErrors makes two different pages fail their
// uploads with two different errors. Before the errors.Join fix the flush
// reported only whichever failure drained first and discarded the other;
// both must now be visible via errors.Is on the returned error.
func TestFlushForCommitJoinsDistinctErrors(t *testing.T) {
	errA := errors.New("disk quota exhausted")
	errB := errors.New("credential expired")
	inner := objstore.NewMem(objstore.Config{})
	fs := &failingStore{
		Store: inner,
		seen:  map[string]int{},
		fails: map[int]error{0: errA, 2: errB},
	}
	gen := keygen.NewGenerator(nil)
	client := keygen.NewClient(func(ctx context.Context, n uint64) (rfrb.Range, error) {
		return gen.Allocate(ctx, "node", n)
	})
	ds := core.NewCloud(core.CloudConfig{Name: "user", Store: fs, Keys: client})
	pool := NewPool(Config{Capacity: 1 << 20})
	bm, err := core.NewBlockmap(ds, 8)
	if err != nil {
		t.Fatal(err)
	}
	rb, rf := &rfrb.Bitmap{}, &rfrb.Bitmap{}
	obj := pool.OpenObject(ds, bm, core.LockedSink(core.BitmapSink{RB: rb, RF: rf}))
	for i := uint64(0); i < 4; i++ {
		if err := obj.Write(ctxb(), i, pageData(i, 64)); err != nil {
			t.Fatal(err)
		}
	}
	_, err = obj.FlushForCommit(ctxb())
	if err == nil {
		t.Fatal("FlushForCommit succeeded despite two failing uploads")
	}
	if !errors.Is(err, errA) {
		t.Errorf("first failure lost: %v", err)
	}
	if !errors.Is(err, errB) {
		t.Errorf("second distinct failure discarded (first-error-wins bug): %v", err)
	}
}
