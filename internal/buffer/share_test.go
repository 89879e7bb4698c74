package buffer

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"cloudiq/internal/blockdev"
	"cloudiq/internal/core"
	"cloudiq/internal/objstore"
	"cloudiq/internal/rfrb"
)

// countingDs counts the data pages handles fetch from a dbspace and how often
// each stored image is written to it. Blockmaps are opened on the dbspace
// underneath, so their node reads (which are store GETs too) and node writes
// do not count.
// gate, when set, holds every read until it is closed.
type countingDs struct {
	core.Dbspace
	reads atomic.Int64
	gate  chan struct{}
	// entered receives one value per read that reached the gate, and one for
	// the write that took hold.
	entered chan struct{}

	wmu    sync.Mutex
	writes map[string]int // stored image -> times written
	// hold, when set, blocks the next WriteBatch — that one only — until it
	// is closed.
	hold chan struct{}
}

func (c *countingDs) WriteBatch(ctx context.Context, pages [][]byte, mode core.WriteMode) ([]core.Entry, error) {
	c.wmu.Lock()
	if c.writes == nil {
		c.writes = make(map[string]int)
	}
	for _, page := range pages {
		c.writes[string(page)]++
	}
	hold := c.hold
	c.hold = nil
	c.wmu.Unlock()
	if hold != nil {
		c.entered <- struct{}{}
		<-hold
	}
	return c.Dbspace.WriteBatch(ctx, pages, mode)
}

// checkWrittenOnce asserts that no image reached the dbspace twice: with
// every page version distinct, a dirty version is flushed at most once.
func (c *countingDs) checkWrittenOnce(t *testing.T) {
	t.Helper()
	c.wmu.Lock()
	defer c.wmu.Unlock()
	for image, n := range c.writes {
		if n != 1 {
			t.Fatalf("a %d-byte page image was written %d times", len(image), n)
		}
	}
}

// countingSink counts flush events.
type countingSink struct{ allocated, freed atomic.Int64 }

func (s *countingSink) NoteAllocated(core.Entry) { s.allocated.Add(1) }
func (s *countingSink) NoteFreed(core.Entry)     { s.freed.Add(1) }

func (c *countingDs) ReadBatch(ctx context.Context, es []core.Entry) ([][]byte, error) {
	c.reads.Add(int64(len(es)))
	if c.gate != nil {
		c.entered <- struct{}{}
		<-c.gate
	}
	return c.Dbspace.ReadBatch(ctx, es)
}

// shareRig is a rig whose handles all go through one countingDs, so they
// share a pool and a dbspace identity the way a Database's transactions do.
type shareRig struct {
	*rig
	cds *countingDs
}

func newShareRig(t *testing.T, capacity int64) *shareRig {
	r := newRig(t, capacity, objstore.Consistency{})
	return &shareRig{rig: r, cds: &countingDs{Dbspace: r.ds}}
}

// writer opens a writable handle continuing from id (a fresh object when id
// is the zero identity), with bitmaps of its own as a transaction has.
func (r *shareRig) writer(t *testing.T, id core.Identity) *Object {
	t.Helper()
	bm, err := core.NewBlockmap(r.ds, 8)
	if id != (core.Identity{}) {
		bm, err = core.OpenBlockmap(r.ds, id)
	}
	if err != nil {
		t.Fatal(err)
	}
	sink := core.LockedSink(core.BitmapSink{RB: &rfrb.Bitmap{}, RF: &rfrb.Bitmap{}})
	return r.pool.OpenObject(r.cds, bm, sink, nil)
}

func (r *shareRig) reader(t *testing.T, id core.Identity) *Object {
	t.Helper()
	bm, err := core.OpenBlockmap(r.ds, id)
	if err != nil {
		t.Fatal(err)
	}
	return r.pool.OpenObject(r.cds, bm, nil, nil)
}

// commitPages writes pages [0,n) with the given seed through w and commits.
func commitPages(t *testing.T, w *Object, n int, seed uint64) core.Identity {
	t.Helper()
	for i := uint64(0); i < uint64(n); i++ {
		if err := w.Write(ctxb(), i, pageData(seed+i, 100)); err != nil {
			t.Fatal(err)
		}
	}
	id, err := w.FlushForCommit(ctxb())
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func scanPages(t *testing.T, o *Object, n int, seed uint64) {
	t.Helper()
	logicals := make([]uint64, n)
	for i := range logicals {
		logicals[i] = uint64(i)
	}
	got, err := o.ReadBatch(ctxb(), logicals)
	if err != nil {
		t.Fatal(err)
	}
	for i, data := range got {
		if !bytes.Equal(data, pageData(seed+uint64(i), 100)) {
			t.Fatalf("page %d: wrong contents", i)
		}
	}
}

// checkAccounting asserts the pool's bookkeeping at a quiescent point: size
// is the sum of the cached page lengths, nothing is mid-load, every page is
// indexed under its own key and on the LRU exactly once.
func checkAccounting(t *testing.T, p *Pool) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	var sum int64
	for key, pg := range p.pages {
		if pg.key != key || pg.loading || pg.lru == nil {
			t.Fatalf("page %+v indexed under %+v: loading=%v lru=%v", pg.key, key, pg.loading, pg.lru != nil)
		}
		if pg.dirty != (pg.owner != nil) {
			t.Fatalf("page %+v: dirty=%v with owner=%v", key, pg.dirty, pg.owner != nil)
		}
		sum += int64(len(pg.data))
	}
	if sum != p.size {
		t.Fatalf("Size() = %d, cached pages hold %d bytes", p.size, sum)
	}
	if p.lruList.Len() != len(p.pages) {
		t.Fatalf("LRU holds %d pages, index %d", p.lruList.Len(), len(p.pages))
	}
}

// (a) A second read handle on the same version is served entirely from the
// images the first one loaded.
func TestSecondReaderHitsEverything(t *testing.T) {
	r := newShareRig(t, 1<<20)
	id := commitPages(t, r.writer(t, core.Identity{}), 20, 0)
	// Drop what the commit left behind so the first reader really loads.
	cold := NewPool(Config{Capacity: 1 << 20})
	r.pool = cold

	scanPages(t, r.reader(t, id), 20, 0)
	if got := r.cds.reads.Load(); got != 20 {
		t.Fatalf("first scan fetched %d pages, want 20", got)
	}
	before := cold.Stats()
	scanPages(t, r.reader(t, id), 20, 0)
	after := cold.Stats()
	if after.Misses != before.Misses || after.Hits != before.Hits+20 {
		t.Fatalf("second scan: stats %+v -> %+v, want 20 hits and no miss", before, after)
	}
	if got := r.cds.reads.Load(); got != 20 {
		t.Fatalf("second scan fetched %d pages from the dbspace", got-20)
	}
	checkAccounting(t, cold)
}

// (b) The pages a commit flushed are hits for the first reader of the new
// version: they moved to their cloud keys instead of being fetched back.
func TestReaderAfterCommitHitsFlushedPages(t *testing.T) {
	r := newShareRig(t, 1<<20)
	id := commitPages(t, r.writer(t, core.Identity{}), 20, 0)
	scanPages(t, r.reader(t, id), 20, 0)
	if s := r.pool.Stats(); s.Misses != 0 || s.Hits != 20 {
		t.Fatalf("stats = %+v, want 20 hits and no miss", s)
	}
	if got := r.cds.reads.Load(); got != 0 {
		t.Fatalf("reader fetched %d pages from the dbspace", got)
	}
	if size := r.pool.Size(); size != 20*100 {
		t.Fatalf("Size = %d: the flushed pages should be cached once, want %d", size, 20*100)
	}
	checkAccounting(t, r.pool)
}

// (c) A new version shares every page it did not rewrite with the old one: a
// fresh reader of it misses only keys nobody has cached.
func TestNewVersionMissesOnlyNewKeys(t *testing.T) {
	r := newShareRig(t, 1<<20)
	id1 := commitPages(t, r.writer(t, core.Identity{}), 20, 0)

	// The next version rewrites page 3 and appends two pages.
	w := r.writer(t, id1)
	for _, l := range []uint64{3, 20, 21} {
		if err := w.Write(ctxb(), l, pageData(500+l, 100)); err != nil {
			t.Fatal(err)
		}
	}
	id2, err := w.FlushForCommit(ctxb())
	if err != nil {
		t.Fatal(err)
	}

	// A cold pool warmed by a reader of version 1 only.
	cold := NewPool(Config{Capacity: 1 << 20})
	r.pool = cold
	scanPages(t, r.reader(t, id1), 20, 0)
	base, reads := cold.Stats(), r.cds.reads.Load()

	fresh := r.reader(t, id2)
	for l := uint64(0); l < 22; l++ {
		want := pageData(l, 100)
		if l == 3 || l >= 20 {
			want = pageData(500+l, 100)
		}
		got, err := fresh.Read(ctxb(), l)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("page %d of version 2: %v", l, err)
		}
	}
	after := cold.Stats()
	if after.Misses-base.Misses != 3 || r.cds.reads.Load()-reads != 3 {
		t.Fatalf("fresh reader of version 2: %d misses, %d page reads, want 3 (the new keys)",
			after.Misses-base.Misses, r.cds.reads.Load()-reads)
	}
	checkAccounting(t, cold)
}

// (d) Snapshot isolation through the shared cache: a reader opened before a
// commit keeps its version of a page the writer rewrites, dirty or flushed.
func TestReaderKeepsItsVersionAcrossRewrite(t *testing.T) {
	r := newShareRig(t, 1<<20)
	id1 := commitPages(t, r.writer(t, core.Identity{}), 4, 0)
	old := r.reader(t, id1)
	v1, v2 := pageData(2, 100), pageData(99, 100)

	w := r.writer(t, id1)
	if got, _ := w.Read(ctxb(), 2); !bytes.Equal(got, v1) {
		t.Fatal("writer does not start from version 1")
	}
	if err := w.Write(ctxb(), 2, v2); err != nil {
		t.Fatal(err)
	}
	if got, _ := old.Read(ctxb(), 2); !bytes.Equal(got, v1) {
		t.Fatal("reader sees the writer's dirty page")
	}
	if got, _ := w.Read(ctxb(), 2); !bytes.Equal(got, v2) {
		t.Fatal("writer does not see its own dirty page")
	}
	id2, err := w.FlushForCommit(ctxb())
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := old.Read(ctxb(), 2); !bytes.Equal(got, v1) {
		t.Fatal("reader opened before the commit sees the new version")
	}
	if got, _ := w.Read(ctxb(), 2); !bytes.Equal(got, v2) {
		t.Fatal("writer lost its page at flush")
	}
	reads := r.cds.reads.Load()
	if got, _ := r.reader(t, id2).Read(ctxb(), 2); !bytes.Equal(got, v2) {
		t.Fatal("reader opened after the commit sees the old version")
	}
	if r.cds.reads.Load() != reads {
		t.Fatal("the committed page was fetched back instead of hit")
	}
	checkAccounting(t, r.pool)
}

// A commit and an eviction never both write the same dirty page. The commit's
// pages are in the flushing state while its write is in flight, so an
// eviction another handle triggers meanwhile passes over them; without the
// mark it wrote the LRU's oldest — the commit's first page — a second time,
// and the commit then recorded that first copy as superseded.
func TestEvictionDuringCommitNoDoubleFlush(t *testing.T) {
	const pages, size = 8, 100
	r := newShareRig(t, pages*size)
	bm, err := core.NewBlockmap(r.ds, 8)
	if err != nil {
		t.Fatal(err)
	}
	sink := &countingSink{}
	a := r.pool.OpenObject(r.cds, bm, sink, nil)
	for l := uint64(0); l < pages; l++ {
		if err := a.Write(ctxb(), l, pageData(l, size)); err != nil {
			t.Fatal(err)
		}
	}

	// Hold the commit inside the write of its one chunk: compressed and
	// submitted, nothing installed yet.
	hold := make(chan struct{})
	r.cds.hold, r.cds.entered = hold, make(chan struct{}, 1)
	committed := make(chan error, 1)
	go func() {
		_, err := a.FlushForCommit(ctxb())
		committed <- err
	}()
	<-r.cds.entered

	// A second handle takes the pool over capacity, so the evictor walks the
	// LRU from the commit's pages.
	b := r.writer(t, core.Identity{})
	if err := b.Write(ctxb(), 0, pageData(pages, size)); err != nil {
		t.Fatal(err)
	}
	close(hold)
	if err := <-committed; err != nil {
		t.Fatal(err)
	}

	for l := uint64(0); l < pages; l++ {
		if n := r.cds.writes[string(pageData(l, size))]; n != 1 {
			t.Errorf("page %d was written %d times", l, n)
		}
	}
	// No page had a stored version before, so nothing was superseded.
	if n := sink.freed.Load(); n != 0 {
		t.Errorf("NoteFreed called %d times", n)
	}
	if s := r.pool.Stats(); s.Flushes != pages+1 {
		t.Errorf("%d flushes, want %d: the commit's pages and the one the eviction wrote", s.Flushes, pages+1)
	}
	checkAccounting(t, r.pool)
}

// (e) Single-flight across handles: two handles that miss the same key at
// once issue one dbspace read.
func TestConcurrentMissesShareOneRead(t *testing.T) {
	const pages = 32
	r := newShareRig(t, 1<<20)
	id := commitPages(t, r.writer(t, core.Identity{}), pages, 0)
	r.pool = NewPool(Config{Capacity: 1 << 20})
	a, b := r.reader(t, id), r.reader(t, id)
	r.cds.entered = make(chan struct{}, 2*pages) // never blocks, even if both handles read

	for l := uint64(0); l < pages; l++ {
		r.cds.gate = make(chan struct{})
		var wg sync.WaitGroup
		for _, o := range []*Object{a, b} {
			wg.Add(1)
			go func(o *Object) {
				defer wg.Done()
				got, err := o.Read(ctxb(), l)
				if err != nil || !bytes.Equal(got, pageData(l, 100)) {
					t.Errorf("page %d: %v", l, err)
				}
			}(o)
		}
		// One handle is inside the dbspace read; give the other the chance to
		// find its placeholder before the read completes.
		<-r.cds.entered
		runtime.Gosched()
		close(r.cds.gate)
		wg.Wait()
	}
	if got := r.cds.reads.Load(); got != pages {
		t.Fatalf("%d dbspace reads for %d pages read by two handles", got, pages)
	}
	if s := r.pool.Stats(); s.Misses != pages || s.Hits != pages {
		t.Fatalf("stats = %+v, want %d misses and %d hits", s, pages, pages)
	}
	checkAccounting(t, r.pool)
}

// (f) Rollback leaves nothing of the transaction behind — neither its dirty
// pages nor the images of keys it flushed (at eviction or at a failed
// commit) and read back — and the pool is the size it was before.
func TestDiscardDropsFlushedImages(t *testing.T) {
	r := newShareRig(t, 450)
	id := commitPages(t, r.writer(t, core.Identity{}), 3, 0)
	flushes := r.pool.Stats().Flushes

	w := r.writer(t, id)
	for l := uint64(0); l < 12; l++ { // 12 pages through a 4-page pool
		if err := w.Write(ctxb(), l, pageData(700+l, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if r.pool.Stats().Flushes == flushes {
		t.Fatal("no eviction-time flush happened")
	}
	for l := uint64(0); l < 12; l++ { // read back: evicted pages reload under their keys
		if got, err := w.Read(ctxb(), l); err != nil || !bytes.Equal(got, pageData(700+l, 100)) {
			t.Fatalf("page %d before rollback: %v", l, err)
		}
	}
	w.Discard()
	checkAccounting(t, r.pool)
	r.pool.mu.Lock()
	left := len(r.pool.pages)
	r.pool.mu.Unlock()
	if left != 0 || r.pool.Size() != 0 || w.DirtyCount() != 0 {
		// The committed version's three images were evicted by the churn, so
		// an empty pool is what "nothing of the transaction" means here.
		t.Fatalf("after rollback: %d pages, %d bytes cached, %d dirty", left, r.pool.Size(), w.DirtyCount())
	}

	// With room to spare the committed images survive the rollback untouched.
	big := newShareRig(t, 1<<20)
	id = commitPages(t, big.writer(t, core.Identity{}), 3, 0)
	before := big.pool.Size()
	w = big.writer(t, id)
	scanPages(t, w, 3, 0)
	_ = w.Write(ctxb(), 1, pageData(9, 100))
	_ = w.Write(ctxb(), 5, pageData(9, 100))
	if _, err := w.FlushForCommit(ctxb()); err != nil {
		t.Fatal(err)
	}
	_ = w.Write(ctxb(), 6, pageData(9, 100))
	w.Discard()
	if got := big.pool.Size(); got != before {
		t.Fatalf("Size = %d after rollback, %d before the transaction's first write", got, before)
	}
	scanPages(t, big.reader(t, id), 3, 0)
	if big.cds.reads.Load() != 0 {
		t.Fatal("rollback dropped images of the committed version")
	}
	checkAccounting(t, big.pool)
}

// (g) A block dbspace's runs are reused and rewritten in place, so its pages
// stay private to the handle: two readers of one version share nothing.
func TestBlockDbspaceHandlesShareNothing(t *testing.T) {
	dev := blockdev.NewMem(blockdev.Config{Capacity: 1 << 20})
	bds, err := core.NewBlock(core.BlockConfig{Name: "main", Device: dev, BlockSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(Config{Capacity: 1 << 20})
	bm, _ := core.NewBlockmap(bds, 8)
	var rb, rf rfrb.Bitmap
	w := pool.OpenObject(bds, bm, core.LockedSink(core.BitmapSink{RB: &rb, RF: &rf}), nil)
	id := commitPages(t, w, 10, 0)

	for i := 1; i <= 2; i++ {
		rbm, _ := core.OpenBlockmap(bds, id)
		scanPages(t, pool.OpenObject(bds, rbm, nil, nil), 10, 0)
		if s := pool.Stats(); s.Misses != int64(10*i) {
			t.Fatalf("reader %d: %d misses so far, want %d", i, s.Misses, 10*i)
		}
	}
	checkAccounting(t, pool)
}
