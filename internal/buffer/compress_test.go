package buffer

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cloudiq/internal/blockdev"
	"cloudiq/internal/column"
	"cloudiq/internal/core"
	"cloudiq/internal/objstore"
	"cloudiq/internal/rfrb"
)

// gateCodec is FlateCodec whose next holds Compress calls stop until release
// is closed, each first announcing its input on entered; the calls after
// them run straight through. It records every input it compresses.
type gateCodec struct {
	holds   atomic.Int64
	entered chan []byte // buffered past any hold count a test sets
	release chan struct{}

	mu     sync.Mutex
	inputs [][]byte
}

func newGateCodec(holds int) *gateCodec {
	g := &gateCodec{entered: make(chan []byte, 64), release: make(chan struct{})}
	g.holds.Store(int64(holds))
	return g
}

func (g *gateCodec) Compress(src []byte) []byte {
	g.mu.Lock()
	g.inputs = append(g.inputs, src)
	g.mu.Unlock()
	if g.holds.Add(-1) >= 0 {
		g.entered <- src
		<-g.release
	}
	return FlateCodec{}.Compress(src)
}

func (g *gateCodec) Decompress(src []byte) ([]byte, error) { return FlateCodec{}.Decompress(src) }

// compressed reports whether Compress was ever called on data's contents.
func (g *gateCodec) compressed(data []byte) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, in := range g.inputs {
		if bytes.Equal(in, data) {
			return true
		}
	}
	return false
}

// openCodec opens a writable handle whose pages go through codec instead of
// FlateCodec.
func (r *rig) openCodec(t *testing.T, codec pageCodec) *Object {
	t.Helper()
	o := r.open(t, 8)
	o.codec = codec
	return o
}

// pageImage returns the compressed image installed on the handle's dirty
// page, after its queued compressions have finished.
func pageImage(o *Object, logical uint64) []byte {
	p := o.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	o.waitCompressionsLocked()
	return p.pages[o.entryKey(logical, core.Entry{})].image
}

// checkNoCompressors fails t if a compression worker still runs or a job is
// still queued.
func checkNoCompressors(t *testing.T, p *Pool) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.compressors != 0 || len(p.queue) != 0 {
		t.Fatalf("%d compression workers running, %d jobs queued", p.compressors, len(p.queue))
	}
}

// checkStored commits o and reads each page back through a cold pool.
func checkStored(t *testing.T, r *rig, o *Object, want map[uint64][]byte) {
	t.Helper()
	id, err := o.FlushForCommit(ctxb())
	if err != nil {
		t.Fatal(err)
	}
	checkNoCompressors(t, r.pool)
	bm, err := core.OpenBlockmap(r.ds, id)
	if err != nil {
		t.Fatal(err)
	}
	cold := NewPool(Config{Capacity: 1 << 20}).OpenObject(r.ds, bm, nil)
	for l, data := range want {
		if got, err := cold.Read(ctxb(), l); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("page %d: stored %d bytes (err %v), want the %d last written", l, len(got), err, len(data))
		}
	}
}

// fillWorkers writes one page per possible compression worker and waits
// until every worker is held inside Compress, so the next job written stays
// queued. It returns the pages written, logical 100 and up.
func fillWorkers(t *testing.T, o *Object, g *gateCodec) map[uint64][]byte {
	t.Helper()
	pages := make(map[uint64][]byte)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		l := uint64(100 + w)
		pages[l] = pageData(l, 2000)
		if err := o.Write(ctxb(), l, pages[l]); err != nil {
			t.Fatal(err)
		}
		<-g.entered
	}
	return pages
}

// A page rewritten while its compression is still queued is compressed once,
// from the new bytes: the queued job for the old bytes is skipped.
func TestRewriteWhileQueued(t *testing.T) {
	r := newRig(t, 1<<20, objstore.Consistency{})
	g := newGateCodec(runtime.GOMAXPROCS(0))
	o := r.openCodec(t, g)
	want := fillWorkers(t, o, g)
	old, cur := bytes.Repeat([]byte("old page "), 300), bytes.Repeat([]byte("new page "), 300)
	for _, data := range [][]byte{old, cur} {
		if err := o.Write(ctxb(), 0, data); err != nil {
			t.Fatal(err)
		}
	}
	close(g.release)
	if img, err := g.Decompress(pageImage(o, 0)); err != nil || !bytes.Equal(img, cur) {
		t.Fatalf("installed image holds %d bytes (err %v), want the new page", len(img), err)
	}
	if g.compressed(old) {
		t.Error("the superseded bytes were compressed")
	}
	want[0] = cur
	checkStored(t, r, o, want)
}

// A page rewritten while its compression runs gets the new bytes' image;
// the running job's result is dropped. Write returns while it runs.
func TestRewriteWhileCompressing(t *testing.T) {
	r := newRig(t, 1<<20, objstore.Consistency{})
	g := newGateCodec(1)
	o := r.openCodec(t, g)
	old, cur := bytes.Repeat([]byte("old page "), 300), bytes.Repeat([]byte("new page "), 300)
	if err := o.Write(ctxb(), 0, old); err != nil {
		t.Fatal(err)
	}
	<-g.entered // compressing old, held
	if err := o.Write(ctxb(), 0, cur); err != nil {
		t.Fatal(err)
	}
	close(g.release)
	if img, err := g.Decompress(pageImage(o, 0)); err != nil || !bytes.Equal(img, cur) {
		t.Fatalf("installed image holds %d bytes (err %v), want the new page", len(img), err)
	}
	checkStored(t, r, o, map[uint64][]byte{0: cur})
}

// An eviction that overtakes the queue compresses and writes the page
// itself; the worker's late result is dropped, not installed.
func TestEvictionOvertakesQueue(t *testing.T) {
	const size = 3000
	r := newRig(t, size+size/2, objstore.Consistency{})
	g := newGateCodec(1)
	o := r.openCodec(t, g)
	first := bytes.Repeat([]byte("page zero "), size/10)
	if err := o.Write(ctxb(), 0, first); err != nil {
		t.Fatal(err)
	}
	<-g.entered // the worker holds page 0's compression
	r.pool.mu.Lock()
	pg := r.pool.pages[o.entryKey(0, core.Entry{})]
	r.pool.mu.Unlock()

	// Page 1 takes the pool over capacity: page 0 is evicted, compressed
	// inline and written while its queued compression is still held.
	second := pageData(1, size)
	if err := o.Write(ctxb(), 1, second); err != nil {
		t.Fatal(err)
	}
	if s := r.pool.Stats(); s.Evictions != 1 || s.Flushes != 1 {
		t.Fatalf("%d evictions, %d flushes; want page 0 evicted", s.Evictions, s.Flushes)
	}
	close(g.release)
	_ = pageImage(o, 1)
	r.pool.mu.Lock()
	late := pg.image
	r.pool.mu.Unlock()
	if late != nil {
		t.Error("the late compression of the evicted page was installed")
	}
	checkStored(t, r, o, map[uint64][]byte{0: first, 1: second})
}

// A rewrite drops the image the previous bytes were compressed to: an
// eviction that overtakes the new bytes' compression writes the new bytes.
func TestRewriteDropsImage(t *testing.T) {
	const size = 3000
	r := newRig(t, 2*size+size/2, objstore.Consistency{})
	g := newGateCodec(0)
	o := r.openCodec(t, g)
	old, cur := bytes.Repeat([]byte("old page "), size/9), bytes.Repeat([]byte("new page "), size/9)
	if err := o.Write(ctxb(), 0, old); err != nil {
		t.Fatal(err)
	}
	if pageImage(o, 0) == nil {
		t.Fatal("no image installed for the first write")
	}
	g.holds.Store(1)
	if err := o.Write(ctxb(), 0, cur); err != nil {
		t.Fatal(err)
	}
	<-g.entered // the new bytes' compression is held
	// Page 1 is the most recent; page 0 is evicted while its new bytes
	// have no image.
	if err := o.Write(ctxb(), 1, pageData(1, size)); err != nil {
		t.Fatal(err)
	}
	if err := o.Write(ctxb(), 2, pageData(2, size)); err != nil {
		t.Fatal(err)
	}
	if s := r.pool.Stats(); s.Evictions == 0 {
		t.Fatal("page 0 was not evicted")
	}
	close(g.release)
	checkStored(t, r, o, map[uint64][]byte{0: cur, 1: pageData(1, size), 2: pageData(2, size)})
}

// Discard with compressions queued returns only once no worker can touch
// the handle's pages, and leaves no worker running.
func TestDiscardWaitsForCompressions(t *testing.T) {
	r := newRig(t, 1<<20, objstore.Consistency{})
	g := newGateCodec(runtime.GOMAXPROCS(0))
	o := r.openCodec(t, g)
	fillWorkers(t, o, g)
	for l := uint64(0); l < 8; l++ {
		if err := o.Write(ctxb(), l, pageData(l, 2000)); err != nil {
			t.Fatal(err)
		}
	}
	discarded := make(chan struct{})
	go func() {
		o.Discard()
		close(discarded)
	}()
	select {
	case <-discarded:
		t.Fatal("Discard returned while compressions of its pages were held")
	case <-time.After(20 * time.Millisecond):
	}
	close(g.release)
	<-discarded
	checkNoCompressors(t, r.pool)
	r.pool.mu.Lock()
	pending := o.compressing
	r.pool.mu.Unlock()
	if pending != 0 || o.DirtyCount() != 0 || r.pool.Size() != 0 {
		t.Fatalf("after Discard: %d compressions pending, %d dirty pages, %d bytes cached", pending, o.DirtyCount(), r.pool.Size())
	}
}

// FlushForCommit waits for the queue: every page it writes is compressed
// once, by a worker, and no worker runs after it returns.
func TestFlushForCommitUsesQueuedImages(t *testing.T) {
	r := newRig(t, 1<<20, objstore.Consistency{})
	g := newGateCodec(0)
	o := r.openCodec(t, g)
	want := make(map[uint64][]byte)
	for l := uint64(0); l < 64; l++ {
		want[l] = pageData(l, 1500)
		if err := o.Write(ctxb(), l, want[l]); err != nil {
			t.Fatal(err)
		}
	}
	checkStored(t, r, o, want)
	g.mu.Lock()
	calls := len(g.inputs)
	g.mu.Unlock()
	if calls != len(want) {
		t.Errorf("%d compressions for %d pages written once", calls, len(want))
	}
	r.pool.mu.Lock()
	defer r.pool.mu.Unlock()
	for _, pg := range r.pool.pages {
		if pg.image != nil {
			t.Fatalf("page %d keeps its image after the flush", pg.logical)
		}
	}
}

// writeFlushPages is BenchmarkWriteFlush's 256 pages, in the shapes a load
// writes: encoded n-bit ints and 512 B pages (stored), l_comment-like
// strings and exact-decimal floats in their compact form (deflated).
func writeFlushPages() [][]byte {
	shapes := [][]byte{goldenCorpus()[2].data, goldenCorpus()[3].data, column.Compact(floatPage()), benchPage(512)}
	pages := make([][]byte, 256)
	for i := range pages {
		pages[i] = shapes[i%len(shapes)]
	}
	return pages
}

// BenchmarkWriteFlush writes 256 pages of mixed shapes through one handle and
// commits them: the write path from Write through compression to the
// dbspace's WriteBatch. cloud commits once to a MemStore-backed cloud
// dbspace. block_twice writes and flushes every page twice in one transaction
// on a memory block device, so the second flush overwrites each page's run in
// place (§3.1).
func BenchmarkWriteFlush(b *testing.B) {
	pages := writeFlushPages()
	var n int64
	for _, pg := range pages {
		n += int64(len(pg))
	}
	cases := []struct {
		name    string
		flushes int
		ds      func() core.Dbspace
	}{
		{"cloud", 1, func() core.Dbspace { return newRig(nil, 0, objstore.Consistency{}).ds }},
		{"block_twice", 2, func() core.Dbspace {
			dev := blockdev.NewMem(blockdev.Config{Capacity: 16 << 20})
			ds, err := core.NewBlock(core.BlockConfig{Name: "main", Device: dev, BlockSize: 4096})
			if err != nil {
				b.Fatal(err)
			}
			return ds
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(n * int64(c.flushes))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ds := c.ds()
				bm, err := core.NewBlockmap(ds, 64)
				if err != nil {
					b.Fatal(err)
				}
				sink := core.LockedSink(core.BitmapSink{RB: &rfrb.Bitmap{}, RF: &rfrb.Bitmap{}})
				o := NewPool(Config{Capacity: 64 << 20}).OpenObject(ds, bm, sink)
				b.StartTimer()
				var first core.Entry
				for f := 0; f < c.flushes; f++ {
					for l, pg := range pages {
						if err := o.Write(ctxb(), uint64(l), pg); err != nil {
							b.Fatal(err)
						}
					}
					if _, err := o.FlushForCommit(ctxb()); err != nil {
						b.Fatal(err)
					}
					if f == 0 {
						first, _ = bm.Get(ctxb(), 0)
					}
				}
				if e, _ := bm.Get(ctxb(), 0); c.flushes > 1 && e.Loc != first.Loc {
					b.Fatalf("the second flush moved page 0 from %v to %v", first, e)
				}
			}
		})
	}
}
