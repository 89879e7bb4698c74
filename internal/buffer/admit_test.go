package buffer

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudiq/internal/core"
	"cloudiq/internal/objstore"
)

// coldPool points r at a fresh pool of capacity bytes, so reads of what a
// commit left cached really load, and returns it.
func coldPool(r *shareRig, capacity int64) *Pool {
	r.pool = NewPool(Config{Capacity: capacity})
	return r.pool
}

// readPage reads logical through o and checks it holds pageData(logical).
func readPage(t *testing.T, o *Object, logical uint64) {
	t.Helper()
	got, err := o.Read(ctxb(), logical)
	if err != nil || !bytes.Equal(got, pageData(logical, 100)) {
		t.Errorf("page %d: wrong contents (err %v)", logical, err)
	}
}

// TestAdmissionKeepsHotSubsetOfCyclicScan: a scan that cycles over four times
// the pages the pool holds, one page at a time. LRU evicts every page before
// its next use and hits nothing; with the admission filter the pages the
// first pass cached are counted as often as any other and stay, so every
// later pass hits them, a quarter of its reads.
func TestAdmissionKeepsHotSubsetOfCyclicScan(t *testing.T) {
	const fits, pages, passes = 8, 32, 5
	r := newShareRig(t, 1<<20)
	id := commitPages(t, r.writer(t, core.Identity{}), pages, 0)
	pool := coldPool(r, fits*100)
	o := r.reader(t, id)
	var last Stats
	for pass := 0; pass < passes; pass++ {
		last = pool.Stats()
		for l := uint64(0); l < pages; l++ {
			readPage(t, o, l)
		}
	}
	s := pool.Stats()
	if hits := s.Hits - last.Hits; hits != fits {
		t.Fatalf("last pass hit %d of %d pages, want the %d the pool holds (stats %+v)", hits, pages, fits, s)
	}
	if s.Evictions != 0 || s.Refused != passes*(pages-fits) {
		t.Fatalf("stats %+v: want no eviction, every read past the first %d refused", s, fits)
	}
	checkAccounting(t, pool)
}

// parkedReaders counts goroutines waiting on the pool's condition variable
// inside ReadBatch: readers that found a page loading.
func parkedReaders() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "sync.(*Cond).Wait") && strings.Contains(g, "buffer.(*Object).ReadBatch") {
			n++
		}
	}
	return n
}

// TestRefusedPageServesEveryWaiter: TestConcurrentMissesShareOneRead in a full
// pool of hotter pages. Each cold page is refused a slot, and the reader that
// waited on its placeholder gets it all the same: one dbspace read per page,
// and the hot pages stay cached.
func TestRefusedPageServesEveryWaiter(t *testing.T) {
	const hot, cold = 8, 8
	r := newShareRig(t, 1<<20)
	id := commitPages(t, r.writer(t, core.Identity{}), hot+cold, 0)
	pool := coldPool(r, hot*100)
	a, b := r.reader(t, id), r.reader(t, id)
	for i := 0; i < 3; i++ {
		scanPages(t, a, hot, 0)
	}
	r.cds.entered = make(chan struct{}, 2*cold)

	for l := uint64(hot); l < hot+cold; l++ {
		reads := r.cds.reads.Load()
		r.cds.gate = make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); readPage(t, a, l) }()
		<-r.cds.entered // a is inside the read, its placeholder installed
		go func() { defer wg.Done(); readPage(t, b, l) }()
		for deadline := time.Now().Add(10 * time.Second); parkedReaders() == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("page %d: the second reader never waited on the placeholder", l)
			}
		}
		close(r.cds.gate)
		wg.Wait()
		if got := r.cds.reads.Load() - reads; got != 1 {
			t.Fatalf("page %d: %d dbspace reads for two readers", l, got)
		}
	}
	if s := pool.Stats(); s.Refused != cold || s.Misses != hot+cold || s.Hits != 2*hot+cold || s.Evictions != 0 {
		t.Fatalf("stats = %+v, want %d refused, %d misses, %d hits, no eviction", s, cold, hot+cold, 2*hot+cold)
	}
	reads := r.cds.reads.Load()
	scanPages(t, b, hot, 0)
	if got := r.cds.reads.Load(); got != reads {
		t.Fatalf("the hot pages were evicted: %d dbspace reads", got-reads)
	}
	checkAccounting(t, pool)
}

// TestDirtyPagesAreNeverRefused: a page written into a full pool of pages
// read many times is cached whatever the sketch says — a write has nowhere
// else to go — and evicts the LRU page.
func TestDirtyPagesAreNeverRefused(t *testing.T) {
	const hot = 8
	r := newShareRig(t, 1<<20)
	id := commitPages(t, r.writer(t, core.Identity{}), hot, 0)
	pool := coldPool(r, hot*100)
	for i := 0; i < 5; i++ {
		scanPages(t, r.reader(t, id), hot, 0)
	}
	w := r.writer(t, id)
	for l := uint64(hot); l < 2*hot; l++ {
		if err := w.Write(ctxb(), l, pageData(l, 100)); err != nil {
			t.Fatal(err)
		}
	}
	before, reads := pool.Stats(), r.cds.reads.Load()
	for l := uint64(hot); l < 2*hot; l++ {
		readPage(t, w, l)
	}
	s := pool.Stats()
	if s.Refused != 0 || s.Hits != before.Hits+hot || r.cds.reads.Load() != reads {
		t.Fatalf("stats %+v -> %+v: written pages were not all cached", before, s)
	}
	if s.Evictions != hot || s.Flushes != 0 {
		t.Fatalf("stats = %+v, want the %d read pages evicted and nothing flushed", s, hot)
	}
	checkAccounting(t, pool)
}

// TestStaleVictimLosesAdmission: the pages of a version no one reads any more
// were hot once, and their counters fade only by halving. A page read once
// cannot beat them, until they have gone untouched for a whole aging period:
// then the victim loses whatever its count.
func TestStaleVictimLosesAdmission(t *testing.T) {
	const hot = 7 // and one page kept busy: the pool holds eight
	r := newShareRig(t, 1<<20)
	id := commitPages(t, r.writer(t, core.Identity{}), hot+3, 0)
	pool := coldPool(r, (hot+1)*100)
	o := r.reader(t, id)
	for i := 0; i < 15; i++ {
		scanPages(t, o, hot, 0)
	}
	busy, first, second := uint64(hot), uint64(hot+1), uint64(hot+2)
	readPage(t, o, busy)
	readPage(t, o, first)
	if s := pool.Stats(); s.Refused != 1 {
		t.Fatalf("stats = %+v: a page read once took a hot page's slot", s)
	}

	batch := make([]uint64, 16)
	for i := range batch {
		batch[i] = busy
	}
	for n := 0; n < sketchPeriod; n += len(batch) {
		if _, err := o.ReadBatch(ctxb(), batch); err != nil {
			t.Fatal(err)
		}
	}
	reads := r.cds.reads.Load()
	readPage(t, o, second)
	readPage(t, o, second)
	if s := pool.Stats(); s.Refused != 1 || s.Evictions != 1 || r.cds.reads.Load() != reads+1 {
		t.Fatalf("stats = %+v, %d dbspace reads: the stale hot page kept its slot", s, r.cds.reads.Load()-reads)
	}
	checkAccounting(t, pool)
}

// TestSketchAllocs: counting a lookup and estimating a key allocate nothing.
func TestSketchAllocs(t *testing.T) {
	s := new(sketch)
	key := pageKey{space: 3, page: 1 << 63}
	if got := testing.AllocsPerRun(1000, func() {
		s.add(key)
		key.page++
		_ = s.estimate(key)
	}); got != 0 {
		t.Fatalf("%.0f allocations per lookup", got)
	}
}

// TestSketchCountsAndHalves: a key's estimate follows its lookups up to 15,
// and a period's worth of other lookups halves it.
func TestSketchCountsAndHalves(t *testing.T) {
	s := new(sketch)
	key := pageKey{space: 1, page: 42}
	for i := 1; i <= 20; i++ {
		s.add(key)
		if got, want := s.estimate(key), uint64(min(i, 15)); got != want {
			t.Fatalf("after %d lookups: estimate %d, want %d", i, got, want)
		}
	}
	for i := 20; i < sketchPeriod; i++ {
		s.add(pageKey{space: 2, page: uint64(i)})
	}
	if got := s.estimate(key); got != 7 {
		t.Fatalf("after a period: estimate %d, want 15 halved", got)
	}
}

// BenchmarkPoolCyclicScan reads 16-page batches cyclically over four times
// the pages the pool holds, as power_cold's passes read a dataset six times
// its pool; hit% is the share of lookups the pool served after the first
// pass, 25 when it keeps what that pass cached (LRU: 0).
func BenchmarkPoolCyclicScan(b *testing.B) {
	const fits, pages, size = 64, 256, 1 << 10
	r := newRig(nil, 1<<30, objstore.Consistency{})
	w := r.open(nil, 16)
	for l := uint64(0); l < pages; l++ {
		if err := w.Write(ctxb(), l, pageData(l, size)); err != nil {
			b.Fatal(err)
		}
	}
	id, err := w.FlushForCommit(ctxb())
	if err != nil {
		b.Fatal(err)
	}
	bm, err := core.OpenBlockmap(r.ds, id)
	if err != nil {
		b.Fatal(err)
	}
	pool := NewPool(Config{Capacity: fits * size})
	o := pool.OpenObject(r.ds, bm, nil)
	batch := make([]uint64, 16)
	pass := func() {
		for l := 0; l < pages; l += len(batch) {
			for j := range batch {
				batch[j] = uint64(l + j)
			}
			if _, err := o.ReadBatch(ctxb(), batch); err != nil {
				b.Fatal(err)
			}
		}
	}
	pass() // the first pass fills the pool
	before := pool.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	s := pool.Stats()
	hits, misses := s.Hits-before.Hits, s.Misses-before.Misses
	b.ReportMetric(100*float64(hits)/float64(hits+misses), "hit%")
}
