// Package buffer implements SAP IQ's buffer manager: a RAM cache of
// decompressed logical pages with LRU eviction, a frequency filter on what a
// read may cache (admit.go), and per-transaction dirty-page tracking. New
// pages are born in the cache (§3.1); dirty pages are flushed to permanent
// storage on eviction (write-back through the OCM during the churn phase)
// and before commit (write-through), with every flush allocating a fresh
// physical location and recording the superseded one in the transaction's
// RF bitmap.
package buffer

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"cloudiq/internal/core"
	"cloudiq/internal/pageio"
	"cloudiq/internal/trace"
)

// ErrReadOnly is returned when writing through a read-only object handle.
var ErrReadOnly = errors.New("buffer: object opened read-only")

// Config parameterizes a Pool.
type Config struct {
	// Capacity is the cache budget in bytes of decompressed page data.
	Capacity int64
}

// Stats counts cache behaviour.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Flushes   int64 // dirty pages written out (eviction or commit)
	// Refused counts pages a read fetched and handed back without caching
	// them: the pool was full and the admission filter kept the victim.
	Refused int64
}

// pageKey names a cached page in one of two shapes, both built by
// (*Object).entryKey. A clean page stored under a cloud key is shared:
// space is its dbspace's id and page the object key, which is written once
// and never rewritten (§3.1), so every handle, transaction and table version
// that maps a logical page to that key reads one image. Every other page — a
// dirty page, and any page of a block dbspace, whose runs are reused and
// rewritten in place — is private: space is the handle's id and page the
// logical page number. Handle and dbspace ids come from one counter.
type pageKey struct {
	space uint64
	page  uint64
}

// page is one cache slot. Every field except data's contents, and logical
// (fixed at creation), changes only under Pool.mu.
type page struct {
	key     pageKey
	owner   *Object // the handle that must flush it; set while dirty
	logical uint64  // the page's number in the handle that created the slot
	data    []byte
	// image is data compressed by the compression queue, for the flush to
	// write; nil until a worker installs it, and again once a flush ends or
	// a Write replaces data.
	image   []byte
	dirty   bool
	loading bool // being loaded or flushed: accessors wait on Pool.cond
	// refused marks a loaded page the admission filter did not cache: it is
	// in no index, and data serves only the reads that waited for the load.
	refused bool
	lru     *list.Element
	touched uint64 // sketch.ticks at the last lookup or write that found it
}

// Pool is the buffer manager. It is safe for concurrent use.
type Pool struct {
	cfg Config

	mu      sync.Mutex
	cond    *sync.Cond
	pages   map[pageKey]*page
	lruList *list.List // front = most recent
	size    int64
	nextObj uint64                  // last id handed to a handle or a dbspace
	spaces  map[core.Dbspace]uint64 // cloud dbspace -> id in shared keys
	stats   Stats
	sketch  sketch // every ReadBatch lookup, for admitLocked

	// The compression queue (DESIGN.md "When a page is compressed"): pages
	// written and waiting for a compression worker, oldest first, and the
	// workers running, at most GOMAXPROCS.
	queue       []compressJob
	compressors int
}

// compressJob is one Write's page image awaiting compression: pg held data
// when it was queued, on behalf of the handle o.
type compressJob struct {
	o    *Object
	pg   *page
	data []byte
}

// NewPool returns a Pool with the given configuration.
func NewPool(cfg Config) *Pool {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 64 << 20
	}
	p := &Pool{
		cfg:     cfg,
		pages:   make(map[pageKey]*page),
		spaces:  make(map[core.Dbspace]uint64),
		lruList: list.New(),
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Stats returns a snapshot of the counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Size reports the bytes of page data currently cached.
func (p *Pool) Size() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.size
}

// Object is a handle to one paged object — a blockmap and the dbspace its
// pages live in — opened either read-only (a reader's snapshot) or writable
// on behalf of a transaction (sink records the allocation/free events).
type Object struct {
	pool  *Pool
	id    uint64
	space uint64 // ds's id in shared keys; zero for a block dbspace
	ds    core.Dbspace
	bm    *core.Blockmap
	sink  core.FlushSink
	codec pageCodec

	// memo caches the cloud key of each logical page for a read-only handle,
	// whose blockmap never changes, so a hit resolves its key without a lock.
	// Nil for writable handles.
	memo *keyMemo

	// compressing counts this handle's jobs in the pool's compression
	// queue or being compressed. Guarded by Pool.mu.
	compressing int

	// mu guards dirty and flushed, nothing else; where Pool.mu is also held
	// it is taken first.
	mu    sync.Mutex
	dirty map[uint64]*page // logical -> dirty page (subset of pool cache)
	// flushed records where this handle (i.e. this transaction) already
	// wrote each page out. A flush hands it to the dbspace as the page's
	// previous entry, which a conventional dbspace may overwrite in place
	// (§3.1); a cloud dbspace versions every flush under a fresh key.
	flushed map[uint64]core.Entry
}

// keyMemo holds one cloud key per logical page below memoPages, in chunks
// allocated on first use, so a small table pays for the pages it has; a page
// at memoPages or above resolves through Blockmap.Get each time. Zero means
// not resolved yet (cloud keys start at 2^63).
type keyMemo [memoPages / memoChunk]atomic.Pointer[[memoChunk]atomic.Uint64]

const (
	memoChunk = 1 << 9
	memoPages = 1 << 16
)

// OpenObject registers an object with the pool. sink may be nil, making the
// handle read-only. Every page the handle stores is compressed by FlateCodec.
func (p *Pool) OpenObject(ds core.Dbspace, bm *core.Blockmap, sink core.FlushSink) *Object {
	o := &Object{pool: p, ds: ds, bm: bm, sink: sink, codec: FlateCodec{}}
	p.mu.Lock()
	p.nextObj++
	o.id = p.nextObj
	if ds.IsCloud() {
		if o.space = p.spaces[ds]; o.space == 0 {
			p.nextObj++
			o.space = p.nextObj
			p.spaces[ds] = o.space
		}
	}
	p.mu.Unlock()
	if sink == nil && o.space != 0 {
		o.memo = new(keyMemo)
	}
	return o
}

// entryKey is the one place a cache key is built: shared when the page is
// stored under a cloud key, private to this handle otherwise (a block run, or
// the zero entry of a page with no stored image that counts).
func (o *Object) entryKey(logical uint64, e core.Entry) pageKey {
	if o.space != 0 && e.IsCloud() {
		return pageKey{o.space, e.Loc}
	}
	return pageKey{o.id, logical}
}

// key resolves the cache key logical has in this handle right now: private
// while the page is dirty here, else whatever entryKey makes of its blockmap
// entry. It takes no Pool.mu because the blockmap may have to load a node; a
// failed lookup yields the private key, whose miss path reports the error.
func (o *Object) key(ctx context.Context, logical uint64) pageKey {
	if o.memo != nil && logical < memoPages {
		if c := o.memo[logical/memoChunk].Load(); c != nil {
			if loc := c[logical%memoChunk].Load(); loc != 0 {
				return o.entryKey(logical, core.Entry{Loc: loc})
			}
		}
	}
	return o.resolveKey(ctx, logical)
}

func (o *Object) resolveKey(ctx context.Context, logical uint64) pageKey {
	var e core.Entry
	if o.space != 0 && !o.isDirty(logical) {
		e, _ = o.bm.Get(ctx, logical)
		if o.memo != nil && logical < memoPages && e.IsCloud() {
			chunk := &o.memo[logical/memoChunk]
			chunk.CompareAndSwap(nil, new([memoChunk]atomic.Uint64))
			chunk.Load()[logical%memoChunk].Store(e.Loc)
		}
	}
	return o.entryKey(logical, e)
}

func (o *Object) isDirty(logical uint64) bool {
	if o.sink == nil {
		return false
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	_, dirty := o.dirty[logical]
	return dirty
}

// Blockmap exposes the object's blockmap (commit needs to flush it).
func (o *Object) Blockmap() *core.Blockmap { return o.bm }

// Read returns the page's decompressed contents: ReadBatch with one page.
func (o *Object) Read(ctx context.Context, logical uint64) ([]byte, error) {
	out, err := o.ReadBatch(ctx, []uint64{logical})
	return out[0], err
}

// errRekeyed reports that a page's blockmap entry no longer has the key a
// miss resolved — this handle flushed the page in between — so whatever is
// stored there must not be installed under that key; the read resolves again.
var errRekeyed = errors.New("buffer: page re-keyed during load")

// storedEntry returns the entry to load for a miss on key.
func (o *Object) storedEntry(ctx context.Context, logical uint64, key pageKey) (core.Entry, error) {
	entry, err := o.bm.Get(ctx, logical)
	if err != nil {
		return entry, err
	}
	if entry.IsZero() {
		return entry, fmt.Errorf("buffer: object %d has no page %d", o.id, logical)
	}
	if o.entryKey(logical, entry) != key {
		return entry, errRekeyed
	}
	return entry, nil
}

// miss is a position of a ReadBatch and the loading placeholder it installed.
type miss struct {
	i  int
	pg *page
}

// pending is a position of a ReadBatch still to serve, and the placeholder
// it last found loading, if any: should that load end refused, the page is
// the position's all the same.
type pending struct {
	i    int
	wait *page
}

// ReadBatch returns the decompressed contents of the given logical pages; it
// is the pool's only read path. Cache misses are fetched through one dbspace
// ReadBatch, so adjacent block extents coalesce into scatter-gather reads and
// cloud reads overlap in the pipeline's worker pool, and each is cached
// unless the admission filter refuses it a full pool's slot. Results are positional;
// the returned slices are the cached images and must not be modified (use
// Write to modify a page). The error joins every failed page.
func (o *Object) ReadBatch(ctx context.Context, logicals []uint64) ([][]byte, error) {
	p := o.pool
	out := make([][]byte, len(logicals))
	var errs []error

	// todo holds the positions still to serve: all of them, then whichever
	// were loading or being flushed elsewhere, or re-keyed under this read.
	// Keys resolve before the lock; a segment's worth of both fits on the
	// stack, so a call that only hits allocates nothing but out.
	var keyBuf [16]pageKey
	var todoBuf [16]pending
	keys, todo := keyBuf[:0], todoBuf[:0]
	for i := range logicals {
		todo = append(todo, pending{i: i})
	}
	for len(todo) > 0 {
		keys = keys[:0]
		for _, t := range todo {
			keys = append(keys, o.key(ctx, logicals[t.i]))
		}
		var misses []miss
		again := todo[:0]
		p.mu.Lock()
		for k, t := range todo {
			pg, ok := p.pages[keys[k]]
			switch {
			case ok && !pg.loading:
				p.sketch.add(keys[k])
				p.touch(pg)
				p.stats.Hits++
				out[t.i] = pg.data
			case ok:
				again = append(again, pending{t.i, pg})
			case t.wait != nil && t.wait.refused && t.wait.key == keys[k]:
				// The load this position waited for ended without a slot.
				p.sketch.add(keys[k])
				p.stats.Hits++
				out[t.i] = t.wait.data
			default:
				p.sketch.add(keys[k])
				npg := &page{key: keys[k], logical: logicals[t.i], loading: true}
				p.pages[npg.key] = npg
				p.stats.Misses++
				misses = append(misses, miss{i: t.i, pg: npg})
			}
		}
		if len(misses) == 0 && len(again) > 0 {
			// Nothing to fetch meanwhile: wait for a load or a flush to end.
			// The keys resolve again, because a flush re-keys its page.
			p.cond.Wait()
		}
		p.mu.Unlock()
		todo = again
		if len(misses) == 0 {
			continue
		}

		data, itemErrs := o.fetch(ctx, logicals, misses)
		p.mu.Lock()
		for j, m := range misses {
			m.pg.loading = false
			switch err := itemErrs[j]; {
			case err == errRekeyed:
				delete(p.pages, m.pg.key)
				todo = append(todo, pending{i: m.i})
			case err != nil:
				delete(p.pages, m.pg.key)
				errs = append(errs, err)
			default:
				m.pg.data = data[j]
				out[m.i] = data[j]
				if !p.admitLocked(m.pg) {
					delete(p.pages, m.pg.key)
					m.pg.refused = true
					p.stats.Refused++
					continue
				}
				m.pg.lru = p.lruList.PushFront(m.pg)
				m.pg.touched = p.sketch.ticks
				p.size += int64(len(data[j]))
			}
		}
		p.cond.Broadcast()
		p.evictLocked(ctx)
		p.mu.Unlock()
	}
	return out, errors.Join(errs...)
}

// fetch reads and decompresses the stored images the misses' placeholders
// stand for, through one dbspace ReadBatch. Both results are positional.
func (o *Object) fetch(ctx context.Context, logicals []uint64, misses []miss) ([][]byte, []error) {
	data := make([][]byte, len(misses))
	errs := make([]error, len(misses))
	var entries []core.Entry
	var submit []int
	for j, m := range misses {
		entry, err := o.storedEntry(ctx, logicals[m.i], m.pg.key)
		if err != nil {
			errs[j] = err
			continue
		}
		entries = append(entries, entry)
		submit = append(submit, j)
	}
	if len(entries) == 0 {
		return data, errs
	}
	stored, err := o.ds.ReadBatch(ctx, entries)
	subErrs := pageio.ItemErrors(err, len(entries))
	for k, j := range submit {
		if subErrs[k] != nil {
			errs[j] = subErrs[k]
			continue
		}
		if data[j], err = o.codec.Decompress(stored[k]); err != nil {
			errs[j] = fmt.Errorf("buffer: page %d of object %d: %w", logicals[misses[j].i], o.id, err)
		}
	}
	return data, errs
}

// Write installs data as the new contents of the page, marking it dirty in
// the cache, and queues it for compression. The page is born in RAM;
// permanent storage sees it on eviction or commit. Write never waits for a
// compression.
func (o *Object) Write(ctx context.Context, logical uint64, data []byte) error {
	if o.sink == nil {
		return ErrReadOnly
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	p := o.pool
	key := o.entryKey(logical, core.Entry{}) // dirty pages are private
	cp := make([]byte, len(data))
	copy(cp, data)

	p.mu.Lock()
	for {
		pg, ok := p.pages[key]
		if !ok {
			pg = &page{key: key, logical: logical, touched: p.sketch.ticks}
			p.pages[key] = pg
			pg.lru = p.lruList.PushFront(pg)
			break
		}
		if pg.loading {
			p.cond.Wait()
			continue
		}
		p.size -= int64(len(pg.data))
		p.touch(pg)
		break
	}
	pg := p.pages[key]
	pg.data = cp
	pg.image = nil
	pg.dirty = true
	pg.owner = o
	p.size += int64(len(cp))
	p.enqueueLocked(compressJob{o: o, pg: pg, data: cp})

	o.mu.Lock()
	if o.dirty == nil {
		o.dirty = make(map[uint64]*page)
	}
	o.dirty[logical] = pg
	o.mu.Unlock()

	p.evictLocked(ctx)
	p.mu.Unlock()
	return nil
}

// enqueueLocked hands j to a new compression worker (on a pageio.Go
// goroutine) if fewer than GOMAXPROCS run, and queues it otherwise. Called
// with p.mu held.
func (p *Pool) enqueueLocked(j compressJob) {
	j.o.compressing++
	if p.compressors >= runtime.GOMAXPROCS(0) {
		p.queue = append(p.queue, j)
		return
	}
	p.compressors++
	//lint:ignore detclosure compression is a pure function of a page's bytes, and flush installs and writes pages in the same logical order with the same I/O whether or not a worker got there first: only CPU timing depends on the interleaving
	pageio.Go(func() { p.compressQueued(j) })
}

// compressQueued is a compression worker: it compresses j, then queued
// pages, oldest first, until the queue is empty, and returns. A job whose
// page has since been rewritten, flushed or dropped is skipped, and an image
// is installed only if none of that happened while it was compressing, so a
// stale image never reaches a flush. A worker stops counting in the critical
// section that finishes its last job, so once a handle has no job left, no
// worker that worked for it is still counted.
func (p *Pool) compressQueued(j compressJob) {
	p.mu.Lock()
	for {
		if j.current() {
			p.mu.Unlock()
			image := j.o.codec.Compress(j.data)
			p.mu.Lock()
			if j.current() {
				j.pg.image = image
			}
		}
		if j.o.compressing--; j.o.compressing == 0 {
			p.cond.Broadcast()
		}
		if len(p.queue) == 0 {
			p.queue = p.queue[:0]
			p.compressors--
			p.mu.Unlock()
			return
		}
		j = p.queue[0]
		p.queue[0] = compressJob{}
		p.queue = p.queue[1:]
	}
}

// current reports whether j's page is still dirty, not flushing, and holds
// the data j was queued with. Called with Pool.mu held.
func (j compressJob) current() bool {
	pg := j.pg
	return pg.dirty && !pg.loading && len(pg.data) == len(j.data) &&
		(len(j.data) == 0 || &pg.data[0] == &j.data[0])
}

// waitCompressionsLocked returns once none of the handle's pages is queued
// for compression or being compressed. Called with Pool.mu held; waiting
// drops it.
func (o *Object) waitCompressionsLocked() {
	for o.compressing > 0 {
		o.pool.cond.Wait()
	}
}

// touch moves pg to the LRU front and stamps it with the sketch's clock.
// Called with p.mu held.
func (p *Pool) touch(pg *page) {
	pg.touched = p.sketch.ticks
	if pg.lru != nil {
		p.lruList.MoveToFront(pg.lru)
	}
}

// victimLocked returns the page eviction would take next: the first from the
// LRU back that no one is loading or flushing, or nil. Called with p.mu held.
func (p *Pool) victimLocked() *page {
	for el := p.lruList.Back(); el != nil; el = el.Prev() {
		if pg := el.Value.(*page); !pg.loading {
			return pg
		}
	}
	return nil
}

// evictLocked brings the cache back under budget. A dirty victim enters the
// flushing state and is written out in write-back mode first (the churn phase
// of §4). Called with p.mu held; may drop and retake it.
func (p *Pool) evictLocked(ctx context.Context) {
	for p.size > p.cfg.Capacity {
		victim := p.victimLocked()
		if victim == nil {
			return // everything is being flushed; stay over budget
		}
		if victim.dirty {
			victim.loading = true
			owner := victim.owner
			p.mu.Unlock()
			errs := owner.flushBatch(ctx, []*page{victim}, core.WriteBack)
			p.mu.Lock()
			if len(errs) > 0 {
				// The page cannot be dropped without losing data; put it
				// back and stay over budget.
				p.touch(victim)
				return
			}
			if victim.dirty {
				continue // written again before the lock came back: it stays
			}
		}
		p.removeLocked(victim)
		p.stats.Evictions++
	}
}

// removeLocked unlinks pg from the cache, unless a flush that found its
// shared key taken already has. Called with p.mu held.
func (p *Pool) removeLocked(pg *page) {
	if p.pages[pg.key] != pg {
		return
	}
	if pg.lru != nil {
		p.lruList.Remove(pg.lru)
		pg.lru = nil
	}
	delete(p.pages, pg.key)
	p.size -= int64(len(pg.data))
}

// takeDirty waits out the handle's queued compressions, then moves every
// dirty page of the handle into the flushing state and returns them in
// logical order. A page an eviction is flushing is waited for and then
// looked at again: the eviction either wrote it or left it dirty.
func (o *Object) takeDirty() []*page {
	o.mu.Lock()
	dirty := make([]*page, 0, len(o.dirty))
	for _, pg := range o.dirty {
		dirty = append(dirty, pg)
	}
	o.mu.Unlock()
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].logical < dirty[j].logical })

	p := o.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	o.waitCompressionsLocked()
	taken := dirty[:0]
	for _, pg := range dirty {
		for pg.loading {
			p.cond.Wait()
		}
		if pg.dirty {
			pg.loading = true
			taken = append(taken, pg)
		}
	}
	return taken
}

// FlushForCommit writes out every dirty page of the object in write-through
// mode and then flushes the blockmap's copy-on-write cascade, returning the
// new identity for the catalog. This is the commit-phase half of §4. It
// first waits for the handle's queued compressions (takeDirty), so the flush
// writes the images they made. Its pages are in the flushing state from
// before the first is written until each one's write has landed, so an
// eviction never writes one of them and the commit never writes one an
// eviction wrote.
//
// A cancelled context stops the flush promptly (pages not yet submitted
// report ctx.Err()), and every distinct page failure is preserved in the
// joined error — crash-sim triage sees all of them, not just a race winner.
func (o *Object) FlushForCommit(ctx context.Context) (core.Identity, error) {
	if o.sink == nil {
		return core.Identity{}, ErrReadOnly
	}
	ctx, fsp := trace.Start(ctx, "buffer.flush")
	defer fsp.End()
	dirty := o.takeDirty()
	fsp.AddInt("dirty", int64(len(dirty)))
	if err := errors.Join(o.flushBatch(ctx, dirty, core.WriteThrough)...); err != nil {
		return core.Identity{}, err
	}
	return o.bm.Flush(ctx, o.sink)
}

// flushBatch is the only way a dirty page reaches the dbspace: an eviction
// calls it with one page and write-back mode, a commit with the handle's
// dirty pages and write-through. The pages are in the flushing state, in
// logical order, and each leaves it through install. They go out in one
// dbspace WriteBatch, whose pipeline masks per-request storage latency exactly
// as the paper's load engine does, each as the image the compression queue
// installed or, for one it has not, compressed here (storedImage), and each
// with the entry this handle last flushed it to, which the dbspace may
// overwrite in place. It returns every item failure.
func (o *Object) flushBatch(ctx context.Context, pages []*page, mode core.WriteMode) []error {
	stored := make([][]byte, len(pages))
	_, csp := trace.Start(ctx, "flush.compress", trace.Int("pages", int64(len(pages))))
	for i, pg := range pages {
		stored[i] = o.storedImage(pg)
	}
	csp.End()
	prev := make([]core.Entry, len(pages))
	o.mu.Lock()
	for i, pg := range pages {
		prev[i] = o.flushed[pg.logical]
	}
	o.mu.Unlock()

	wctx, wsp := trace.Start(ctx, "flush.write", trace.Int("pages", int64(len(pages))))
	if wsp != nil {
		var n int64
		for _, b := range stored {
			n += int64(len(b))
		}
		wsp.AddInt("bytes", n)
	}
	entries, err := o.ds.WriteBatch(wctx, stored, prev, mode)
	if err != nil {
		wsp.SetAttr("err", err.Error())
	}
	wsp.End()

	var errs []error
	for i, itemErr := range pageio.ItemErrors(err, len(pages)) {
		if err := o.install(ctx, pages[i], entries[i], itemErr); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// storedImage returns the stored form of a flushing page: the image the
// compression queue installed, or, for a page the flush overtook (an
// eviction, a rewrite while queued), one compressed now. A flushing page's
// image and data change only under Pool.mu, after the flush ends.
func (o *Object) storedImage(pg *page) []byte {
	if pg.image != nil {
		return pg.image
	}
	return o.codec.Compress(pg.data)
}

// install is the one way out of the flushing state. A flush that succeeded
// put the page at entry: the blockmap records it and, when the location is
// fresh — the page had no previous entry, or one elsewhere, not the block run
// it was rewritten in — the transaction's bitmaps record the allocation and
// the location it supersedes. A failed flush leaves the page dirty.
func (o *Object) install(ctx context.Context, pg *page, entry core.Entry, err error) error {
	if err == nil {
		var old core.Entry
		if old, err = o.bm.Set(ctx, pg.logical, entry); err == nil && (old.IsZero() || old.Loc != entry.Loc) {
			o.sink.NoteAllocated(entry)
			if !old.IsZero() {
				o.sink.NoteFreed(old)
			}
		}
	}
	o.finishFlush(pg, entry, err == nil)
	return err
}

// finishFlush ends pg's flush under Pool.mu and wakes whoever waited for it.
// A flush that failed makes the page dirty-private again. One that landed is
// the flushing -> clean transition, the write path's only touch of the shared
// cache: the page stops being dirty and moves from its private key to the key
// of the entry the flush produced, so the next reader of that entry — in any
// handle — hits it.
func (o *Object) finishFlush(pg *page, entry core.Entry, landed bool) {
	p := o.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	pg.loading = false
	pg.image = nil
	p.cond.Broadcast()
	if !landed {
		return
	}
	pg.dirty = false
	pg.owner = nil
	p.stats.Flushes++
	o.mu.Lock()
	if o.flushed == nil {
		o.flushed = make(map[uint64]core.Entry)
	}
	o.flushed[pg.logical] = entry
	delete(o.dirty, pg.logical)
	o.mu.Unlock()
	if key := o.entryKey(pg.logical, entry); key != pg.key && p.pages[pg.key] == pg {
		if _, taken := p.pages[key]; taken {
			p.removeLocked(pg) // a reader raced us to the stored image
		} else {
			delete(p.pages, pg.key)
			pg.key = key
			p.pages[key] = pg
		}
	}
}

// DirtyCount reports the object's dirty pages awaiting flush.
func (o *Object) DirtyCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.dirty)
}

// Discard drops the object's dirty pages and the cached images of everything
// it flushed — the rollback path: permanent storage is reclaimed via the RB
// bitmap, RAM via this call. It walks the handle's own maps, not the pool;
// clean images of committed pages it merely read belong to every reader and
// stay. It first waits out the handle's queued compressions, so no worker
// touches its pages once it returns.
func (o *Object) Discard() {
	p := o.pool
	p.mu.Lock()
	o.waitCompressionsLocked()
	o.mu.Lock()
	for logical := range o.dirty {
		p.dropLocked(o.entryKey(logical, core.Entry{}))
	}
	for logical, entry := range o.flushed {
		p.dropLocked(o.entryKey(logical, entry))
	}
	o.dirty, o.flushed = nil, nil
	o.mu.Unlock()
	p.mu.Unlock()
}

// dropLocked removes the page cached under key unless someone is loading or
// flushing it. Called with p.mu held.
func (p *Pool) dropLocked(key pageKey) {
	if pg, ok := p.pages[key]; ok && !pg.loading {
		p.removeLocked(pg)
	}
}
