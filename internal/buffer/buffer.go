// Package buffer implements SAP IQ's buffer manager: a RAM cache of
// decompressed logical pages with LRU eviction, per-transaction dirty-page
// tracking, and prefetching. New pages are born in the cache (§3.1); dirty
// pages are flushed to permanent storage on eviction (write-back through the
// OCM during the churn phase) and before commit (write-through), with every
// flush allocating a fresh physical location and recording the superseded
// one in the transaction's RF bitmap.
package buffer

import (
	"container/list"
	"context"
	"errors"
	"fmt"
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
	// PrefetchWorkers bounds concurrent prefetch I/O. Zero selects 8.
	PrefetchWorkers int
}

// Stats counts cache behaviour.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Flushes   int64 // dirty pages written out (eviction or commit)
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
	dirty   bool
	loading bool // being loaded or flushed: accessors wait on Pool.cond
	lru     *list.Element
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

	prefetchSem chan struct{}
}

// NewPool returns a Pool with the given configuration.
func NewPool(cfg Config) *Pool {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 64 << 20
	}
	if cfg.PrefetchWorkers <= 0 {
		cfg.PrefetchWorkers = 8
	}
	p := &Pool{
		cfg:         cfg,
		pages:       make(map[pageKey]*page),
		spaces:      make(map[core.Dbspace]uint64),
		lruList:     list.New(),
		prefetchSem: make(chan struct{}, cfg.PrefetchWorkers),
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
	codec Codec

	// memo caches the cloud key of each logical page for a read-only handle,
	// whose blockmap never changes, so a hit resolves its key without a lock.
	// Nil for writable handles.
	memo *keyMemo

	// mu guards dirty and flushed, nothing else; where Pool.mu is also held
	// it is taken first.
	mu    sync.Mutex
	dirty map[uint64]*page // logical -> dirty page (subset of pool cache)
	// flushed records pages this handle (i.e. this transaction) already
	// wrote out, enabling the §3.1 in-place optimization on conventional
	// dbspaces: a page re-flushed within the same transaction/savepoint may
	// overwrite its own blocks. Cloud dbspaces never take this path — every
	// flush there is versioned under a fresh key.
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
// handle read-only. codec may be nil for uncompressed pages.
func (p *Pool) OpenObject(ds core.Dbspace, bm *core.Blockmap, sink core.FlushSink, codec Codec) *Object {
	if codec == nil {
		codec = NopCodec{}
	}
	o := &Object{pool: p, ds: ds, bm: bm, sink: sink, codec: codec}
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

// ReadBatch returns the decompressed contents of the given logical pages; it
// is the pool's only read path. Cache misses are fetched through one dbspace
// ReadBatch, so adjacent block extents coalesce into scatter-gather reads and
// cloud reads overlap in the pipeline's worker pool. Results are positional;
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
	var todoBuf [16]int
	keys, todo := keyBuf[:0], todoBuf[:0]
	for i := range logicals {
		todo = append(todo, i)
	}
	for len(todo) > 0 {
		keys = keys[:0]
		for _, i := range todo {
			keys = append(keys, o.key(ctx, logicals[i]))
		}
		var misses []miss
		again := todo[:0]
		p.mu.Lock()
		for k, i := range todo {
			pg, ok := p.pages[keys[k]]
			switch {
			case ok && !pg.loading:
				p.touch(pg)
				p.stats.Hits++
				out[i] = pg.data
			case ok:
				again = append(again, i)
			default:
				npg := &page{key: keys[k], logical: logicals[i], loading: true}
				p.pages[npg.key] = npg
				p.stats.Misses++
				misses = append(misses, miss{i: i, pg: npg})
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
				todo = append(todo, m.i)
			case err != nil:
				delete(p.pages, m.pg.key)
				errs = append(errs, err)
			default:
				m.pg.data = data[j]
				m.pg.lru = p.lruList.PushFront(m.pg)
				p.size += int64(len(data[j]))
				out[m.i] = data[j]
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
// the cache. The page is born in RAM; permanent storage sees it on eviction
// or commit.
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
			pg = &page{key: key, logical: logical}
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
	pg.dirty = true
	pg.owner = o
	p.size += int64(len(cp))

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

// touch moves pg to the LRU front. Called with p.mu held.
func (p *Pool) touch(pg *page) {
	if pg.lru != nil {
		p.lruList.MoveToFront(pg.lru)
	}
}

// evictLocked brings the cache back under budget. A dirty victim enters the
// flushing state and is written out in write-back mode first (the churn phase
// of §4). Called with p.mu held; may drop and retake it.
func (p *Pool) evictLocked(ctx context.Context) {
	for p.size > p.cfg.Capacity {
		var victim *page
		for el := p.lruList.Back(); el != nil; el = el.Prev() {
			if pg := el.Value.(*page); !pg.loading {
				victim = pg
				break
			}
		}
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

// takeDirty moves every dirty page of the handle into the flushing state and
// returns them in logical order. A page an eviction is flushing is waited for
// and then looked at again: the eviction either wrote it or left it dirty.
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
// new identity for the catalog. This is the commit-phase half of §4. Its
// pages are in the flushing state from before the first one is compressed
// until each one's write has landed, so an eviction never writes one of them
// and the commit never writes one an eviction wrote.
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

// flushChunk bounds how many pages flushBatch compresses before handing
// them to the dbspace, so that compressing one chunk overlaps the previous
// chunk's storage writes. Large enough that coalescing and batch fan-out
// see real batches, small enough that the CPU and I/O halves of a big
// commit pipeline instead of running as two serial phases.
const flushChunk = 64

// flushBatch is the only way a dirty page reaches the dbspace: an eviction
// calls it with one page and write-back mode, a commit with the handle's
// dirty pages and write-through. The pages are in the flushing state, in
// logical order, and each leaves it through install. It returns every item
// failure.
//
// On a conventional dbspace, pages this transaction already flushed go first,
// each to its own block run (§3.1): those runs are fixed, so the rewrites
// cannot ride the allocating WriteBatch and overlap their device latency in
// the worker pool instead (a size-1 pool keeps logical order). The rest go
// through chunked dbspace WriteBatches, whose pipeline masks per-request
// storage latency exactly as the paper's load engine does. Compression (the
// CPU half of a flush) is fanned out across the flush workers and double-
// buffered against the writes: while chunk k is in flight at the device, chunk
// k+1 is compressing; the last chunk, with nothing left to overlap, is written
// on the caller's goroutine. Chunks are issued strictly in order — at most one
// write is outstanding — so a size-1 worker pool still observes the
// deterministic page order crash simulations rely on.
func (o *Object) flushBatch(ctx context.Context, pages []*page, mode core.WriteMode) []error {
	var errs []error
	settle := func(pg *page, entry core.Entry, fresh bool, err error) {
		if err = o.install(ctx, pg, entry, fresh, err); err != nil {
			errs = append(errs, err)
		}
	}
	workers := pageio.NewPool(o.pool.cfg.PrefetchWorkers)

	batch := pages
	if _, isBlock := o.ds.(*core.BlockDbspace); isBlock {
		var rewrites []*page
		batch = nil
		o.mu.Lock()
		for _, pg := range pages {
			if _, rewritable := o.flushed[pg.logical]; rewritable {
				rewrites = append(rewrites, pg)
			} else {
				batch = append(batch, pg)
			}
		}
		o.mu.Unlock()
		entries := make([]core.Entry, len(rewrites))
		fresh := make([]bool, len(rewrites))
		rwErrs := workers.Do(ctx, len(rewrites), func(i int) (err error) {
			entries[i], fresh[i], err = o.flushPage(ctx, rewrites[i])
			return err
		})
		for i, pg := range rewrites {
			settle(pg, entries[i], fresh[i], rwErrs[i])
		}
	}

	type writeResult struct {
		entries []core.Entry
		err     error
	}
	var prevPages []*page // pages of the in-flight chunk, submit order
	var prevDone chan writeResult

	// collect waits for the in-flight write and installs its entries.
	collect := func() {
		if prevDone == nil {
			return
		}
		res := <-prevDone
		prevDone = nil
		for j, itemErr := range pageio.ItemErrors(res.err, len(prevPages)) {
			settle(prevPages[j], res.entries[j], true, itemErr)
		}
	}

	for start := 0; start < len(batch); start += flushChunk {
		chunkIdx := int64(start / flushChunk)
		chunk := batch[start:min(start+flushChunk, len(batch))]
		stored := make([][]byte, len(chunk))
		_, csp := trace.Start(ctx, "flush.compress",
			trace.Int("chunk", chunkIdx), trace.Int("pages", int64(len(chunk))))
		compErrs := workers.Do(ctx, len(chunk), func(i int) error {
			stored[i] = o.codec.Compress(chunk[i].data)
			return nil
		})
		csp.End()
		var sub [][]byte
		var subPages []*page
		for i, err := range compErrs {
			if err != nil {
				settle(chunk[i], core.Entry{}, false, err) // cancelled before compression
				continue
			}
			sub = append(sub, stored[i])
			subPages = append(subPages, chunk[i])
		}
		collect()
		if len(sub) == 0 {
			continue
		}
		wctx, wsp := trace.Start(ctx, "flush.write",
			trace.Int("chunk", chunkIdx), trace.Int("pages", int64(len(sub))))
		if wsp != nil {
			var n int64
			for _, b := range sub {
				n += int64(len(b))
			}
			wsp.AddInt("bytes", n)
		}
		done := make(chan writeResult, 1)
		write := func() {
			entries, err := o.ds.WriteBatch(wctx, sub, mode)
			if err != nil {
				wsp.SetAttr("err", err.Error())
			}
			wsp.End()
			done <- writeResult{entries: entries, err: err}
		}
		if start+flushChunk < len(batch) {
			//lint:ignore detclosure the overlapped chunk write is joined through done before flushBatch returns; only the join order, fixed by chunk index, is observable
			go write()
		} else {
			write() // the last chunk — an eviction's only one — has nothing to overlap with
		}
		prevPages, prevDone = subPages, done
	}
	collect()
	return errs
}

// flushPage rewrites a page this transaction already flushed to a
// conventional dbspace: in place when the new image fits its block run
// (§3.1), else to a fresh run. It returns where the image is and whether that
// is a fresh run.
func (o *Object) flushPage(ctx context.Context, pg *page) (core.Entry, bool, error) {
	stored := o.codec.Compress(pg.data)
	o.mu.Lock()
	prev := o.flushed[pg.logical]
	o.mu.Unlock()
	entry, inPlace, err := o.ds.(*core.BlockDbspace).Rewrite(ctx, prev, stored)
	return entry, !inPlace, err
}

// install is the one way out of the flushing state. A flush that succeeded
// put the page at entry: the blockmap records it and, when the location is
// fresh — not the block run the page already had — the transaction's bitmaps
// record the allocation and the location it supersedes. A failed flush leaves
// the page dirty.
func (o *Object) install(ctx context.Context, pg *page, entry core.Entry, fresh bool, err error) error {
	if err == nil {
		var old core.Entry
		if old, err = o.bm.Set(ctx, pg.logical, entry); err == nil && fresh {
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
// stay.
func (o *Object) Discard() {
	p := o.pool
	p.mu.Lock()
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

// Prefetch schedules an asynchronous batched load of the given logical
// pages and returns immediately. The pages travel as one ReadBatch, whose
// pipeline fans out across the dbspace's worker pool — parallel I/O masking
// object-store latency (§6); the prefetch semaphore bounds how many batches
// are in flight.
func (o *Object) Prefetch(ctx context.Context, logicals []uint64) {
	if len(logicals) == 0 {
		return
	}
	select {
	case o.pool.prefetchSem <- struct{}{}:
	case <-ctx.Done():
		return
	}
	pctx, psp := trace.Start(ctx, "buffer.prefetch", trace.Int("pages", int64(len(logicals))))
	//lint:ignore detclosure prefetch is a cache-warmup hint bounded by prefetchSem; it only populates the page cache, whose content is order-insensitive
	go func() {
		defer func() { <-o.pool.prefetchSem }()
		_, _ = o.ReadBatch(pctx, logicals)
		psp.End()
	}()
}

// Wait blocks until all prefetch slots are idle; used by tests and the
// experiment harness to quiesce I/O.
func (p *Pool) Wait() {
	for i := 0; i < cap(p.prefetchSem); i++ {
		p.prefetchSem <- struct{}{}
	}
	for i := 0; i < cap(p.prefetchSem); i++ {
		<-p.prefetchSem
	}
}
