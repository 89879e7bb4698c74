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
	pins    int
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

// Read returns the page's decompressed contents. The returned slice is the
// cached image and must not be modified; use Write to modify a page.
func (o *Object) Read(ctx context.Context, logical uint64) ([]byte, error) {
	p := o.pool
	for {
		key := o.key(ctx, logical)
		p.mu.Lock()
		pg, ok := p.pages[key]
		if ok && pg.loading {
			// A flush may re-key the page it was waiting for: resolve again.
			p.cond.Wait()
			p.mu.Unlock()
			continue
		}
		if ok {
			pg.pins++
			p.touch(pg)
			p.stats.Hits++
			data := pg.data
			pg.pins--
			p.mu.Unlock()
			return data, nil
		}
		// Miss: install a loading placeholder and fetch outside the lock.
		pg = &page{key: key, logical: logical, loading: true}
		p.pages[key] = pg
		p.stats.Misses++
		p.mu.Unlock()

		data, err := o.load(ctx, logical, key)

		p.mu.Lock()
		pg.loading = false
		p.cond.Broadcast()
		if err != nil {
			delete(p.pages, key)
			p.mu.Unlock()
			if err == errRekeyed {
				continue
			}
			return nil, err
		}
		pg.data = data
		pg.lru = p.lruList.PushFront(pg)
		p.size += int64(len(data))
		p.evictLocked(ctx)
		p.mu.Unlock()
		return data, nil
	}
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

// load fetches and decompresses the stored page image.
func (o *Object) load(ctx context.Context, logical uint64, key pageKey) ([]byte, error) {
	entry, err := o.storedEntry(ctx, logical, key)
	if err != nil {
		return nil, err
	}
	stored, err := o.ds.ReadPage(ctx, entry)
	if err != nil {
		return nil, err
	}
	data, err := o.codec.Decompress(stored)
	if err != nil {
		return nil, fmt.Errorf("buffer: page %d of object %d: %w", logical, o.id, err)
	}
	return data, nil
}

// ReadBatch returns the decompressed contents of the given logical pages.
// Cache misses are fetched through one dbspace ReadBatch, so adjacent block
// extents coalesce into scatter-gather reads and cloud reads overlap in the
// pipeline's worker pool. Results are positional; like Read, the returned
// slices are cached images and must not be modified. The error joins every
// failed page.
func (o *Object) ReadBatch(ctx context.Context, logicals []uint64) ([][]byte, error) {
	p := o.pool
	out := make([][]byte, len(logicals))
	var errs []error

	type miss struct {
		i  int
		pg *page
	}
	var misses []miss
	var waiters []int // pages to take through Read: loading elsewhere, or re-keyed

	// Keys resolve before the lock; a segment's worth fits on the stack.
	var keyBuf [16]pageKey
	keys := keyBuf[:]
	if len(logicals) > len(keyBuf) {
		keys = make([]pageKey, len(logicals))
	}
	keys = keys[:len(logicals)]
	for i, logical := range logicals {
		keys[i] = o.key(ctx, logical)
	}

	p.mu.Lock()
	for i, key := range keys {
		pg, ok := p.pages[key]
		switch {
		case ok && !pg.loading:
			p.touch(pg)
			p.stats.Hits++
			out[i] = pg.data
		case ok:
			waiters = append(waiters, i)
		default:
			npg := &page{key: key, logical: logicals[i], loading: true}
			p.pages[key] = npg
			p.stats.Misses++
			misses = append(misses, miss{i: i, pg: npg})
		}
	}
	p.mu.Unlock()

	if len(misses) > 0 {
		itemErrs := make([]error, len(misses))
		data := make([][]byte, len(misses))

		var entries []core.Entry
		var submit []int
		for j, m := range misses {
			entry, err := o.storedEntry(ctx, logicals[m.i], m.pg.key)
			if err != nil {
				itemErrs[j] = err
				continue
			}
			entries = append(entries, entry)
			submit = append(submit, j)
		}
		stored, err := o.ds.ReadBatch(ctx, entries)
		subErrs := pageio.ItemErrors(err, len(entries))
		for k, j := range submit {
			if subErrs[k] != nil {
				itemErrs[j] = subErrs[k]
				continue
			}
			dec, derr := o.codec.Decompress(stored[k])
			if derr != nil {
				itemErrs[j] = fmt.Errorf("buffer: page %d of object %d: %w", logicals[misses[j].i], o.id, derr)
				continue
			}
			data[j] = dec
		}

		p.mu.Lock()
		for j, m := range misses {
			m.pg.loading = false
			if err := itemErrs[j]; err != nil {
				delete(p.pages, m.pg.key)
				if err == errRekeyed {
					waiters = append(waiters, m.i) // Read resolves it afresh
				} else {
					errs = append(errs, err)
				}
				continue
			}
			m.pg.data = data[j]
			m.pg.lru = p.lruList.PushFront(m.pg)
			p.size += int64(len(data[j]))
			out[m.i] = data[j]
		}
		p.cond.Broadcast()
		p.evictLocked(ctx)
		p.mu.Unlock()
	}

	// Pages that were mid-load by someone else resolve through Read, which
	// waits on the loader.
	for _, i := range waiters {
		data, err := o.Read(ctx, logicals[i])
		if err != nil {
			errs = append(errs, err)
			continue
		}
		out[i] = data
	}
	return out, errors.Join(errs...)
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

// evictLocked brings the cache back under budget. Dirty victims are flushed
// in write-back mode first. Called with p.mu held; may drop and retake it.
func (p *Pool) evictLocked(ctx context.Context) {
	for p.size > p.cfg.Capacity {
		var victim *page
		for el := p.lruList.Back(); el != nil; el = el.Prev() {
			pg := el.Value.(*page)
			if pg.pins > 0 || pg.loading {
				continue
			}
			victim = pg
			break
		}
		if victim == nil {
			return // everything pinned; stay over budget
		}
		if victim.dirty {
			// Eviction-time flush uses write-back mode (churn phase). The
			// page stays in the index marked loading so concurrent access
			// to it blocks until the flush lands in the blockmap.
			victim.loading = true
			if victim.lru != nil {
				p.lruList.Remove(victim.lru)
				victim.lru = nil
			}
			owner := victim.owner
			p.mu.Unlock()
			err := owner.flushPage(ctx, victim, core.WriteBack)
			p.mu.Lock()
			victim.loading = false
			p.cond.Broadcast()
			if err != nil && victim.dirty {
				// The page cannot be dropped without losing data; put it
				// back and stay over budget.
				victim.lru = p.lruList.PushFront(victim)
				return
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

// flushPage writes one dirty page to permanent storage and updates the
// blockmap, recording the allocation (and any superseded location) with the
// transaction's bitmaps. On conventional dbspaces, a page this transaction
// already flushed is rewritten in place when the new image fits its block
// run (§3.1); on cloud dbspaces every flush allocates a fresh key.
func (o *Object) flushPage(ctx context.Context, pg *page, mode core.WriteMode) error {
	stored := o.codec.Compress(pg.data)

	o.mu.Lock()
	prev, rewritable := o.flushed[pg.logical]
	o.mu.Unlock()
	if rewritable {
		if bds, isBlock := o.ds.(*core.BlockDbspace); isBlock {
			entry, inPlace, err := bds.Rewrite(ctx, prev, stored)
			if err != nil {
				return err
			}
			if inPlace {
				// Same extent, possibly new size: no allocation events.
				if _, err := o.bm.Set(ctx, pg.logical, entry); err != nil {
					return err
				}
				return o.finishFlush(pg, entry)
			}
			// Did not fit: a fresh run was allocated; the previous one is
			// superseded within this transaction.
			if _, err := o.bm.Set(ctx, pg.logical, entry); err != nil {
				return err
			}
			o.sink.NoteAllocated(entry)
			o.sink.NoteFreed(prev)
			return o.finishFlush(pg, entry)
		}
	}

	entry, err := o.ds.WritePage(ctx, stored, mode)
	if err != nil {
		return err
	}
	old, err := o.bm.Set(ctx, pg.logical, entry)
	if err != nil {
		return err
	}
	o.sink.NoteAllocated(entry)
	if !old.IsZero() {
		o.sink.NoteFreed(old)
	}
	return o.finishFlush(pg, entry)
}

// finishFlush is the flushing -> clean transition, the write path's only
// touch of the shared cache: under Pool.mu the page stops being dirty and
// moves from its private key to the key of the entry the flush produced, so
// the next reader of that entry — in any handle — hits it.
func (o *Object) finishFlush(pg *page, entry core.Entry) error {
	p := o.pool
	p.mu.Lock()
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
	p.mu.Unlock()
	return nil
}

// FlushForCommit writes out every dirty page of the object in write-through
// mode — as one dbspace WriteBatch, whose pipeline masks per-request storage
// latency exactly as the paper's load engine does — and then flushes the
// blockmap's copy-on-write cascade, returning the new identity for the
// catalog. This is the commit-phase half of §4. Pages flush in logical
// order; pages eligible for the §3.1 in-place rewrite keep their fixed
// locations and fan out across the flush workers instead of batching.
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
	o.mu.Lock()
	dirty := make([]*page, 0, len(o.dirty))
	for _, pg := range o.dirty {
		dirty = append(dirty, pg)
	}
	o.mu.Unlock()
	fsp.AddInt("dirty", int64(len(dirty)))
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].logical < dirty[j].logical })

	_, isBlock := o.ds.(*core.BlockDbspace)
	var errs []error
	var batch, rewrites []*page
	for _, pg := range dirty {
		if err := ctx.Err(); err != nil {
			errs = append(errs, err)
			break
		}
		o.pool.mu.Lock()
		stillDirty := pg.dirty
		o.pool.mu.Unlock()
		if !stillDirty {
			continue // e.g. flushed by a concurrent eviction
		}
		if isBlock {
			o.mu.Lock()
			_, rewritable := o.flushed[pg.logical]
			o.mu.Unlock()
			if rewritable {
				rewrites = append(rewrites, pg)
				continue
			}
		}
		batch = append(batch, pg)
	}
	if fsp != nil {
		fsp.AddInt("rewrites", int64(len(rewrites)))
		fsp.AddInt("batched", int64(len(batch)))
	}
	if len(rewrites) > 0 && ctx.Err() == nil {
		// In-place rewrites target fixed block runs, so they cannot ride
		// the allocating WriteBatch; overlap their device latency in the
		// worker pool instead (a size-1 pool keeps logical order).
		rwErrs := pageio.NewPool(o.pool.cfg.PrefetchWorkers).Do(ctx, len(rewrites), func(i int) error {
			return o.flushPage(ctx, rewrites[i], core.WriteThrough)
		})
		for _, err := range rwErrs {
			if err != nil {
				errs = append(errs, err)
			}
		}
	}
	if len(batch) > 0 && ctx.Err() == nil {
		errs = append(errs, o.flushBatch(ctx, batch)...)
	}
	if joined := errors.Join(errs...); joined != nil {
		return core.Identity{}, joined
	}
	return o.bm.Flush(ctx, o.sink)
}

// flushChunk bounds how many pages flushBatch compresses before handing
// them to the dbspace, so that compressing one chunk overlaps the previous
// chunk's storage writes. Large enough that coalescing and batch fan-out
// see real batches, small enough that the CPU and I/O halves of a big
// commit pipeline instead of running as two serial phases.
const flushChunk = 64

// flushBatch writes a group of dirty pages through chunked dbspace
// WriteBatches and installs the surviving entries. Compression (the CPU
// half of a flush) is fanned out across the flush workers and double-
// buffered against the writes: while chunk k is in flight at the device,
// chunk k+1 is compressing. Chunks are issued strictly in order — at most
// one write is outstanding — so a size-1 worker pool still observes the
// deterministic page order crash simulations rely on. It returns every
// item failure.
func (o *Object) flushBatch(ctx context.Context, batch []*page) []error {
	type writeResult struct {
		entries []core.Entry
		err     error
	}
	var errs []error
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
			pg := prevPages[j]
			if itemErr != nil {
				errs = append(errs, itemErr)
				continue
			}
			old, setErr := o.bm.Set(ctx, pg.logical, res.entries[j])
			if setErr != nil {
				errs = append(errs, setErr)
				continue
			}
			o.sink.NoteAllocated(res.entries[j])
			if !old.IsZero() {
				o.sink.NoteFreed(old)
			}
			_ = o.finishFlush(pg, res.entries[j])
		}
	}

	comp := pageio.NewPool(o.pool.cfg.PrefetchWorkers)
	for start := 0; start < len(batch); start += flushChunk {
		chunkIdx := int64(start / flushChunk)
		chunk := batch[start:min(start+flushChunk, len(batch))]
		pages := make([][]byte, len(chunk))
		_, csp := trace.Start(ctx, "flush.compress",
			trace.Int("chunk", chunkIdx), trace.Int("pages", int64(len(chunk))))
		compErrs := comp.Do(ctx, len(chunk), func(i int) error {
			pages[i] = o.codec.Compress(chunk[i].data)
			return nil
		})
		csp.End()
		var sub [][]byte
		var subPages []*page
		for i, err := range compErrs {
			if err != nil {
				errs = append(errs, err) // cancelled before compression
				continue
			}
			sub = append(sub, pages[i])
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
		//lint:ignore detclosure the overlapped chunk write is joined through done before flushBatch returns; only the join order, fixed by chunk index, is observable
		go func() {
			entries, err := o.ds.WriteBatch(wctx, sub, core.WriteThrough)
			if err != nil {
				wsp.SetAttr("err", err.Error())
			}
			wsp.End()
			done <- writeResult{entries: entries, err: err}
		}()
		prevPages, prevDone = subPages, done
	}
	collect()
	return errs
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
	if pg, ok := p.pages[key]; ok && !pg.loading && pg.pins == 0 {
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
