// Package ocm implements the Object Cache Manager of §4: a disk-based
// read/write cache between SAP IQ's buffer manager and the object store,
// backed by a locally attached SSD or HDD. It supports read-through reads,
// write-back and write-through writes, a single LRU list shared by reads and
// writes, prioritized flushing for committing transactions
// (FlushForCommit), and the §4 durability rules: a locally-attached-storage
// failure is ignored and the page goes straight to the object store, while
// an object-store failure is retried and ultimately rolls the transaction
// back. Because pages are never written twice under the same key, a page
// read through the OCM can never be invalidated by a later write — caching
// primarily accelerates reads.
package ocm

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"cloudiq/internal/blockdev"
	"cloudiq/internal/faultinject"
	"cloudiq/internal/freelist"
	"cloudiq/internal/objstore"
	"cloudiq/internal/pageio"
	"cloudiq/internal/trace"
)

// ErrClosed is returned by operations on a closed cache.
var ErrClosed = errors.New("ocm: cache closed")

// ErrUploadFailed is reported by FlushForCommit when a page could not be
// uploaded within the retry budget; the caller rolls the transaction back.
var ErrUploadFailed = errors.New("ocm: upload failed")

// uploadAttempts bounds store-upload attempts per page (§4's retry budget).
const uploadAttempts = 3

// Config parameterizes a Cache.
type Config struct {
	// Device is the locally attached SSD/HDD.
	Device blockdev.Device
	// Store is the underlying object store.
	Store objstore.Store
	// BlockSize is the cache's allocation granularity. Zero selects 4096.
	BlockSize int
	// Workers is the number of asynchronous upload/fill workers. Zero
	// selects 4.
	Workers int
	// Faults, when non-nil, arms the OCMUploadDrop site: a fault drops a
	// queued write-back upload without attempting the store — the page a
	// crashed process never drained from its write queue. The entry moves
	// to the failed state, so a later FlushForCommit surfaces the loss
	// (and rolls the transaction back) instead of silently committing.
	Faults *faultinject.Plan
	// Stats, when non-nil, receives the cache's own device and store
	// traffic under the "ocmdev" and "ocmstore" layers.
	Stats *pageio.StatsRegistry
	// Trace, when non-nil, records spans for the cache's asynchronous work:
	// each background upload becomes a root span carrying its queue-wait
	// time (write-back jobs cannot inherit a caller's context), and the
	// device/store pipelines open per-operation child spans. This is what
	// separates queue-wait from device and store time when the upload queue
	// browns out under Experiment 2.
	Trace *trace.Tracer
}

// Stats reports cache effectiveness (Table 5) and internal behaviour.
type Stats struct {
	Hits        int64 // reads served from the local device
	Misses      int64 // reads that went to the object store
	Evictions   int64 // entries evicted to make room
	Uploads     int64 // successful asynchronous/synchronous uploads
	UploadFails int64 // uploads abandoned after the retry budget
	FillDrops   int64 // read-through fills skipped (no space / duplicate)
}

// HitRate returns Hits / (Hits + Misses), or 0 with no traffic.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

type entryState int

const (
	stateFilling   entryState = iota // indexed, device write in flight: the blocks are not readable yet
	stateCached                      // on device, in LRU
	stateUploading                   // on device, upload pending; pinned out of LRU
	stateFailed                      // upload abandoned; awaiting FlushForCommit error
)

type entry struct {
	key    string
	off    uint64 // first block on the device
	blocks uint64
	size   int
	state  entryState
	pins   int
	lru    *list.Element // nil while not in the LRU
	data   []byte        // retained until upload completes (uploading state)
	err    error         // terminal upload error (failed state)
}

type uploadJob struct {
	ent *entry
	// enqueuedAt is the tracer clock at enqueue time; the worker's dequeue
	// stamp minus this is the job's queue-wait. Zero when tracing is off.
	enqueuedAt time.Duration
	// depth is the queue length ahead of this job at enqueue time — a
	// clock-free brown-out signal that survives coarse time scales.
	depth int
}

// Cache is the Object Cache Manager. It is safe for concurrent use. All of
// its device and store I/O flows through pageio handlers: dev wraps the
// local device, up the backing store, and upload adds the §4 retry budget
// on top of up for write paths.
type Cache struct {
	cfg    Config
	free   *freelist.List
	dev    pageio.Handler
	up     pageio.Handler
	upload pageio.Handler

	mu      sync.Mutex
	cond    *sync.Cond // signals upload completions and queue activity
	index   map[string]*entry
	lruList *list.List // front = most recent
	queue   *list.List // upload queue; front = next
	stats   Stats
	closed  bool

	wg     sync.WaitGroup
	fillWG sync.WaitGroup
}

// New returns a running Cache.
func New(cfg Config) (*Cache, error) {
	if cfg.Device == nil || cfg.Store == nil {
		return nil, fmt.Errorf("ocm: device and store are required")
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 4096
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	blocks := uint64(cfg.Device.Size()) / uint64(cfg.BlockSize)
	if blocks == 0 {
		return nil, fmt.Errorf("ocm: device smaller than one block")
	}
	up := pageio.Chain(pageio.NewStore(cfg.Store), pageio.Meter(cfg.Stats, "ocmstore"))
	c := &Cache{
		cfg:     cfg,
		free:    freelist.New(blocks),
		dev:     pageio.Chain(pageio.NewDevice(cfg.Device, nil), pageio.Meter(cfg.Stats, "ocmdev")),
		up:      up,
		upload:  pageio.Chain(up, pageio.Retry(pageio.Policy{WriteAttempts: uploadAttempts})),
		index:   make(map[string]*entry),
		lruList: list.New(),
		queue:   list.New(),
	}
	c.cond = sync.NewCond(&c.mu)
	for i := 0; i < cfg.Workers; i++ {
		c.wg.Add(1)
		//lint:ignore detclosure upload workers drain a FIFO queue and join via wg on Close; WaitUploads is the only observation point and it barriers on the queue being empty
		go c.uploadWorker()
	}
	return c, nil
}

// Close drains the upload queue and stops the workers.
func (c *Cache) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
	c.wg.Wait()
	return nil
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len reports the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index)
}

// blocksFor returns the blocks needed for n bytes.
func (c *Cache) blocksFor(n int) uint64 {
	if n == 0 {
		return 1
	}
	return uint64((n + c.cfg.BlockSize - 1) / c.cfg.BlockSize)
}

// allocate finds room for nblocks, evicting cold entries as needed. Called
// with c.mu held. Returns false if space cannot be found (e.g. everything is
// pinned or the object exceeds the device).
func (c *Cache) allocate(nblocks uint64) (uint64, bool) {
	for {
		off, err := c.free.Allocate(nblocks)
		if err == nil {
			return off, true
		}
		if !c.evictOne() {
			return 0, false
		}
	}
}

// evictOne removes the least recently used unpinned entry. Called with c.mu
// held.
func (c *Cache) evictOne() bool {
	for el := c.lruList.Back(); el != nil; el = el.Prev() {
		ent := el.Value.(*entry)
		if ent.pins > 0 || ent.state != stateCached {
			continue
		}
		c.removeLocked(ent)
		c.stats.Evictions++
		return true
	}
	return false
}

// removeLocked unlinks ent from the index, LRU and device space.
func (c *Cache) removeLocked(ent *entry) {
	if ent.lru != nil {
		c.lruList.Remove(ent.lru)
		ent.lru = nil
	}
	delete(c.index, ent.key)
	_ = c.free.Release(ent.off, ent.blocks)
}

// touch moves ent to the front of the LRU. Called with c.mu held.
func (c *Cache) touch(ent *entry) {
	if ent.lru != nil {
		c.lruList.MoveToFront(ent.lru)
	}
}

// Get implements read-through semantics: device hit, else object store with
// an asynchronous cache fill. An entry whose device write has not landed
// (stateFilling) is a miss — its blocks still hold zeros or the previous
// tenant's page — and the duplicate fill the miss starts is dropped.
func (c *Cache) Get(ctx context.Context, key string) ([]byte, error) {
	ctx, sp := trace.Start(ctx, "ocm.get", trace.String("key", key))
	defer sp.End()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if ent, ok := c.index[key]; ok && (ent.state == stateCached || ent.state == stateUploading) {
		ent.pins++
		c.touch(ent)
		off, size := ent.off, ent.size
		c.mu.Unlock()

		buf, err := c.dev.ReadPage(ctx, pageio.Ref{Off: int64(off) * int64(c.cfg.BlockSize), Len: size})

		c.mu.Lock()
		ent.pins--
		c.cond.Broadcast()
		if err == nil {
			c.stats.Hits++
			c.mu.Unlock()
			sp.SetAttr("hit", "true")
			return buf, nil
		}
		// A failing local device is a performance problem, not a
		// correctness problem: fall through to the store, a miss.
	}
	c.stats.Misses++
	c.mu.Unlock()
	sp.SetAttr("hit", "false")

	data, err := c.up.ReadPage(ctx, pageio.Ref{Key: key})
	if err != nil {
		return nil, err
	}
	// Asynchronously cache for future lookups.
	cp := make([]byte, len(data))
	copy(cp, data)
	c.wg.Add(1)
	c.fillWG.Add(1)
	//lint:ignore detclosure the async fill is an idempotent single-key cache insert joined via fillWG/wg; cache content is order-insensitive
	go func() {
		defer c.wg.Done()
		defer c.fillWG.Done()
		c.fill(context.WithoutCancel(ctx), key, cp)
	}()
	return data, nil
}

// fill inserts data into the device cache (used by read-through and the
// asynchronous half of write-through). Errors are ignored per §4.
func (c *Cache) fill(ctx context.Context, key string, data []byte) {
	nblocks := c.blocksFor(len(data))
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	if _, dup := c.index[key]; dup {
		c.stats.FillDrops++
		c.mu.Unlock()
		return
	}
	off, ok := c.allocate(nblocks)
	if !ok {
		c.stats.FillDrops++
		c.mu.Unlock()
		return
	}
	ent := &entry{key: key, off: off, blocks: nblocks, size: len(data), state: stateFilling, pins: 1}
	c.index[key] = ent
	c.mu.Unlock()

	err := c.dev.WritePage(ctx, pageio.WriteReq{Ref: pageio.Ref{Off: int64(off) * int64(c.cfg.BlockSize)}, Data: data})

	c.mu.Lock()
	ent.pins--
	if err != nil {
		c.removeLocked(ent)
		c.stats.FillDrops++
	} else {
		ent.state = stateCached
		ent.lru = c.lruList.PushFront(ent)
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// PutBack is the write-back mode: the page is written synchronously to the
// local device and uploaded to the object store in the background. The entry
// joins the LRU only once the upload succeeds, so failed/rolled-back
// transactions do not pollute the cache.
func (c *Cache) PutBack(ctx context.Context, key string, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	nblocks := c.blocksFor(len(cp))

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	off, ok := c.allocate(nblocks)
	if !ok {
		// No local space: degrade to a synchronous store write.
		c.mu.Unlock()
		return c.putDirect(ctx, key, cp)
	}
	ent := &entry{key: key, off: off, blocks: nblocks, size: len(cp), state: stateFilling, pins: 1, data: cp}
	c.index[key] = ent
	c.mu.Unlock()

	if err := c.dev.WritePage(ctx, pageio.WriteReq{Ref: pageio.Ref{Off: int64(off) * int64(c.cfg.BlockSize)}, Data: cp}); err != nil {
		// §4: a local write failure is ignored and the page is written
		// directly to the object store.
		c.mu.Lock()
		c.removeLocked(ent)
		ent.pins--
		c.cond.Broadcast()
		c.mu.Unlock()
		return c.putDirect(ctx, key, cp)
	}

	c.mu.Lock()
	ent.pins--
	ent.state = stateUploading
	c.queue.PushBack(uploadJob{ent: ent, enqueuedAt: c.cfg.Trace.Now(), depth: c.queue.Len()})
	c.cond.Broadcast()
	c.mu.Unlock()
	return nil
}

// putDirect uploads synchronously; the upload pipeline's retry stage spends
// the §4 budget before giving up.
func (c *Cache) putDirect(ctx context.Context, key string, data []byte) error {
	err := c.upload.WritePage(ctx, pageio.WriteReq{Ref: pageio.Ref{Key: key}, Data: data})
	if err == nil {
		c.mu.Lock()
		c.stats.Uploads++
		c.mu.Unlock()
		return nil
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	c.mu.Lock()
	c.stats.UploadFails++
	c.mu.Unlock()
	return fmt.Errorf("%w: key %s: %v", ErrUploadFailed, key, err)
}

// PutThrough is the write-through mode used during the commit phase: the
// page is written synchronously to the object store and cached
// asynchronously on the local device.
func (c *Cache) PutThrough(ctx context.Context, key string, data []byte) error {
	if err := c.putDirect(ctx, key, data); err != nil {
		return err
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	c.wg.Add(1)
	c.fillWG.Add(1)
	//lint:ignore detclosure the async fill is an idempotent single-key cache insert joined via fillWG/wg; cache content is order-insensitive
	go func() {
		defer c.wg.Done()
		defer c.fillWG.Done()
		c.fill(context.WithoutCancel(ctx), key, cp)
	}()
	return nil
}

// uploadWorker drains the background upload queue.
func (c *Cache) uploadWorker() {
	defer c.wg.Done()
	for {
		c.mu.Lock()
		for c.queue.Len() == 0 && !c.closed {
			c.cond.Wait()
		}
		if c.queue.Len() == 0 && c.closed {
			c.mu.Unlock()
			return
		}
		el := c.queue.Front()
		c.queue.Remove(el)
		job := el.Value.(uploadJob)
		ent := job.ent
		if ent.state != stateUploading {
			c.mu.Unlock()
			continue
		}
		ent.pins++
		data := ent.data
		c.mu.Unlock()

		// A write-back upload runs long after PutBack returned, so it
		// cannot inherit the writer's context: each job becomes its own
		// root span, and its queue_ns (dequeue minus enqueue stamp) is the
		// brown-out signal — store time stays flat while queue-wait grows.
		//lint:ignore ctxflow write-back uploads outlive every writer context by design; cancellation is Close draining the queue
		ctx := context.Background()
		var sp *trace.Span
		if c.cfg.Trace != nil {
			sp = c.cfg.Trace.Root("ocm.upload",
				trace.String("key", ent.key), trace.Int("bytes", int64(len(data))))
			sp.AddInt("queue_ns", int64(c.cfg.Trace.Now()-job.enqueuedAt))
			sp.AddInt("queue_depth", int64(job.depth))
			ctx = trace.With(ctx, sp)
		}

		var lastErr error
		ok := false
		if lastErr = c.cfg.Faults.Check(faultinject.OCMUploadDrop, ent.key); lastErr == nil {
			lastErr = c.upload.WritePage(ctx, pageio.WriteReq{Ref: pageio.Ref{Key: ent.key}, Data: data})
			ok = lastErr == nil
		}
		if sp != nil {
			if lastErr != nil {
				sp.SetAttr("err", lastErr.Error())
			}
			sp.End()
		}

		c.mu.Lock()
		ent.pins--
		ent.data = nil
		if ok {
			ent.state = stateCached
			ent.lru = c.lruList.PushFront(ent)
			c.stats.Uploads++
		} else {
			ent.state = stateFailed
			ent.err = lastErr
			c.stats.UploadFails++
		}
		c.cond.Broadcast()
		c.mu.Unlock()
	}
}

// FlushForCommit is the commit-phase signal: pending uploads for the given
// keys are moved to the head of the write queue and the call blocks until
// each has reached the object store. Any key whose upload was abandoned
// yields ErrUploadFailed (the caller rolls back). Keys with no pending
// upload are already durable and are skipped.
func (c *Cache) FlushForCommit(ctx context.Context, keys []string) error {
	ctx, sp := trace.Start(ctx, "ocm.flushwait", trace.Int("keys", int64(len(keys))))
	defer sp.End()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	want := make(map[*entry]bool)
	for _, k := range keys {
		if ent, ok := c.index[k]; ok && ent.state == stateUploading {
			want[ent] = true
		} else if ok && ent.state == stateFailed {
			return fmt.Errorf("flush for commit: key %s: %w: %v", k, ErrUploadFailed, ent.err)
		}
	}
	sp.AddInt("pending", int64(len(want)))
	// Promote the wanted jobs to the front of the queue, preserving their
	// relative order.
	var promoted []*list.Element
	for el := c.queue.Front(); el != nil; el = el.Next() {
		if want[el.Value.(uploadJob).ent] {
			promoted = append(promoted, el)
		}
	}
	for i := len(promoted) - 1; i >= 0; i-- {
		c.queue.MoveToFront(promoted[i])
	}
	c.cond.Broadcast()

	for ent := range want {
		for ent.state == stateUploading {
			if err := ctx.Err(); err != nil {
				return err
			}
			c.cond.Wait()
		}
		if ent.state == stateFailed {
			return fmt.Errorf("flush for commit: key %s: %w: %v", ent.key, ErrUploadFailed, ent.err)
		}
	}
	return nil
}

// Quiesce blocks until all asynchronous cache fills have settled and the
// upload queue is empty. Benchmarks use it to measure warm-cache behaviour
// deterministically.
func (c *Cache) Quiesce() {
	c.fillWG.Wait()
	c.mu.Lock()
	for c.queue.Len() > 0 && !c.closed {
		c.cond.Wait()
	}
	c.mu.Unlock()
}

// Delete invalidates the cached copy and deletes the object from the store.
// Used by garbage collection. The store delete rides the retrying upload
// pipeline: GC against a throttled store must recover within the same §4
// budget as writes, not fail permanently on the first hiccup.
func (c *Cache) Delete(ctx context.Context, key string) error {
	c.mu.Lock()
	for {
		ent, ok := c.index[key]
		if !ok {
			break
		}
		// Wait for any pending upload or reader to settle so block reuse
		// is safe, then look the key up again: while this call slept the
		// entry may have been evicted and its blocks handed to another
		// key, and releasing them a second time would give that key's
		// blocks away.
		if ent.state == stateUploading || ent.pins > 0 {
			c.cond.Wait()
			continue
		}
		c.removeLocked(ent)
		break
	}
	c.mu.Unlock()
	return c.upload.Delete(ctx, pageio.Ref{Key: key})
}
