package core

import (
	"context"
	"fmt"

	"cloudiq/internal/blockdev"
	"cloudiq/internal/freelist"
	"cloudiq/internal/iomodel"
	"cloudiq/internal/keygen"
	"cloudiq/internal/mt"
	"cloudiq/internal/objstore"
	"cloudiq/internal/pageio"
	"cloudiq/internal/rfrb"
)

// ErrRetriesExhausted is returned when a cloud page cannot be read or
// written within the configured retry budget. The caller (the buffer
// manager, on behalf of a transaction) responds by rolling the transaction
// back (§4). It is the pageio pipeline's exhaustion sentinel: the retry
// policy itself lives in pageio.Retry.
var ErrRetriesExhausted = pageio.ErrExhausted

// WriteMode selects how a page flush interacts with the Object Cache
// Manager (§4). During the churn phase evictions use WriteBack to keep
// latency at local-SSD levels; during the commit phase the buffer manager
// switches to WriteThrough so pages reach permanent storage synchronously.
type WriteMode int

const (
	// WriteThrough writes synchronously to permanent storage.
	WriteThrough WriteMode = iota
	// WriteBack writes synchronously to the local cache (when present) and
	// asynchronously to permanent storage; durability is established later
	// by FlushForCommit.
	WriteBack
)

// Dbspace is the storage unit databases are built from: a collection of
// pages on either an object store (cloud dbspace) or a block device
// (conventional dbspace). All implementations route their I/O through an
// internal pageio pipeline, so retries, metering and batching are uniform
// across backends.
type Dbspace interface {
	// Name returns the dbspace name.
	Name() string
	// IsCloud reports whether pages live on an object store.
	IsCloud() bool
	// WriteBatch stores each page at a freshly allocated location — an object
	// key never used before, or a newly allocated block run; cloud dbspaces
	// never overwrite an existing key. The returned entries are positional; a
	// failed item leaves a zero Entry and the error expands per item via
	// pageio.ItemErrors. A successful item is as durable as mode says.
	WriteBatch(ctx context.Context, pages [][]byte, mode WriteMode) ([]Entry, error)
	// ReadBatch fetches the stored bytes of one page per entry, retrying
	// object-not-found errors caused by eventual consistency up to the
	// configured budget. Results are positional (nil for failed items) and the
	// error expands per item via pageio.ItemErrors.
	ReadBatch(ctx context.Context, entries []Entry) ([][]byte, error)
	// FlushForCommit blocks until every WriteBack page in the given extents
	// is durable on permanent storage, prioritizing their uploads. It is a
	// no-op for conventional dbspaces (their writes are already durable).
	FlushForCommit(ctx context.Context, extents []rfrb.Range) error
	// Reclaim physically deletes the extent covered by r: object keys are
	// deleted (idempotently — unconsumed keys in the range are simply
	// polled, per Table 1), block runs are released to the freelist.
	Reclaim(ctx context.Context, r rfrb.Range) error
}

// one unwraps a batch call made with a single item — a page is read or
// written alone by the same path as a batch of them — into that item's result
// and its own error, so the dbspace's message and errors.Is both survive.
func one[T any](out []T, err error) (T, error) {
	if err != nil {
		var zero T
		return zero, pageio.ItemErrors(err, 1)[0]
	}
	return out[0], nil
}

// PageCache is the slice of the Object Cache Manager a cloud dbspace uses.
// *ocm.Cache implements it.
type PageCache interface {
	pageio.CacheLayer
	FlushForCommit(ctx context.Context, keys []string) error
}

// KeyNamer maps a 64-bit object key to the full key used on the object
// store. The default prepends a randomized prefix derived from a Mersenne
// Twister hash of the key (§3.1); Sequential mode disables the hash and is
// used by the prefix-throttling ablation bench.
type KeyNamer struct {
	Sequential bool
}

// Name renders the store key for key.
func (n KeyNamer) Name(key uint64) string {
	if n.Sequential {
		return fmt.Sprintf("seq/%016x", key)
	}
	return fmt.Sprintf("%04x/%016x", mt.Hash64(key)>>48, key)
}

// CloudConfig parameterizes a cloud dbspace.
type CloudConfig struct {
	Name  string
	Store objstore.Store
	Keys  *keygen.Client
	Namer KeyNamer

	// Cache, when non-nil, is the Object Cache Manager all page I/O is
	// routed through.
	Cache PageCache

	// ReadRetries bounds retry-until-found for eventually consistent reads;
	// WriteRetries bounds retries of failed uploads before the transaction
	// is rolled back. Zero values select defaults. With a Cache configured
	// the cache owns upload retries, so the pipeline writes once.
	ReadRetries  int
	WriteRetries int
	// Scale drives the backoff sleeps. Nil disables sleeping.
	Scale *iomodel.Scale

	// Pool bounds batch fan-out. Nil runs batches sequentially.
	Pool *pageio.WorkPool
	// Stats, when non-nil, receives per-layer I/O metrics under
	// "dbspace:<name>" (above the retry stage) and "store:<name>" or
	// "ocm:<name>" (below it).
	Stats *pageio.StatsRegistry
}

const (
	defaultReadRetries  = 10
	defaultWriteRetries = 3
)

// CloudDbspace stores each page as one object under a never-reused key.
type CloudDbspace struct {
	cfg  CloudConfig
	pipe pageio.Handler
	// selPipe is the pushdown pipeline: it terminates directly at the store
	// adapter, bypassing the OCM — select results are derived data and must
	// never enter the page cache — while keeping the same tracing, metering
	// and read-retry stages as the page pipeline.
	selPipe pageio.Handler
}

var _ Dbspace = (*CloudDbspace)(nil)

// NewCloud returns a cloud dbspace over cfg.Store drawing keys from cfg.Keys.
// Its pipeline is
//
//	Meter("dbspace:<name>") -> Retry -> Meter("ocm:|store:<name>") -> terminal
//
// where the terminal is the OCM (when configured) or the store adapter.
func NewCloud(cfg CloudConfig) *CloudDbspace {
	if cfg.ReadRetries <= 0 {
		cfg.ReadRetries = defaultReadRetries
	}
	if cfg.WriteRetries <= 0 {
		cfg.WriteRetries = defaultWriteRetries
	}
	var terminal pageio.Handler
	var innerTrace, innerMeter pageio.Middleware
	writeAttempts := cfg.WriteRetries
	if cfg.Cache != nil {
		terminal = pageio.NewCache(cfg.Cache)
		innerTrace = pageio.Trace("ocm:" + cfg.Name)
		innerMeter = pageio.Meter(cfg.Stats, "ocm:"+cfg.Name)
		// The OCM's write paths carry their own upload retry budget.
		writeAttempts = 1
	} else {
		terminal = pageio.NewStore(cfg.Store, nil)
		innerTrace = pageio.Trace("store:" + cfg.Name)
		innerMeter = pageio.Meter(cfg.Stats, "store:"+cfg.Name)
	}
	// Trace sits outermost so its span times the caller-visible operation
	// (including backoff); Retry annotates that span with attempt counts.
	pipe := pageio.Chain(terminal,
		pageio.Trace("dbspace:"+cfg.Name),
		pageio.Meter(cfg.Stats, "dbspace:"+cfg.Name),
		pageio.Retry(pageio.Policy{
			ReadAttempts:  cfg.ReadRetries,
			WriteAttempts: writeAttempts,
			Scale:         cfg.Scale,
			Pool:          cfg.Pool,
		}),
		innerTrace,
		innerMeter,
	)
	selPipe := pageio.Chain(pageio.NewStore(cfg.Store, nil),
		pageio.Trace("dbspace:"+cfg.Name),
		pageio.Meter(cfg.Stats, "dbspace:"+cfg.Name),
		pageio.Retry(pageio.Policy{
			ReadAttempts:  cfg.ReadRetries,
			WriteAttempts: 1,
			Scale:         cfg.Scale,
			Pool:          cfg.Pool,
		}),
		pageio.Trace("store:"+cfg.Name),
		pageio.Meter(cfg.Stats, "store:"+cfg.Name),
	)
	return &CloudDbspace{cfg: cfg, pipe: pipe, selPipe: selPipe}
}

// Name implements Dbspace.
func (d *CloudDbspace) Name() string { return d.cfg.Name }

// IsCloud implements Dbspace.
func (d *CloudDbspace) IsCloud() bool { return true }

// ObjectKey renders the object-store key a cloud page location maps to —
// the same naming the dbspace uses for its own I/O. Offline audits use it
// to compare reachable pages against the store's contents.
func (d *CloudDbspace) ObjectKey(key uint64) string { return d.cfg.Namer.Name(key) }

// WriteBatch implements Dbspace: each page obtains a fresh key from the
// Object Key Generator instead of consulting a freelist, and the batch uploads
// under those keys. A failed upload is retried under the same key — the key
// was never visible, so reusing it preserves the never-write-twice invariant.
// With an OCM configured, WriteBack routes through the cache's write-back path
// and WriteThrough through its write-through path. Failed items leave zero
// entries; their keys are never reused, which is safe because the RB bitmap
// reclaims whole allocated key ranges on rollback.
func (d *CloudDbspace) WriteBatch(ctx context.Context, pages [][]byte, mode WriteMode) ([]Entry, error) {
	entries := make([]Entry, len(pages))
	reqs := make([]pageio.WriteReq, len(pages))
	for i, data := range pages {
		key, err := d.cfg.Keys.NextKey(ctx)
		if err != nil {
			return entries, fmt.Errorf("dbspace %s: %w", d.cfg.Name, err)
		}
		entries[i] = Entry{Loc: key, Size: uint32(len(data))}
		reqs[i] = pageio.WriteReq{
			Ref:   pageio.Ref{Key: d.cfg.Namer.Name(key)},
			Data:  data,
			Async: mode == WriteBack,
		}
	}
	err := d.pipe.WriteBatch(ctx, reqs)
	if err != nil {
		for i, itemErr := range pageio.ItemErrors(err, len(pages)) {
			if itemErr != nil {
				entries[i] = Entry{}
			}
		}
	}
	return entries, err
}

// FlushForCommit implements Dbspace: with an OCM configured it promotes and
// awaits the uploads of every key in the given extents; otherwise writes
// were already synchronous and nothing remains to do. Extents may include
// keys that were never flushed (the RB bitmap records whole allocated
// ranges); those are skipped by the cache.
func (d *CloudDbspace) FlushForCommit(ctx context.Context, extents []rfrb.Range) error {
	if d.cfg.Cache == nil {
		return nil
	}
	var keys []string
	for _, r := range extents {
		for k := r.Start; k < r.End; k++ {
			keys = append(keys, d.cfg.Namer.Name(k))
		}
	}
	if len(keys) == 0 {
		return nil
	}
	if err := d.cfg.Cache.FlushForCommit(ctx, keys); err != nil {
		return fmt.Errorf("dbspace %s: %w", d.cfg.Name, err)
	}
	return nil
}

func (d *CloudDbspace) checkSize(e Entry, data []byte) error {
	if len(data) != int(e.Size) {
		return fmt.Errorf("dbspace %s: key %#x: stored %d bytes, entry says %d",
			d.cfg.Name, e.Loc, len(data), e.Size)
	}
	return nil
}

// ReadBatch implements Dbspace: one pipeline batch, retried per item. An
// object-not-found error is assumed to be an eventual-consistency artifact —
// the never-write-twice policy guarantees a stored page has exactly one
// version — so the pipeline's retry stage polls it up to the configured budget
// before failing.
func (d *CloudDbspace) ReadBatch(ctx context.Context, entries []Entry) ([][]byte, error) {
	out := make([][]byte, len(entries))
	errs := make([]error, len(entries))
	var refs []pageio.Ref
	var submit []int
	for i, e := range entries {
		if !e.IsCloud() {
			errs[i] = fmt.Errorf("dbspace %s: entry %v is not a cloud entry", d.cfg.Name, e)
			continue
		}
		refs = append(refs, pageio.Ref{Key: d.cfg.Namer.Name(e.Loc)})
		submit = append(submit, i)
	}
	res, err := d.pipe.ReadBatch(ctx, refs)
	itemErrs := pageio.ItemErrors(err, len(refs))
	for j, i := range submit {
		if itemErrs[j] != nil {
			errs[i] = fmt.Errorf("dbspace %s: read key %#x: %w", d.cfg.Name, entries[i].Loc, itemErrs[j])
			continue
		}
		if sizeErr := d.checkSize(entries[i], res[j]); sizeErr != nil {
			errs[i] = sizeErr
			continue
		}
		out[i] = res[j]
	}
	return out, batchError(errs)
}

// SelectCol names one column page of a segment for pushdown: the column
// name the plan refers to it by, and the blockmap entry of its stored page.
type SelectCol struct {
	Name string
	E    Entry
}

// Select pushes filter + projection + partial aggregation to the object
// store's compute endpoint, reading the named column pages store-side and
// returning only the qualifying bytes. It bypasses the OCM entirely (the
// page cache stores whole pages, not select results) but keeps the page
// path's retry-until-found discipline: a not-yet-visible column object is an
// eventual-consistency artifact, exactly as on ReadBatch. Stores without a
// compute endpoint answer pageio.ErrSelectUnsupported.
func (d *CloudDbspace) Select(ctx context.Context, cols []SelectCol, flate bool, plan objstore.SelectPlan) (*objstore.SelectResult, error) {
	req := objstore.SelectRequest{
		Cols:  make([]objstore.SelectCol, len(cols)),
		Flate: flate,
		Plan:  plan,
	}
	for i, c := range cols {
		if !c.E.IsCloud() {
			return nil, fmt.Errorf("dbspace %s: select: entry %v is not a cloud entry", d.cfg.Name, c.E)
		}
		req.Cols[i] = objstore.SelectCol{Name: c.Name, Key: d.cfg.Namer.Name(c.E.Loc)}
	}
	res, err := pageio.Select(d.selPipe, ctx, req)
	if err != nil {
		return nil, fmt.Errorf("dbspace %s: select: %w", d.cfg.Name, err)
	}
	return res, nil
}

// batchError folds positional errors into a *pageio.BatchError (nil when
// every item succeeded).
func batchError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return &pageio.BatchError{Errs: errs}
		}
	}
	return nil
}

// DiscardKeyCache drops the dbspace's cached allocation range; see
// (*keygen.Client).Discard.
func (d *CloudDbspace) DiscardKeyCache() { d.cfg.Keys.Discard() }

// Reclaim implements Dbspace: every key in the range is deleted. Deletion is
// idempotent, so polling keys that were never flushed (or already collected
// by a rollback) is safe — Table 1's clock-150 walk does exactly this.
func (d *CloudDbspace) Reclaim(ctx context.Context, r rfrb.Range) error {
	for key := r.Start; key < r.End; key++ {
		if !rfrb.IsCloudKey(key) {
			return fmt.Errorf("dbspace %s: reclaim %#x: not a cloud key", d.cfg.Name, key)
		}
		if err := d.pipe.Delete(ctx, pageio.Ref{Key: d.cfg.Namer.Name(key)}); err != nil {
			return fmt.Errorf("dbspace %s: reclaim %#x: %w", d.cfg.Name, key, err)
		}
	}
	return nil
}

// maxPageBlocks caps the blocks a single page may occupy (the paper's pages
// span 1–16 blocks).
const maxPageBlocks = 16

// BlockConfig parameterizes a conventional dbspace.
type BlockConfig struct {
	Name      string
	Device    blockdev.Device
	BlockSize int
	// Blocks is the number of blocks the dbspace manages. Zero derives it
	// from the device size.
	Blocks uint64

	// Stats, when non-nil, receives per-layer I/O metrics under
	// "dbspace:<name>" (batch-level) and "dev:<name>" (after extent
	// coalescing).
	Stats *pageio.StatsRegistry
	// Pool bounds batch fan-out at the device terminal, overlapping per-op
	// device latency. Nil runs batch items sequentially.
	Pool *pageio.WorkPool
}

// BlockDbspace stores pages as contiguous block runs tracked by a freelist.
// Its pipeline is
//
//	Meter("dbspace:<name>") -> Coalesce -> Meter("dev:<name>") -> device
//
// so adjacent pages in a batch reach the device as one scatter-gather
// request.
type BlockDbspace struct {
	cfg  BlockConfig
	free *freelist.List
	pipe pageio.Handler
}

var _ Dbspace = (*BlockDbspace)(nil)

// NewBlock returns a conventional dbspace over cfg.Device.
func NewBlock(cfg BlockConfig) (*BlockDbspace, error) {
	if cfg.BlockSize <= 0 {
		return nil, fmt.Errorf("dbspace %s: block size %d", cfg.Name, cfg.BlockSize)
	}
	if cfg.Blocks == 0 {
		cfg.Blocks = uint64(cfg.Device.Size()) / uint64(cfg.BlockSize)
	}
	if cfg.Blocks == 0 {
		return nil, fmt.Errorf("dbspace %s: zero capacity", cfg.Name)
	}
	if rfrb.IsCloudKey(cfg.Blocks) {
		return nil, fmt.Errorf("dbspace %s: %d blocks collides with the reserved cloud-key range", cfg.Name, cfg.Blocks)
	}
	// Trace outermost times the batch as the caller sees it; Coalesce
	// annotates the same span with its merge decision, and the inner Trace
	// stage records each post-merge device request individually.
	pipe := pageio.Chain(pageio.NewDevice(cfg.Device, cfg.Pool),
		pageio.Trace("dbspace:"+cfg.Name),
		pageio.Meter(cfg.Stats, "dbspace:"+cfg.Name),
		pageio.Coalesce(0),
		pageio.Trace("dev:"+cfg.Name),
		pageio.Meter(cfg.Stats, "dev:"+cfg.Name),
	)
	return &BlockDbspace{cfg: cfg, free: freelist.New(cfg.Blocks), pipe: pipe}, nil
}

// Name implements Dbspace.
func (d *BlockDbspace) Name() string { return d.cfg.Name }

// IsCloud implements Dbspace.
func (d *BlockDbspace) IsCloud() bool { return false }

// Freelist exposes the allocator (checkpointing needs its image).
func (d *BlockDbspace) Freelist() *freelist.List { return d.free }

// RestoreFreelist replaces the allocator with a checkpointed image during
// crash recovery.
func (d *BlockDbspace) RestoreFreelist(l *freelist.List) { d.free = l }

// allocate reserves a run for a page of len(data) bytes.
func (d *BlockDbspace) allocate(data []byte) (start uint64, n int, err error) {
	n = (len(data) + d.cfg.BlockSize - 1) / d.cfg.BlockSize
	if n == 0 {
		n = 1
	}
	if n > maxPageBlocks {
		return 0, 0, fmt.Errorf("dbspace %s: page of %d bytes needs %d blocks, max %d",
			d.cfg.Name, len(data), n, maxPageBlocks)
	}
	start, err = d.free.Allocate(uint64(n))
	if err != nil {
		return 0, 0, fmt.Errorf("dbspace %s: %w", d.cfg.Name, err)
	}
	return start, n, nil
}

// WriteBatch implements Dbspace: runs are allocated up front, then the whole
// batch goes through the pipeline so the coalescer can group-commit adjacent
// runs. Failed items release their runs and leave zero entries.
func (d *BlockDbspace) WriteBatch(ctx context.Context, pages [][]byte, _ WriteMode) ([]Entry, error) {
	entries := make([]Entry, len(pages))
	reqs := make([]pageio.WriteReq, len(pages))
	errs := make([]error, len(pages))
	var submit []int
	for i, data := range pages {
		start, n, err := d.allocate(data)
		if err != nil {
			errs[i] = err
			continue
		}
		entries[i] = Entry{Loc: start, Size: uint32(len(data)), Blocks: uint16(n)}
		reqs[i] = pageio.WriteReq{
			Ref:  pageio.Ref{Off: int64(start) * int64(d.cfg.BlockSize)},
			Data: data,
		}
		submit = append(submit, i)
	}
	if len(submit) > 0 {
		sub := make([]pageio.WriteReq, len(submit))
		for j, i := range submit {
			sub[j] = reqs[i]
		}
		itemErrs := pageio.ItemErrors(d.pipe.WriteBatch(ctx, sub), len(submit))
		for j, i := range submit {
			if itemErrs[j] != nil {
				e := entries[i]
				_ = d.free.Free(e.Loc, uint64(e.Blocks))
				entries[i] = Entry{}
				errs[i] = fmt.Errorf("dbspace %s: write blocks %d+%d: %w", d.cfg.Name, e.Loc, e.Blocks, itemErrs[j])
			}
		}
	}
	return entries, batchError(errs)
}

// Rewrite updates a page in place when the new image fits in the existing
// block run — the in-place optimization available to conventional dbspaces
// for pages modified within the same transaction/savepoint (§3.1). It
// returns the updated entry, or falls back to a fresh write (in which case
// the caller must treat the old entry as superseded).
func (d *BlockDbspace) Rewrite(ctx context.Context, e Entry, data []byte) (Entry, bool, error) {
	if e.IsCloud() || len(data) > int(e.Blocks)*d.cfg.BlockSize {
		fresh, err := one(d.WriteBatch(ctx, [][]byte{data}, WriteThrough))
		return fresh, false, err
	}
	req := pageio.WriteReq{
		Ref:  pageio.Ref{Off: int64(e.Loc) * int64(d.cfg.BlockSize)},
		Data: data,
	}
	if err := d.pipe.WritePage(ctx, req); err != nil {
		return Entry{}, false, fmt.Errorf("dbspace %s: rewrite blocks %d: %w", d.cfg.Name, e.Loc, err)
	}
	e.Size = uint32(len(data))
	return e, true, nil
}

// ReadBatch implements Dbspace: adjacent entries in the batch coalesce into
// scatter-gather device reads.
func (d *BlockDbspace) ReadBatch(ctx context.Context, entries []Entry) ([][]byte, error) {
	out := make([][]byte, len(entries))
	errs := make([]error, len(entries))
	var refs []pageio.Ref
	var submit []int
	for i, e := range entries {
		if e.IsCloud() {
			errs[i] = fmt.Errorf("dbspace %s: entry %v is a cloud entry", d.cfg.Name, e)
			continue
		}
		refs = append(refs, pageio.Ref{Off: int64(e.Loc) * int64(d.cfg.BlockSize), Len: int(e.Size)})
		submit = append(submit, i)
	}
	res, err := d.pipe.ReadBatch(ctx, refs)
	itemErrs := pageio.ItemErrors(err, len(refs))
	for j, i := range submit {
		if itemErrs[j] != nil {
			errs[i] = fmt.Errorf("dbspace %s: read blocks %d+%d: %w", d.cfg.Name, entries[i].Loc, entries[i].Blocks, itemErrs[j])
			continue
		}
		out[i] = res[j]
	}
	return out, batchError(errs)
}

// FlushForCommit implements Dbspace: conventional writes are already
// durable, so there is nothing to flush.
func (d *BlockDbspace) FlushForCommit(ctx context.Context, _ []rfrb.Range) error {
	return ctx.Err()
}

// Reclaim implements Dbspace, releasing the block run to the freelist.
// Release tolerates already-free blocks, matching the idempotent polling
// semantics of the cloud path.
func (d *BlockDbspace) Reclaim(ctx context.Context, r rfrb.Range) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := d.free.Release(r.Start, r.Len()); err != nil {
		return fmt.Errorf("dbspace %s: %w", d.cfg.Name, err)
	}
	return nil
}
