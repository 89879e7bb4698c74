// Package cloudiq is a from-scratch reproduction of the system described in
// "Bringing Cloud-Native Storage to SAP IQ" (SIGMOD 2021): a disk-based
// columnar OLAP engine whose user data lives directly on cloud object
// stores. Database pages map one-to-one to objects under never-reused keys
// (taming eventual consistency), a coordinator-run Object Key Generator
// hands out monotonically increasing key ranges, MVCC garbage collection is
// driven by per-transaction RF/RB bitmaps, an Object Cache Manager uses
// locally attached storage as a second cache tier, and snapshots are
// near-instantaneous because retired pages are retained on the object store
// for a retention period.
//
// A Database is opened over a transaction-log device; cloud dbspaces
// (object stores) and conventional dbspaces (block devices) are attached to
// it; tables are created, loaded and queried inside transactions with
// snapshot isolation. See the examples directory for end-to-end usage.
package cloudiq

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"cloudiq/internal/blockdev"
	"cloudiq/internal/buffer"
	"cloudiq/internal/catalog"
	"cloudiq/internal/core"
	"cloudiq/internal/delta"
	"cloudiq/internal/faultinject"
	"cloudiq/internal/iomodel"
	"cloudiq/internal/keygen"
	"cloudiq/internal/multiplex"
	"cloudiq/internal/objstore"
	"cloudiq/internal/ocm"
	"cloudiq/internal/pageio"
	"cloudiq/internal/rfrb"
	"cloudiq/internal/snapshot"
	"cloudiq/internal/table"
	"cloudiq/internal/trace"
	"cloudiq/internal/txn"
	"cloudiq/internal/wal"
)

// ErrNoSuchTable is returned when a lookup misses at the reader's snapshot.
var ErrNoSuchTable = errors.New("cloudiq: no such table")

// Config parameterizes a Database.
type Config struct {
	// Node names this node (default "coord"). Single-node databases act as
	// their own coordinator.
	Node string
	// LogDevice holds the transaction log (the system dbspace's core). Nil
	// selects a fresh in-memory growable device.
	LogDevice blockdev.Device
	// AllocKeys, if non-nil, makes this node a secondary: object-key ranges
	// are requested through it (an RPC to the coordinator) and commit
	// notifications are sent through Notify.
	AllocKeys keygen.AllocFunc
	// Notify delivers commit notifications to the coordinator (secondary
	// nodes only).
	Notify txn.CommitNotify
	// CacheBytes is the buffer manager budget. Zero selects 64 MiB.
	CacheBytes int64
	// PrefetchWorkers sizes the engine's I/O worker pools: the batch-I/O
	// fan-out shared by every dbspace and the OCM's upload and fill workers.
	// One keeps each of them in index order. Zero selects 8. It does not bound
	// read-ahead, which is the scan's window (exec.ScanOptions.Prefetch), nor
	// page compression, which the buffer pool runs on at most GOMAXPROCS
	// workers.
	PrefetchWorkers int
	// Compress is ignored: every page is stored DEFLATE-compressed.
	//
	// Deprecated: kept only so existing callers compile; it will be removed.
	Compress bool
	// Scale is ignored: the engine models no delay of its own (retries do
	// not back off); latency lives in the stores and devices.
	//
	// Deprecated: kept only so existing callers compile; it will be removed.
	Scale *iomodel.Scale
	// Faults, if non-nil, arms this node's transaction log with the
	// plan's WAL injection sites (WALAppend, WALTornTail). Storage-side
	// sites are armed on the stores/devices directly via their configs.
	Faults *faultinject.Plan
	// IOStats, when non-nil, collects per-layer pageio counters and latency
	// histograms from every dbspace and OCM cache attached to this node.
	// Read it with Snapshot or dump it with WriteJSON (an iqbench -out
	// report carries each experiment's snapshot as its "layers").
	IOStats *pageio.StatsRegistry
	// Trace, when non-nil, collects structured spans from commits, recovery,
	// buffer flushes, scans and every pageio layer of every dbspace attached
	// to this node. Construct with NewTracer; dump with its WriteJSON method
	// (iqbench -trace does).
	Trace *trace.Tracer
}

// Database is one node's database instance.
type Database struct {
	cfg    Config
	gen    *keygen.Generator // nil on secondary nodes
	mgr    *txn.Manager
	cat    *catalog.Catalog
	pool   *buffer.Pool
	iopool *pageio.WorkPool // shared batch-I/O fan-out across dbspaces
	delta  *delta.Store     // per-table in-memory delta (trickle inserts)

	// compactMu serializes delta-compaction cycles: each cycle freezes a
	// table's runs, appends them in a fresh transaction and publishes the
	// swap, so two concurrent cycles would double-drain the same runs.
	compactMu sync.Mutex

	// gates holds one compaction gate per table. A transaction writing a
	// table (append or drop) holds the gate shared from first open to
	// commit or rollback; the compactor's drain transaction takes it
	// exclusive — with TryLock, deferring busy tables to a later cycle —
	// because both publish new identities for the same table and the later
	// commit would silently supersede the earlier one's segments.
	gateMu sync.Mutex
	gates  map[string]*tableGate

	mu     sync.Mutex
	spaces map[string]core.Dbspace
	caches []*ocm.Cache
	snap   *snapshot.Manager

	// Fence-epoch state (coordinator failover, §3.2 operationalized). The
	// epoch is this node's own coordinator epoch; maxSeen is the highest
	// epoch ever observed in an incoming RPC. maxSeen > epoch means a newer
	// coordinator exists: this node is deposed and every mutating
	// coordinator entry point rejects. Both default to zero, so single-node
	// and pre-failover deployments are unaffected.
	epochMu sync.Mutex
	epoch   uint64
	maxSeen uint64
}

// Open creates or reopens a database over cfg.LogDevice. Reopening an
// existing log requires calling Recover before use.
func Open(ctx context.Context, cfg Config) (*Database, error) {
	if cfg.Node == "" {
		cfg.Node = "coord"
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 64 << 20
	}
	if cfg.LogDevice == nil {
		cfg.LogDevice = blockdev.NewMem(blockdev.Config{Growable: true})
	}
	log, err := wal.Open(ctx, cfg.LogDevice)
	if err != nil {
		return nil, fmt.Errorf("cloudiq: open log: %w", err)
	}
	if cfg.Faults != nil {
		log.InjectFaults(cfg.Faults)
	}
	workers := cfg.PrefetchWorkers
	if workers <= 0 {
		workers = 8
	}
	db := &Database{
		cfg:    cfg,
		cat:    catalog.New(),
		pool:   buffer.NewPool(buffer.Config{Capacity: cfg.CacheBytes}),
		iopool: pageio.NewPool(workers),
		delta:  delta.NewStore(),
		spaces: make(map[string]core.Dbspace),
	}
	tcfg := txn.Config{
		Node:   cfg.Node,
		Log:    log,
		Notify: cfg.Notify,
		ExtraCheckpoint: func() ([]byte, error) {
			catImg, err := db.cat.Marshal()
			if err != nil {
				return nil, err
			}
			dImg, err := db.delta.Marshal()
			if err != nil {
				return nil, err
			}
			return encodeImage(metaImage{Catalog: catImg, Delta: dImg})
		},
		RestoreExtra: func(img []byte) error {
			mi, err := decodeImage[metaImage]("checkpoint image", img)
			if err != nil {
				return err
			}
			cat, err := catalog.Unmarshal(mi.Catalog)
			if err != nil {
				return err
			}
			db.cat = cat
			return db.delta.Restore(mi.Delta)
		},
	}
	if cfg.AllocKeys == nil {
		db.gen = keygen.NewGenerator(log)
		tcfg.Keys = db.gen
	}
	db.mgr, err = txn.NewManager(tcfg)
	if err != nil {
		return nil, err
	}
	return db, nil
}

// Close drains the node's OCM caches.
func (db *Database) Close() error {
	db.mu.Lock()
	caches := db.caches
	db.caches = nil
	db.mu.Unlock()
	for _, c := range caches {
		if err := c.Close(); err != nil {
			return err
		}
	}
	return nil
}

// Node returns the node name.
func (db *Database) Node() string { return db.cfg.Node }

// allocFunc returns the key-range allocator for this node's dbspaces.
func (db *Database) allocFunc() keygen.AllocFunc {
	if db.cfg.AllocKeys != nil {
		return db.cfg.AllocKeys
	}
	return func(ctx context.Context, n uint64) (rfrb.Range, error) {
		return db.gen.Allocate(ctx, db.cfg.Node, n)
	}
}

// CloudOptions configures AttachCloudDbspace.
type CloudOptions struct {
	// CacheDevice, when non-nil, enables the Object Cache Manager on this
	// dbspace, backed by the given locally attached device.
	CacheDevice blockdev.Device
	// ReadRetries bounds eventual-consistency read retries; zero selects
	// the default.
	ReadRetries int
	// SequentialKeys disables hashed key prefixes (ablation only).
	SequentialKeys bool
}

// AttachCloudDbspace creates a cloud dbspace named name over store —
// the engine-side equivalent of
// CREATE DBSPACE name USING OBJECT STORE 's3://bucket'.
func (db *Database) AttachCloudDbspace(name string, store objstore.Store, opts CloudOptions) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.spaces[name]; dup {
		return fmt.Errorf("cloudiq: dbspace %q already attached", name)
	}
	ccfg := core.CloudConfig{
		Name:        name,
		Store:       store,
		Keys:        keygen.NewClient(db.allocFunc()),
		Namer:       core.KeyNamer{Sequential: opts.SequentialKeys},
		ReadRetries: opts.ReadRetries,
		Pool:        db.iopool,
		Stats:       db.cfg.IOStats,
	}
	if opts.CacheDevice != nil {
		cache, err := ocm.New(ocm.Config{
			Device:  opts.CacheDevice,
			Store:   store,
			Workers: db.cfg.PrefetchWorkers,
			Stats:   db.cfg.IOStats,
			Trace:   db.cfg.Trace,
		})
		if err != nil {
			return fmt.Errorf("cloudiq: dbspace %q: %w", name, err)
		}
		db.caches = append(db.caches, cache)
		ccfg.Cache = cache
	}
	ds := core.NewCloud(ccfg)
	db.spaces[name] = ds
	db.mgr.Register(ds)
	return nil
}

// AttachBlockDbspace creates a conventional dbspace over a block device.
func (db *Database) AttachBlockDbspace(name string, dev blockdev.Device, blockSize int) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.spaces[name]; dup {
		return fmt.Errorf("cloudiq: dbspace %q already attached", name)
	}
	ds, err := core.NewBlock(core.BlockConfig{Name: name, Device: dev, BlockSize: blockSize, Stats: db.cfg.IOStats, Pool: db.iopool})
	if err != nil {
		return err
	}
	db.spaces[name] = ds
	db.mgr.Register(ds)
	return nil
}

// space returns an attached dbspace.
func (db *Database) space(name string) (core.Dbspace, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	ds, ok := db.spaces[name]
	if !ok {
		return nil, fmt.Errorf("cloudiq: dbspace %q not attached", name)
	}
	return ds, nil
}

// Checkpoint durably snapshots the node's metadata (key-generator state,
// freelists, catalog), bounding recovery replay.
func (db *Database) Checkpoint(ctx context.Context) error {
	return db.mgr.Checkpoint(ctx)
}

// metaImage is the node-metadata image stored in checkpoints (and, with the
// commit sequence, in database snapshots): the catalog plus the residual
// delta — trickle inserts not yet drained into column segments, which have
// no pages of their own and would otherwise be lost when a checkpoint cuts
// replay short of the commit records that carry them.
type metaImage struct {
	Catalog []byte
	Delta   []byte
}

// sysImage is the system half of a database snapshot: the commit sequence
// at snapshot time plus the residual-delta image.
type sysImage struct {
	Seq   uint64
	Delta []byte
}

// encodeImage gob-encodes v: a metaImage, a sysImage or a commit's
// publications.
func encodeImage(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("cloudiq: encode %T: %w", v, err)
	}
	return buf.Bytes(), nil
}

// decodeImage decodes an encodeImage image of stored bytes, naming what it
// decodes in its error.
func decodeImage[T any](what string, img []byte) (T, error) {
	var v T
	if err := gob.NewDecoder(bytes.NewReader(img)).Decode(&v); err != nil {
		return v, fmt.Errorf("cloudiq: decode %s: %w", what, err)
	}
	return v, nil
}

// catalogPublication is one catalog change a commit publishes.
type catalogPublication struct {
	Name    string
	ID      core.Identity
	Dropped bool
	// DeltaThrough, when non-zero, marks the table's delta rows with ids
	// below it as compacted at this publication's sequence: the published
	// identity carries the drained rows as encoded segments, so older
	// snapshots keep reading them from the delta while newer ones read
	// the segments — the atomic half-and-half of the compaction swap.
	DeltaThrough uint64
}

// commitMeta is the engine payload of a commit record (txn.CommitRecord's
// Meta): the catalog publications, then the rows the transaction inserted,
// one record per table in table order. The rows ride the commit record, so
// they are durable exactly when their commit is.
type commitMeta struct {
	pubs    []catalogPublication
	inserts []delta.InsertRecord
}

// marshal encodes m: the publications' gob image (empty when there are
// none), then one delta.EncodeInsert image per insert, each behind a u32
// length prefix. A commit that publishes and inserts nothing has no meta.
func (m commitMeta) marshal() (out []byte, err error) {
	if len(m.pubs) == 0 && len(m.inserts) == 0 {
		return nil, nil
	}
	var img []byte
	if len(m.pubs) > 0 {
		if img, err = encodeImage(m.pubs); err != nil {
			return nil, err
		}
	}
	out = wal.AppendBytes32(nil, img)
	for _, ins := range m.inserts {
		if img, err = delta.EncodeInsert(ins); err != nil {
			return nil, err
		}
		out = wal.AppendBytes32(out, img)
	}
	return out, nil
}

// decodeCommitMeta parses commitMeta.marshal output. It refuses an insert
// delta.DecodeInsert refuses, so replay never meets rows the delta store
// cannot land.
func decodeCommitMeta(p []byte) (m commitMeta, err error) {
	if len(p) == 0 {
		return m, nil
	}
	r := wal.NewReader(p)
	if img := r.Bytes32(); len(img) > 0 {
		if m.pubs, err = decodeImage[[]catalogPublication]("commit publications", img); err != nil {
			return commitMeta{}, err
		}
	}
	for r.Len() > 0 && r.Err() == nil {
		m.inserts = append(m.inserts, wal.Decode32(&r, delta.DecodeInsert))
	}
	if err := r.End(); err != nil {
		return commitMeta{}, fmt.Errorf("cloudiq: decode commit meta: %w", err)
	}
	return m, nil
}

// Recover replays the transaction log after a crash or restart: key ranges,
// active sets, freelists, commits (including their catalog publications and
// inserted rows) and garbage collection are all restored. Dbspaces must be
// re-attached (with the surviving stores/devices) before calling Recover.
func (db *Database) Recover(ctx context.Context) error {
	ctx, sp := trace.Root(ctx, db.cfg.Trace, "db.recover", trace.String("node", db.cfg.Node))
	defer sp.End()
	return db.mgr.Recover(ctx, db.replayCommit)
}

// replayCommit applies one replayed commit record's meta at its sequence,
// through the same applyCommit the live commit runs, so row ids replay
// deterministically.
func (db *Database) replayCommit(meta []byte, seq uint64) error {
	m, err := decodeCommitMeta(meta)
	if err != nil {
		return err
	}
	return db.applyCommit(m, seq)
}

// RecoverAsReader rebuilds this node's view of the database from a shared
// system dbspace (the coordinator's transaction log) without performing any
// garbage collection or metadata mutation — the reader-node path of the
// multiplex (§2).
func (db *Database) RecoverAsReader(ctx context.Context) error {
	ctx, sp := trace.Root(ctx, db.cfg.Trace, "db.recover-reader", trace.String("node", db.cfg.Node))
	defer sp.End()
	return db.mgr.RecoverForRead(ctx, db.replayCommit)
}

// OCMStats reports the statistics of every attached Object Cache Manager,
// in attach order.
func (db *Database) OCMStats() []ocm.Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]ocm.Stats, len(db.caches))
	for i, c := range db.caches {
		out[i] = c.Stats()
	}
	return out
}

// applyCommit publishes one commit's meta at sequence seq: its catalog
// publications, then its inserted rows in table order. Compaction and drop
// publications move the delta registry with the catalog; the two must move
// together under the commit lock or a reader could see the drained segments
// and the still-live delta rows at once. The live commit runs it under that
// lock, replay per commit record in log order.
func (db *Database) applyCommit(m commitMeta, seq uint64) error {
	for _, p := range m.pubs {
		if p.Dropped {
			db.delta.Drop(p.Name, seq)
			if err := db.cat.Drop(p.Name, seq); err != nil {
				return err
			}
			continue
		}
		if err := db.cat.Publish(p.Name, p.ID, seq); err != nil {
			return err
		}
		if p.DeltaThrough > 0 {
			db.delta.MarkCompacted(p.Name, p.DeltaThrough, seq)
		}
	}
	for _, ins := range m.inserts {
		db.delta.Apply(ins.Table, ins.Rows, seq)
	}
	return nil
}

// CollectGarbage retires page versions no longer visible to any reader,
// including delta runs absorbed by compactions every live snapshot has
// advanced past.
func (db *Database) CollectGarbage(ctx context.Context) error {
	db.delta.Retire(db.mgr.OldestSnapshot())
	return db.mgr.CollectGarbage(ctx)
}

// --- ingest lane (delta store + compactor) ---

// Insert-lane accessors. DeltaLiveRows counts the delta rows of a table
// visible at the latest commit sequence; DeltaTables lists tables with live
// delta rows; FreezeDelta seals every table's current delta as the next
// compaction watermark and returns how many rows it froze.
func (db *Database) DeltaLiveRows(name string) int {
	return db.delta.LiveRows(name, db.mgr.CommitSeq())
}

// DeltaTables lists, sorted, the tables holding live delta rows.
func (db *Database) DeltaTables() []string { return db.delta.Tables() }

// FreezeDelta seals the delta watermark of every dirty table.
func (db *Database) FreezeDelta() int {
	n := 0
	for _, name := range db.delta.Tables() {
		n += db.delta.Freeze(name)
	}
	return n
}

// CompactDelta runs one compaction cycle over every table with live delta
// rows: each table's frozen runs are appended to its columnar main through
// the ordinary never-write-twice page path inside a fresh transaction whose
// commit atomically publishes the new table identity and retires the
// absorbed delta runs. space names the dbspace holding the tables. Returns
// the number of rows drained. On error (including injected delta.compact
// faults and doomed drain commits) the in-flight table's delta rows remain
// live and a later cycle repeats the drain against fresh object keys.
func (db *Database) CompactDelta(ctx context.Context, space string) (int, error) {
	db.compactMu.Lock()
	defer db.compactMu.Unlock()
	c := &delta.Compactor{
		Store:  db.delta,
		Faults: db.cfg.Faults,
		Drain: func(ctx context.Context, name string, rows *table.Batch, through uint64) error {
			return db.drainDelta(ctx, space, name, rows, through)
		},
	}
	return c.CompactAll(ctx)
}

// tableGate is a table's compaction gate: writer transactions hold it
// shared from first open to commit or rollback, the compactor's drain
// transaction holds it exclusive for one cycle. It is a hand-rolled
// reader/writer latch rather than a sync.RWMutex because the shared side is
// held across function boundaries (acquired at open, released at commit),
// and because the exclusive side never waits — a busy table is simply
// deferred to a later cycle.
type tableGate struct {
	mu      sync.Mutex
	cond    *sync.Cond
	readers int  // writer transactions holding the gate shared
	drain   bool // a compaction drain holds the gate exclusively
}

// enterShared blocks out an in-flight drain, then joins the readers.
func (g *tableGate) enterShared() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.drain {
		g.cond.Wait()
	}
	g.readers++
}

// leaveShared releases one shared hold.
func (g *tableGate) leaveShared() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.readers--
}

// tryExclusive claims the gate for a drain cycle if no transaction holds it;
// it never blocks.
func (g *tableGate) tryExclusive() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.drain || g.readers > 0 {
		return false
	}
	g.drain = true
	return true
}

// leaveExclusive ends the drain cycle and wakes blocked writers.
func (g *tableGate) leaveExclusive() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.drain = false
	g.cond.Broadcast()
}

// appendGate returns (creating on first use) the named table's compaction
// gate.
func (db *Database) appendGate(name string) *tableGate {
	db.gateMu.Lock()
	defer db.gateMu.Unlock()
	if db.gates == nil {
		db.gates = make(map[string]*tableGate)
	}
	g, ok := db.gates[name]
	if !ok {
		g = &tableGate{}
		g.cond = sync.NewCond(&g.mu)
		db.gates[name] = g
	}
	return g
}

// ErrDeltaBusy defers a compaction drain: the table is open in a writer
// transaction whose commit will publish its own identity, so the swap
// waits for a later cycle. The rows stay live in the delta.
var ErrDeltaBusy = errors.New("cloudiq: table open in a writer transaction; drain deferred")

// drainDelta is the engine half of one table's compaction cycle: append the
// frozen rows inside a fresh transaction and commit with the through-mark
// riding the table's publication.
func (db *Database) drainDelta(ctx context.Context, space, name string, rows *table.Batch, through uint64) error {
	gate := db.appendGate(name)
	if !gate.tryExclusive() {
		return fmt.Errorf("drain %q: %w", name, ErrDeltaBusy)
	}
	defer gate.leaveExclusive()
	tx := db.Begin()
	tx.noGate = true // the drain holds the gate exclusively already
	tbl, err := tx.OpenTableForAppend(ctx, space, name)
	if err != nil {
		if rbErr := tx.Rollback(ctx); rbErr != nil {
			return fmt.Errorf("cloudiq: drain %q: %v; rollback also failed: %w", name, err, rbErr)
		}
		return err
	}
	if err := tbl.Append(ctx, rows); err != nil {
		if rbErr := tx.Rollback(ctx); rbErr != nil {
			return fmt.Errorf("cloudiq: drain %q: %v; rollback also failed: %w", name, err, rbErr)
		}
		return err
	}
	tx.markCompacted(name, through)
	return tx.Commit(ctx)
}

// ReachableKeys returns, sorted, every object-store key reachable from the
// latest committed version of every table in the named cloud dbspace: the
// meta page, data pages and blockmap tree pages. Crash-simulation audits
// compare this set against the store's actual contents — after recovery and
// GC, anything in the store but not reachable is a leaked key, and anything
// reachable but not in the store is lost committed data.
func (db *Database) ReachableKeys(ctx context.Context, space string) ([]string, error) {
	ds, err := db.space(space)
	if err != nil {
		return nil, err
	}
	cds, ok := ds.(*core.CloudDbspace)
	if !ok {
		return nil, fmt.Errorf("cloudiq: dbspace %q is not a cloud dbspace", space)
	}
	set := make(map[string]struct{})
	for _, name := range db.cat.Names(math.MaxUint64) {
		id, ok := db.cat.Lookup(name, math.MaxUint64)
		if !ok {
			continue
		}
		bm, err := core.OpenBlockmap(ds, id)
		if err != nil {
			return nil, fmt.Errorf("cloudiq: open blockmap of %q: %w", name, err)
		}
		if err := bm.ForEachPhysical(ctx, func(e core.Entry) error {
			if e.IsCloud() {
				set[cds.ObjectKey(e.Loc)] = struct{}{}
			}
			return nil
		}); err != nil {
			return nil, fmt.Errorf("cloudiq: walk blockmap of %q: %w", name, err)
		}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, nil
}

// liveCloudKeys walks every table of cat on ds and collects the cloud keys
// its blockmaps reference.
func liveCloudKeys(ctx context.Context, cat *catalog.Catalog, ds core.Dbspace) (*rfrb.Bitmap, error) {
	live := &rfrb.Bitmap{}
	for _, name := range cat.Names(math.MaxUint64) {
		id, ok := cat.Lookup(name, math.MaxUint64)
		if !ok {
			continue
		}
		bm, err := core.OpenBlockmap(ds, id)
		if err != nil {
			return nil, fmt.Errorf("open blockmap of %q: %w", name, err)
		}
		if err := bm.ForEachPhysical(ctx, func(e core.Entry) error {
			if e.IsCloud() {
				live.AddKey(e.Loc)
			}
			return nil
		}); err != nil {
			return nil, fmt.Errorf("walk blockmap of %q: %w", name, err)
		}
	}
	return live, nil
}

// CommitSeq reports the node's current commit sequence number — the value
// new transactions snapshot. Simulation oracles use it to check that
// transaction visibility is monotonic across crashes and recoveries.
func (db *Database) CommitSeq() uint64 { return db.mgr.CommitSeq() }

// SnapshotRetainedKeys returns, sorted, every object key in the named cloud
// dbspace that the snapshot manager is legitimately retaining: retired page
// versions whose retention period has not ended. When snapshots are not
// enabled the set is empty. GC-reachability audits subtract this set (and
// the snapshot manager's own metadata prefix) before declaring a stored key
// leaked.
func (db *Database) SnapshotRetainedKeys(space string) ([]string, error) {
	ds, err := db.space(space)
	if err != nil {
		return nil, err
	}
	cds, ok := ds.(*core.CloudDbspace)
	if !ok {
		return nil, fmt.Errorf("cloudiq: dbspace %q is not a cloud dbspace", space)
	}
	db.mu.Lock()
	sm := db.snap
	db.mu.Unlock()
	if sm == nil {
		return nil, nil
	}
	var keys []string
	for _, ext := range sm.PendingExtents() {
		if ext.Space != space {
			continue
		}
		for k := ext.Range.Start; k < ext.Range.End; k++ {
			if rfrb.IsCloudKey(k) {
				keys = append(keys, cds.ObjectKey(k))
			}
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// NotifyCommit is the coordinator-side entry point for commit notifications
// from secondary nodes.
func (db *Database) NotifyCommit(ctx context.Context, node string, consumed *rfrb.Bitmap) error {
	if err := db.fencedErr(); err != nil {
		return err
	}
	return db.mgr.NotifyCommit(ctx, node, consumed)
}

// AllocateKeys is the coordinator-side entry point for key-range requests
// from secondary nodes.
func (db *Database) AllocateKeys(ctx context.Context, node string, n uint64) (rfrb.Range, error) {
	if err := db.fencedErr(); err != nil {
		return rfrb.Range{}, err
	}
	if db.gen == nil {
		return rfrb.Range{}, fmt.Errorf("cloudiq: node %s is not the coordinator", db.cfg.Node)
	}
	return db.gen.Allocate(ctx, node, n)
}

// WriterRestartGC garbage collects a crashed writer's outstanding key
// allocations (coordinator only).
func (db *Database) WriterRestartGC(ctx context.Context, node string) error {
	if err := db.fencedErr(); err != nil {
		return err
	}
	return db.mgr.WriterRestartGC(ctx, node)
}

// --- fence epochs (coordinator failover) ---

// SetEpoch installs this node's coordinator epoch. The cluster controller
// calls it when promoting a standby; the new epoch also raises maxSeen, so a
// promoted node can never be fenced by its own announcement.
func (db *Database) SetEpoch(e uint64) {
	db.epochMu.Lock()
	defer db.epochMu.Unlock()
	db.epoch = e
	if e > db.maxSeen {
		db.maxSeen = e
	}
}

// Epoch returns the node's coordinator epoch.
func (db *Database) Epoch() uint64 {
	db.epochMu.Lock()
	defer db.epochMu.Unlock()
	return db.epoch
}

// Fenced reports whether this node has been deposed: it observed a fence
// epoch higher than its own. A fenced coordinator rejects every mutating
// entry point forever — the other half of split-brain prevention (the first
// half is stale-epoch rejection of old clients).
func (db *Database) Fenced() bool {
	db.epochMu.Lock()
	defer db.epochMu.Unlock()
	return db.maxSeen > db.epoch
}

// fencedErr returns the mutating-entry-point rejection when deposed.
func (db *Database) fencedErr() error {
	if db.Fenced() {
		return fmt.Errorf("%w (node %s, epoch %d)", multiplex.ErrFenced, db.cfg.Node, db.Epoch())
	}
	return nil
}

// CheckEpoch validates a caller's fence epoch (multiplex.Coordinator). A
// higher remote epoch permanently fences this node; a lower one rejects the
// caller as stale. Only a caller at exactly this node's epoch is served.
func (db *Database) CheckEpoch(ctx context.Context, remote uint64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	db.epochMu.Lock()
	defer db.epochMu.Unlock()
	if remote > db.maxSeen {
		db.maxSeen = remote
	}
	if db.maxSeen > db.epoch {
		return fmt.Errorf("%w (node %s, epoch %d, saw %d)", multiplex.ErrFenced, db.cfg.Node, db.epoch, db.maxSeen)
	}
	if remote < db.epoch {
		return fmt.Errorf("%w (caller at %d, coordinator at %d)", multiplex.ErrStaleEpoch, remote, db.epoch)
	}
	return nil
}

// Status reports the node's identity, fence-epoch position and commit
// sequence — the health-probe payload (multiplex.Coordinator).
func (db *Database) Status(ctx context.Context) (multiplex.NodeStatus, error) {
	if err := ctx.Err(); err != nil {
		return multiplex.NodeStatus{}, err
	}
	db.epochMu.Lock()
	epoch, maxSeen := db.epoch, db.maxSeen
	db.epochMu.Unlock()
	return multiplex.NodeStatus{
		Node:      db.cfg.Node,
		Epoch:     epoch,
		MaxSeen:   maxSeen,
		Fenced:    maxSeen > epoch,
		CommitSeq: db.mgr.CommitSeq(),
	}, nil
}

// PoolStats reports buffer-manager cache behaviour.
func (db *Database) PoolStats() buffer.Stats { return db.pool.Stats() }

// WaitIO quiesces the OCM's asynchronous cache fills and uploads (used by
// benchmarks). A scan's read-ahead is not waited for: it belongs to the scan
// and ends with its segments.
func (db *Database) WaitIO() {
	db.mu.Lock()
	caches := append([]*ocm.Cache(nil), db.caches...)
	db.mu.Unlock()
	for _, c := range caches {
		c.Quiesce()
	}
}

// --- snapshots (§5) ---

// EnableSnapshots routes expired page versions through a snapshot manager
// with the given retention (in units of now's clock), stored in store.
// Coordinator only.
func (db *Database) EnableSnapshots(ctx context.Context, store objstore.Store, retention int64, now func() int64) error {
	if db.gen == nil {
		return fmt.Errorf("cloudiq: snapshots require the coordinator")
	}
	sm, err := snapshot.New(snapshot.Config{
		Store:     store,
		Retention: retention,
		Now:       now,
		Reclaim:   db.mgr.Reclaim,
	})
	if err != nil {
		return err
	}
	if err := sm.Load(ctx); err != nil {
		return err
	}
	db.mu.Lock()
	db.snap = sm
	db.mu.Unlock()
	db.mgr.SetRetire(sm.Retire)
	return nil
}

func (db *Database) snapshotManager() (*snapshot.Manager, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.snap == nil {
		return nil, fmt.Errorf("cloudiq: snapshots not enabled")
	}
	return db.snap, nil
}

// TakeSnapshot records a near-instantaneous snapshot: only the catalog and
// the engine metadata are backed up; no cloud dbspace data is copied.
func (db *Database) TakeSnapshot(ctx context.Context) (snapshot.SnapInfo, error) {
	sm, err := db.snapshotManager()
	if err != nil {
		return snapshot.SnapInfo{}, err
	}
	catImg, err := db.cat.Marshal()
	if err != nil {
		return snapshot.SnapInfo{}, err
	}
	dImg, err := db.delta.Marshal()
	if err != nil {
		return snapshot.SnapInfo{}, err
	}
	sys, err := encodeImage(sysImage{Seq: db.mgr.CommitSeq(), Delta: dImg})
	if err != nil {
		return snapshot.SnapInfo{}, err
	}
	return sm.Snapshot(ctx, catImg, sys, db.gen.MaxAllocated())
}

// Snapshots lists stored snapshots.
func (db *Database) Snapshots() ([]snapshot.SnapInfo, error) {
	sm, err := db.snapshotManager()
	if err != nil {
		return nil, err
	}
	return sm.Snapshots(), nil
}

// ExpireSnapshots runs the background deletion pass, reclaiming pages and
// snapshots whose retention ended.
func (db *Database) ExpireSnapshots(ctx context.Context) (int, error) {
	sm, err := db.snapshotManager()
	if err != nil {
		return 0, err
	}
	return sm.Expire(ctx)
}

// RestoreSnapshot performs point-in-time restore to snapshot id: the catalog
// reverts to the snapshot's image and every object key allocated after the
// snapshot is garbage collected (a single range, thanks to key
// monotonicity). There must be no active transactions.
func (db *Database) RestoreSnapshot(ctx context.Context, id uint64) error {
	sm, err := db.snapshotManager()
	if err != nil {
		return err
	}
	if n := db.mgr.ActiveCount(); n != 0 {
		return fmt.Errorf("cloudiq: restore with %d active transactions", n)
	}
	info, catImg, sysImg, err := sm.Restore(ctx, id)
	if err != nil {
		return err
	}
	cat, err := catalog.Unmarshal(catImg)
	if err != nil {
		return err
	}
	sys, err := decodeImage[sysImage]("snapshot system image", sysImg)
	if err != nil {
		return err
	}
	db.mu.Lock()
	var clouds []core.Dbspace
	for _, ds := range db.spaces {
		if ds.IsCloud() {
			clouds = append(clouds, ds)
		}
	}
	db.mu.Unlock()
	// Walk the dbspaces in name order: the pre-restore liveness walks issue
	// simulated I/O, so their order is part of the deterministic schedule.
	sort.Slice(clouds, func(i, j int) bool { return clouds[i].Name() < clouds[j].Name() })
	// What the pre-restore catalog reaches, per cloud dbspace — computed
	// before any deletion, while its blockmaps are still readable. Pages
	// reachable now but not from the restored catalog (and not retained for
	// another snapshot) become garbage the moment the catalog is swapped:
	// mostly pages a transaction flushed before the snapshot was taken but
	// committed after it.
	preLive := make([]*rfrb.Bitmap, len(clouds))
	for i, ds := range clouds {
		live, err := liveCloudKeys(ctx, db.cat, ds)
		if err != nil {
			return fmt.Errorf("cloudiq: pre-restore walk of %s: %w", ds.Name(), err)
		}
		preLive[i] = live
	}
	// Retire keys allocated after the snapshot across every cloud dbspace.
	// They leave the restored catalog's reach, but other snapshots taken
	// later may still reference them, so they go through the §5 retention
	// discipline rather than being deleted outright.
	gcRange := snapshot.PostRestoreRange(info.MaxKey, db.gen.MaxAllocated())
	if gcRange.Len() > 0 {
		for _, ds := range clouds {
			if err := sm.Retire(ctx, ds.Name(), gcRange); err != nil {
				return fmt.Errorf("cloudiq: post-restore GC on %s: %w", ds.Name(), err)
			}
		}
	}
	// Everything the retention record above covers is now scheduled for
	// deletion, including allocated-but-unconsumed keys sitting in cached
	// allocation ranges. Burn them: a key vended from a pre-restore chunk
	// would be deleted under a future commit when the retention ends.
	for _, ds := range clouds {
		if cds, ok := ds.(*core.CloudDbspace); ok {
			cds.DiscardKeyCache()
		}
	}
	for _, node := range db.gen.Nodes() {
		db.gen.ReleaseNode(node)
	}
	db.mu.Lock()
	db.cat = cat
	db.mu.Unlock()
	// The delta registry reverts with the catalog: rows inserted after the
	// snapshot vanish, residual rows the snapshot captured come back.
	if err := db.delta.Restore(sys.Delta); err != nil {
		return err
	}
	for i, ds := range clouds {
		postLive, err := liveCloudKeys(ctx, cat, ds)
		if err != nil {
			return fmt.Errorf("cloudiq: post-restore walk of %s: %w", ds.Name(), err)
		}
		// The restore may have made retired page versions reachable again:
		// pull them off the retention records and the committed chain's
		// pending retirements, or background deletion would reclaim pages
		// the restored catalog references once their retention ends.
		if err := sm.Unretire(ctx, ds.Name(), postLive); err != nil {
			return fmt.Errorf("cloudiq: un-retire on %s: %w", ds.Name(), err)
		}
		db.mgr.PruneRetirements(ds.Name(), postLive)
		// Conversely, pages only the pre-restore catalog reached are expired
		// versions now; retire them too.
		dead := preLive[i]
		for _, r := range postLive.Ranges() {
			dead.Remove(r.Start, r.End)
		}
		for _, r := range sm.Retained(ds.Name()).Ranges() {
			dead.Remove(r.Start, r.End)
		}
		for _, r := range dead.Ranges() {
			if err := sm.Retire(ctx, ds.Name(), r); err != nil {
				return fmt.Errorf("cloudiq: post-restore sweep on %s: %w", ds.Name(), err)
			}
		}
	}
	// Seal the restore with a checkpoint. Replay resumes from the last
	// checkpoint record, so without one a crash would replay commits made
	// after the snapshot was taken, resurrecting tables and rows the restore
	// removed — and whose pages the post-restore GC above already deleted.
	if err := db.mgr.Checkpoint(ctx); err != nil {
		return fmt.Errorf("cloudiq: post-restore checkpoint: %w", err)
	}
	return nil
}
