package cloudiq

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"cloudiq/internal/buffer"
	"cloudiq/internal/core"
	"cloudiq/internal/delta"
	"cloudiq/internal/table"
	"cloudiq/internal/trace"
	"cloudiq/internal/txn"
)

// blockmapFanout is the fanout of every table's blockmap tree.
const blockmapFanout = 64

// Tx is a transaction with snapshot isolation. Readers see the catalog as of
// the transaction's begin; writers stage new table versions that become
// visible atomically at commit. A Tx is not safe for concurrent use, except
// that table loads may call Append from multiple goroutines.
type Tx struct {
	db    *Database
	inner *txn.Txn

	mu       sync.Mutex
	writable map[string]*openTable
	dropped  []droppedTable
	inserts  map[string]*table.Batch // staged delta rows per table
	compact  map[string]uint64       // delta through-marks per table (compaction txns)

	// gates are the compaction gates this transaction holds shared, one per
	// table it appends to or drops, released at commit or rollback. While
	// held they keep the compactor's identity swap from interleaving with
	// this transaction's own publication of the same table. noGate marks
	// the drain transaction itself, which holds its gate exclusively.
	gates  map[string]*tableGate
	noGate bool
}

type openTable struct {
	tbl   *table.Table
	obj   *buffer.Object
	space string
}

// drop marks a table dropped by this transaction.
type droppedTable struct {
	name  string
	space string
}

// Begin starts a transaction.
func (db *Database) Begin() *Tx {
	return &Tx{db: db, inner: db.mgr.Begin(), writable: make(map[string]*openTable)}
}

// Snapshot returns the commit sequence this transaction reads as of.
func (tx *Tx) Snapshot() uint64 { return tx.inner.Snapshot() }

// lockAppend takes the table's compaction gate shared for the rest of the
// transaction, waiting out an in-flight compaction swap so the catalog
// lookup that follows sees the post-swap identity. Callers hold tx.mu.
func (tx *Tx) lockAppend(name string) {
	if tx.noGate {
		return
	}
	if _, held := tx.gates[name]; held {
		return
	}
	g := tx.db.appendGate(name)
	g.enterShared()
	if tx.gates == nil {
		tx.gates = make(map[string]*tableGate)
	}
	tx.gates[name] = g
}

// releaseGates drops every held compaction gate; safe to call twice (commit
// failure paths roll back internally before returning).
func (tx *Tx) releaseGates() {
	tx.mu.Lock()
	gates := tx.gates
	tx.gates = nil
	tx.mu.Unlock()
	for _, g := range gates {
		g.leaveShared()
	}
}

// CreateTable creates a table in the named dbspace. The new table is visible
// to other transactions only after Commit.
func (tx *Tx) CreateTable(ctx context.Context, space, name string, schema table.Schema, opts table.Options) (*table.Table, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if _, exists := tx.db.cat.Lookup(name, math.MaxUint64); exists {
		return nil, fmt.Errorf("cloudiq: table %q already exists", name)
	}
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if _, dup := tx.writable[name]; dup {
		return nil, fmt.Errorf("cloudiq: table %q already created in this transaction", name)
	}
	ds, err := tx.db.space(space)
	if err != nil {
		return nil, err
	}
	bm, err := core.NewBlockmap(ds, blockmapFanout)
	if err != nil {
		return nil, err
	}
	obj := tx.db.pool.OpenObject(ds, bm, tx.inner.Sink(space))
	tbl, err := table.Create(name, obj, schema, opts)
	if err != nil {
		return nil, err
	}
	tx.writable[name] = &openTable{tbl: tbl, obj: obj, space: space}
	return tbl, nil
}

// OpenTableForAppend opens the latest version of a table for appending.
// Concurrent writers to the same table are not detected (the engine follows
// the paper's model of partitioned write responsibility across nodes).
func (tx *Tx) OpenTableForAppend(ctx context.Context, space, name string) (*table.Table, error) {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if ot, ok := tx.writable[name]; ok {
		return ot.tbl, nil
	}
	tx.lockAppend(name)
	id, ok := tx.db.cat.Lookup(name, math.MaxUint64)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	ds, err := tx.db.space(space)
	if err != nil {
		return nil, err
	}
	bm, err := core.OpenBlockmap(ds, id)
	if err != nil {
		return nil, err
	}
	obj := tx.db.pool.OpenObject(ds, bm, tx.inner.Sink(space))
	tbl, err := table.Open(ctx, name, obj, true)
	if err != nil {
		return nil, err
	}
	tx.writable[name] = &openTable{tbl: tbl, obj: obj, space: space}
	return tbl, nil
}

// Table opens a table read-only at this transaction's snapshot. When the
// snapshot can see trickle-inserted rows still in the delta store, a delta
// view is attached so scans merge them with the encoded segments (and
// pushdown planning falls back to plain local reads).
func (tx *Tx) Table(ctx context.Context, space, name string) (*table.Table, error) {
	id, ok := tx.db.cat.Lookup(name, tx.inner.Snapshot())
	if !ok {
		return nil, fmt.Errorf("%w: %q at snapshot %d", ErrNoSuchTable, name, tx.inner.Snapshot())
	}
	ds, err := tx.db.space(space)
	if err != nil {
		return nil, err
	}
	bm, err := core.OpenBlockmap(ds, id)
	if err != nil {
		return nil, err
	}
	obj := tx.db.pool.OpenObject(ds, bm, nil)
	tbl, err := table.Open(ctx, name, obj, false)
	if err != nil {
		return nil, err
	}
	if v := tx.db.delta.View(name, tx.inner.Snapshot()); v != nil {
		tbl.AttachDelta(v)
	}
	return tbl, nil
}

// Insert stages rows into the table's in-memory delta store — the trickle
// lane. The rows must carry the table's full schema. At commit they ride
// the commit record (their durable home until the compactor drains them
// into encoded column pages) and become visible, with the commit's
// sequence, to every later snapshot. The table must already exist
// (committed, or created earlier in this transaction).
func (tx *Tx) Insert(ctx context.Context, name string, b *table.Batch) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if b == nil {
		return nil
	}
	if err := b.Schema.Check(b); err != nil {
		return fmt.Errorf("cloudiq: insert into %q: %w", name, err)
	}
	if b.Rows() == 0 {
		return nil
	}
	tx.mu.Lock()
	defer tx.mu.Unlock()
	for _, d := range tx.dropped {
		if d.name == name {
			return fmt.Errorf("cloudiq: insert into %q: dropped in this transaction", name)
		}
	}
	if ot, staged := tx.writable[name]; staged {
		if got, want := len(b.Vecs), len(ot.tbl.Schema().Cols); got != want {
			return fmt.Errorf("cloudiq: insert into %q: batch has %d columns, schema %d", name, got, want)
		}
	} else if _, ok := tx.db.cat.Lookup(name, math.MaxUint64); !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	if tx.inserts == nil {
		tx.inserts = make(map[string]*table.Batch)
	}
	dst, ok := tx.inserts[name]
	if !ok {
		dst = table.NewBatch(b.Schema)
		tx.inserts[name] = dst
	} else if err := dst.Schema.Check(b); err != nil {
		return fmt.Errorf("cloudiq: insert into %q: earlier insert differs: %w", name, err)
	}
	for c, v := range dst.Vecs {
		v.AppendRange(b.Vecs[c], 0, b.Rows())
	}
	return nil
}

// markCompacted records that this transaction's commit retires the table's
// delta rows below through (the compaction drain path).
func (tx *Tx) markCompacted(name string, through uint64) {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.compact == nil {
		tx.compact = make(map[string]uint64)
	}
	tx.compact[name] = through
}

// DropTable drops the latest version of a table: every physical page it
// owns — data pages, blockmap pages, index and meta pages — is recorded in
// the transaction's RF bitmap and retired when this version expires under
// MVCC, exactly as superseded pages are. The drop becomes visible at commit.
func (tx *Tx) DropTable(ctx context.Context, space, name string) error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if _, staged := tx.writable[name]; staged {
		return fmt.Errorf("cloudiq: cannot drop %q: created or modified in this transaction", name)
	}
	if _, staged := tx.inserts[name]; staged {
		return fmt.Errorf("cloudiq: cannot drop %q: rows inserted in this transaction", name)
	}
	tx.lockAppend(name)
	id, ok := tx.db.cat.Lookup(name, math.MaxUint64)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	ds, err := tx.db.space(space)
	if err != nil {
		return err
	}
	bm, err := core.OpenBlockmap(ds, id)
	if err != nil {
		return err
	}
	sink := tx.inner.Sink(space)
	if err := bm.ForEachPhysical(ctx, func(e core.Entry) error {
		sink.NoteFreed(e)
		return nil
	}); err != nil {
		return fmt.Errorf("cloudiq: drop %q: %w", name, err)
	}
	tx.dropped = append(tx.dropped, droppedTable{name: name, space: space})
	return nil
}

// Tables lists the tables visible to this transaction.
func (tx *Tx) Tables() []string { return tx.db.cat.Names(tx.inner.Snapshot()) }

// Commit makes the transaction durable: every staged table flushes its
// dirty pages (write-through), blockmap cascades version up to fresh roots,
// the commit record (with the catalog publications and the inserted rows) is
// logged, and the new identities and rows are published atomically.
func (tx *Tx) Commit(ctx context.Context) error {
	ctx, sp := trace.Root(ctx, tx.db.cfg.Trace, "txn.commit", trace.Int("txn", int64(tx.inner.ID())))
	defer sp.End()
	defer tx.releaseGates()
	tx.mu.Lock()
	names := make([]string, 0, len(tx.writable))
	for n := range tx.writable {
		names = append(names, n)
	}
	sort.Strings(names)
	var m commitMeta
	for _, n := range names {
		ot := tx.writable[n]
		id, err := ot.tbl.Commit(ctx)
		if err != nil {
			tx.mu.Unlock()
			if rbErr := tx.Rollback(ctx); rbErr != nil {
				return fmt.Errorf("cloudiq: commit of %q failed (%v); rollback also failed: %w", n, err, rbErr)
			}
			return fmt.Errorf("cloudiq: rolled back: %w", err)
		}
		m.pubs = append(m.pubs, catalogPublication{Name: n, ID: id, DeltaThrough: tx.compact[n]})
	}
	for _, d := range tx.dropped {
		m.pubs = append(m.pubs, catalogPublication{Name: d.name, Dropped: true})
	}
	for n, rows := range tx.inserts {
		m.inserts = append(m.inserts, delta.InsertRecord{Table: n, Rows: rows})
	}
	slices.SortFunc(m.inserts, func(a, b delta.InsertRecord) int { return strings.Compare(a.Table, b.Table) })
	tx.mu.Unlock()

	// The rows ride the commit record: they are durable exactly when the
	// commit is, in the one log append that makes it so.
	meta, err := m.marshal()
	if err != nil {
		return err
	}
	return tx.db.mgr.Commit(ctx, tx.inner, meta, func(seq uint64) error {
		return tx.db.applyCommit(m, seq)
	})
}

// Rollback aborts the transaction: cached dirty pages are discarded and
// everything the transaction allocated on permanent storage is reclaimed.
func (tx *Tx) Rollback(ctx context.Context) error {
	tx.mu.Lock()
	for _, ot := range tx.writable {
		ot.obj.Discard()
	}
	tx.writable = make(map[string]*openTable)
	tx.inserts = nil // staged delta rows die with the transaction
	tx.mu.Unlock()
	tx.releaseGates()
	return tx.db.mgr.Rollback(ctx, tx.inner)
}
