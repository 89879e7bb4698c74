package cloudiq

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math"
	"sort"
	"sync"

	"cloudiq/internal/buffer"
	"cloudiq/internal/core"
	"cloudiq/internal/delta"
	"cloudiq/internal/table"
	"cloudiq/internal/trace"
	"cloudiq/internal/txn"
	"cloudiq/internal/wal"
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

func (tx *Tx) codec() buffer.Codec {
	if tx.db.cfg.Compress {
		return buffer.FlateCodec{}
	}
	return nil
}

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
	obj := tx.db.pool.OpenObject(ds, bm, tx.inner.Sink(space), tx.codec())
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
	obj := tx.db.pool.OpenObject(ds, bm, tx.inner.Sink(space), tx.codec())
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
	obj := tx.db.pool.OpenObject(ds, bm, nil, tx.codec())
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
// lane. The rows must carry the table's full schema. At commit they are
// logged as a RecDeltaInsert record (their durable home until the compactor
// drains them into encoded column pages) and become visible, with the
// commit's sequence, to every later snapshot. The table must already exist
// (committed, or created earlier in this transaction).
func (tx *Tx) Insert(ctx context.Context, name string, b *table.Batch) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if b == nil || b.Rows() == 0 {
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
	}
	if len(dst.Vecs) != len(b.Vecs) {
		return fmt.Errorf("cloudiq: insert into %q: batch has %d columns, earlier insert had %d", name, len(b.Vecs), len(dst.Vecs))
	}
	for r := 0; r < b.Rows(); r++ {
		for c := range dst.Vecs {
			dst.Vecs[c].Append(b.Vecs[c], r)
		}
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
// the commit record (with the catalog publications) is logged, and the new
// identities are published atomically.
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
	var pubs []catalogPublication
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
		pubs = append(pubs, catalogPublication{Name: n, ID: id, DeltaThrough: tx.compact[n]})
	}
	for _, d := range tx.dropped {
		pubs = append(pubs, catalogPublication{Name: d.name, Dropped: true})
	}
	insNames := make([]string, 0, len(tx.inserts))
	for n := range tx.inserts {
		insNames = append(insNames, n)
	}
	sort.Strings(insNames)
	tx.mu.Unlock()

	// Delta rows are durable in the log, not in pages: append their records
	// before the commit record. A crash between the two leaves orphans that
	// replay ignores; a failed append rolls the transaction back whole.
	for _, n := range insNames {
		payload, err := delta.EncodeInsert(delta.InsertRecord{TxnID: tx.inner.ID(), Table: n, Rows: tx.inserts[n]})
		if err != nil {
			return err
		}
		if _, err := tx.db.log.Append(ctx, wal.RecDeltaInsert, payload); err != nil {
			if rbErr := tx.Rollback(ctx); rbErr != nil {
				return fmt.Errorf("cloudiq: log delta insert for %q failed (%v); rollback also failed: %w", n, err, rbErr)
			}
			return fmt.Errorf("cloudiq: rolled back: %w", err)
		}
	}

	var meta []byte
	if len(pubs) > 0 {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(pubs); err != nil {
			return fmt.Errorf("cloudiq: encode publications: %w", err)
		}
		meta = buf.Bytes()
	}
	return tx.db.mgr.Commit(ctx, tx.inner, meta, func(seq uint64) error {
		for _, p := range pubs {
			if err := tx.db.applyPublication(p, seq); err != nil {
				return err
			}
		}
		for _, n := range insNames {
			tx.db.delta.Apply(n, tx.inserts[n], seq)
		}
		return nil
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
