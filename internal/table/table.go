package table

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"sort"
	"sync"

	"cloudiq/internal/buffer"
	"cloudiq/internal/column"
	"cloudiq/internal/core"
	"cloudiq/internal/objstore"
)

const (
	// A table's logical pages are one dense range: the meta page, then one
	// page per (segment, column). The blockmap's depth follows the highest
	// page, so nothing may live in a sparse region above the data.
	metaPage = 0
	dataBase = 1

	// DefaultSegRows is the default segment size in rows.
	DefaultSegRows = 4096
)

// SegMeta describes one sealed segment.
type SegMeta struct {
	Rows      int
	Partition int
	Zones     []column.ZoneMap // one per schema column
}

// meta is the gob-encoded table descriptor stored in page 0.
type meta struct {
	Schema     Schema
	SegRows    int
	PartCol    int // -1 when unpartitioned
	PartBounds []int64
	Segs       []SegMeta
	TotalRows  int64
}

// Options configures table creation.
type Options struct {
	// SegRows is the segment size; zero selects DefaultSegRows.
	SegRows int
	// PartitionCol, if non-empty, names an Int64 column to range-partition
	// on with the given ascending bounds: partition i holds values ≤
	// Bounds[i], the last partition holds the rest.
	PartitionCol    string
	PartitionBounds []int64
}

// DeltaView is a snapshot of a table's in-memory delta rows (trickle
// inserts not yet compacted into column segments). The engine attaches one
// to read-only tables whose snapshot can see delta rows; scans merge the
// batch after the encoded segments, and pushdown planning refuses to push
// work store-side while a view is attached — the store only holds the
// columnar main, so a pushed result would silently miss the delta rows.
type DeltaView interface {
	// DeltaBatch returns the visible delta rows in the table's full schema.
	DeltaBatch() *Batch
}

// Table is a columnar table stored as pages of one buffer.Object. Writable
// tables (opened with a transaction sink) support Append and Commit;
// read-only tables support scans.
type Table struct {
	obj  *buffer.Object
	name string

	mu       sync.Mutex
	meta     meta
	writable bool
	builders map[int]*Batch // open (unsealed) segment per partition
	delta    DeltaView      // nil when no delta rows are visible
}

// Create makes an empty writable table whose pages live in obj.
func Create(name string, obj *buffer.Object, schema Schema, opts Options) (*Table, error) {
	if opts.SegRows <= 0 {
		opts.SegRows = DefaultSegRows
	}
	if opts.SegRows > column.MaxSegmentRows {
		return nil, fmt.Errorf("table %s: segment size %d exceeds %d rows", name, opts.SegRows, column.MaxSegmentRows)
	}
	m := meta{Schema: schema, SegRows: opts.SegRows, PartCol: -1}
	if opts.PartitionCol != "" {
		i := schema.ColIndex(opts.PartitionCol)
		if i < 0 {
			return nil, fmt.Errorf("table %s: partition column %q not in schema", name, opts.PartitionCol)
		}
		if schema.Cols[i].Typ != column.Int64 {
			return nil, fmt.Errorf("table %s: partition column %q must be int64", name, opts.PartitionCol)
		}
		if !sort.SliceIsSorted(opts.PartitionBounds, func(a, b int) bool {
			return opts.PartitionBounds[a] < opts.PartitionBounds[b]
		}) {
			return nil, fmt.Errorf("table %s: partition bounds not ascending", name)
		}
		m.PartCol = i
		m.PartBounds = opts.PartitionBounds
	}
	t := &Table{
		obj:      obj,
		name:     name,
		meta:     m,
		writable: true,
		builders: make(map[int]*Batch),
	}
	return t, nil
}

// Open attaches to an existing table stored in obj (whose blockmap was
// opened from the table's identity). Writable reports whether the caller
// intends to append.
func Open(ctx context.Context, name string, obj *buffer.Object, writable bool) (*Table, error) {
	raw, err := obj.Read(ctx, metaPage)
	if err != nil {
		return nil, fmt.Errorf("table %s: read meta: %w", name, err)
	}
	var m meta
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&m); err != nil {
		return nil, fmt.Errorf("table %s: decode meta: %w", name, err)
	}
	t := &Table{
		obj:      obj,
		name:     name,
		meta:     m,
		writable: writable,
		builders: make(map[int]*Batch),
	}
	return t, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// AttachDelta installs (or, with nil, detaches) the delta view scans merge
// with the encoded segments.
func (t *Table) AttachDelta(v DeltaView) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.delta = v
}

// Delta returns the attached delta view, or nil.
func (t *Table) Delta() DeltaView {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.delta
}

// Schema returns the table schema.
func (t *Table) Schema() Schema { return t.meta.Schema }

// Rows returns the committed plus buffered row count.
func (t *Table) Rows() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.meta.TotalRows
	for _, b := range t.builders {
		n += int64(b.Rows())
	}
	return n
}

// Segments returns the number of sealed segments.
func (t *Table) Segments() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.meta.Segs)
}

// Identity returns the identity of the table's blockmap: the one the table
// was opened from or, after Commit, the one Commit returned.
func (t *Table) Identity() core.Identity { return t.obj.Blockmap().Identity() }

// SegRows returns the configured segment size.
func (t *Table) SegRows() int { return t.meta.SegRows }

// Seg returns the metadata of sealed segment i.
func (t *Table) Seg(i int) SegMeta {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.meta.Segs[i]
}

// partitionOf routes one partition-column value.
func (m *meta) partitionOf(v int64) int {
	for i, b := range m.PartBounds {
		if v <= b {
			return i
		}
	}
	return len(m.PartBounds)
}

// Append adds the batch's rows, sealing segments as they fill. The batch
// must match the schema.
func (t *Table) Append(ctx context.Context, b *Batch) error {
	if !t.writable {
		return fmt.Errorf("table %s: not writable", t.name)
	}
	if len(b.Vecs) != len(t.meta.Schema.Cols) {
		return fmt.Errorf("table %s: batch has %d columns, schema %d", t.name, len(b.Vecs), len(t.meta.Schema.Cols))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rows := b.Rows()
	for r := 0; r < rows; r++ {
		part := 0
		if t.meta.PartCol >= 0 {
			part = t.meta.partitionOf(b.Vecs[t.meta.PartCol].I64[r])
		}
		builder, ok := t.builders[part]
		if !ok {
			builder = NewBatch(t.meta.Schema)
			t.builders[part] = builder
		}
		for c := range builder.Vecs {
			builder.Vecs[c].Append(b.Vecs[c], r)
		}
		if builder.Rows() >= t.meta.SegRows {
			if err := t.sealLocked(ctx, part, builder); err != nil {
				return err
			}
			delete(t.builders, part)
		}
	}
	return nil
}

// sealLocked encodes and writes one full (or final partial) segment.
func (t *Table) sealLocked(ctx context.Context, part int, b *Batch) error {
	seg := len(t.meta.Segs)
	sm := SegMeta{Rows: b.Rows(), Partition: part, Zones: make([]column.ZoneMap, len(b.Vecs))}
	nCols := uint64(len(t.meta.Schema.Cols))
	for c, v := range b.Vecs {
		sm.Zones[c] = column.BuildZoneMap(v)
		page := dataBase + uint64(seg)*nCols + uint64(c)
		if err := t.obj.Write(ctx, page, column.EncodeSegment(v)); err != nil {
			return fmt.Errorf("table %s: seal segment %d column %d: %w", t.name, seg, c, err)
		}
	}
	t.meta.Segs = append(t.meta.Segs, sm)
	t.meta.TotalRows += int64(b.Rows())
	return nil
}

// Commit seals any open builders, persists the meta page, and flushes
// everything (write-through) returning the table's new identity for the
// catalog.
func (t *Table) Commit(ctx context.Context) (core.Identity, error) {
	if !t.writable {
		return core.Identity{}, fmt.Errorf("table %s: not writable", t.name)
	}
	t.mu.Lock()
	parts := make([]int, 0, len(t.builders))
	for p := range t.builders {
		parts = append(parts, p)
	}
	sort.Ints(parts)
	for _, p := range parts {
		b := t.builders[p]
		if b.Rows() == 0 {
			continue
		}
		if err := t.sealLocked(ctx, p, b); err != nil {
			t.mu.Unlock()
			return core.Identity{}, err
		}
	}
	t.builders = make(map[int]*Batch)

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&t.meta); err != nil {
		t.mu.Unlock()
		return core.Identity{}, fmt.Errorf("table %s: encode meta: %w", t.name, err)
	}
	t.mu.Unlock()
	if err := t.obj.Write(ctx, metaPage, buf.Bytes()); err != nil {
		return core.Identity{}, fmt.Errorf("table %s: write meta: %w", t.name, err)
	}
	id, err := t.obj.FlushForCommit(ctx)
	if err != nil {
		return core.Identity{}, fmt.Errorf("table %s: %w", t.name, err)
	}
	return id, nil
}

// ReadSegmentPages returns the stored pages of the requested columns of sealed
// segment seg, parallel to cols (schema positions), read in one batch, and the
// segment's row count. Every page is checked against the table's own
// description before any is decoded — its type is the schema column's, its
// count the segment's — so a caller may decode them in any order, or not all.
func (t *Table) ReadSegmentPages(ctx context.Context, seg int, cols []int) ([][]byte, int, error) {
	t.mu.Lock()
	if nSegs := len(t.meta.Segs); seg < 0 || seg >= nSegs {
		t.mu.Unlock()
		return nil, 0, fmt.Errorf("table %s: segment %d of %d", t.name, seg, nSegs)
	}
	rows := t.meta.Segs[seg].Rows
	t.mu.Unlock()
	nCols := uint64(len(t.meta.Schema.Cols))
	pages := make([]uint64, len(cols))
	for i, c := range cols {
		pages[i] = dataBase + uint64(seg)*nCols + uint64(c)
	}
	raws, err := t.obj.ReadBatch(ctx, pages)
	if err != nil {
		return nil, 0, fmt.Errorf("table %s: segment %d: %w", t.name, seg, err)
	}
	for i, c := range cols {
		def := t.meta.Schema.Cols[c]
		typ, n, err := column.SegmentInfo(raws[i])
		if err != nil {
			return nil, 0, fmt.Errorf("table %s: segment %d column %q: %w", t.name, seg, def.Name, err)
		}
		if typ != def.Typ || n != rows {
			return nil, 0, fmt.Errorf("table %s: segment %d column %q: page holds %d %v values, want %d %v",
				t.name, seg, def.Name, n, typ, rows, def.Typ)
		}
	}
	return raws, rows, nil
}

// ReadSegment returns the requested columns of sealed segment seg, decoded.
// cols are schema positions; the result batch's vectors align with cols.
func (t *Table) ReadSegment(ctx context.Context, seg int, cols []int) (*Batch, error) {
	raws, _, err := t.ReadSegmentPages(ctx, seg, cols)
	if err != nil {
		return nil, err
	}
	out := &Batch{Vecs: make([]*column.Vector, len(cols))}
	for i, c := range cols {
		out.Schema.Cols = append(out.Schema.Cols, t.meta.Schema.Cols[c])
		v, err := column.DecodeSegment(raws[i])
		if err != nil {
			return nil, fmt.Errorf("table %s: segment %d column %d: %w", t.name, seg, c, err)
		}
		out.Vecs[i] = v
	}
	return out, nil
}

// SelectSegment evaluates plan store-side against sealed segment seg's
// column pages via the object store's compute endpoint, returning only the
// qualifying bytes (or partial aggregate states). cols are schema positions;
// they name every column the plan may reference. Errors wrapping
// buffer.ErrNoPushdown (or any other failure) mean the caller must fall back
// to ReadSegment — the plain path always works.
func (t *Table) SelectSegment(ctx context.Context, seg int, cols []int, plan objstore.SelectPlan) (*objstore.SelectResult, error) {
	t.mu.Lock()
	nSegs := len(t.meta.Segs)
	t.mu.Unlock()
	if seg < 0 || seg >= nSegs {
		return nil, fmt.Errorf("table %s: segment %d of %d", t.name, seg, nSegs)
	}
	nCols := uint64(len(t.meta.Schema.Cols))
	pages := make([]buffer.NamedPage, len(cols))
	for i, c := range cols {
		pages[i] = buffer.NamedPage{
			Name:    t.meta.Schema.Cols[c].Name,
			Logical: dataBase + uint64(seg)*nCols + uint64(c),
		}
	}
	res, err := t.obj.Select(ctx, pages, plan)
	if err != nil {
		return nil, fmt.Errorf("table %s: segment %d: %w", t.name, seg, err)
	}
	return res, nil
}

// PrefetchSegments schedules asynchronous loads of the given segments'
// column pages — the parallel-I/O path that masks object-store latency.
func (t *Table) PrefetchSegments(ctx context.Context, segs []int, cols []int) {
	nCols := uint64(len(t.meta.Schema.Cols))
	var pages []uint64
	for _, s := range segs {
		for _, c := range cols {
			pages = append(pages, dataBase+uint64(s)*nCols+uint64(c))
		}
	}
	t.obj.Prefetch(ctx, pages)
}
