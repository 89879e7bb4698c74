package exec

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"cloudiq/internal/column"
	"cloudiq/internal/expr"
	"cloudiq/internal/table"
	"cloudiq/internal/trace"
)

// Source streams batches; Next returns (nil, nil) at end of stream.
type Source interface {
	Next(ctx context.Context) (*table.Batch, error)
}

// ScanOptions tunes a table scan.
type ScanOptions struct {
	// Filter, if non-nil, is applied to every segment batch; segments whose
	// zone maps show that no row can pass it are skipped before any I/O.
	Filter Expr
	// Prefetch is the segment read-ahead window. Zero selects 4; a
	// negative value disables read-ahead entirely, making the scan fully
	// synchronous (deterministic simulation harnesses rely on this).
	Prefetch int
	// Pushdown lets the scan evaluate Filter inside the object store's
	// compute endpoint, per segment, returning only qualifying rows. Off by
	// default; results are identical in every mode (failed pushdowns fall
	// back to plain reads).
	Pushdown PushdownMode
}

type scanSource struct {
	tbl      *table.Table
	cols     []int
	colNames []string
	schema   table.Schema // the projection: cols as column definitions
	filtered []bool       // parallel to cols: whether opts.Filter reads the column
	opts     ScanOptions
	segs     []int // surviving segments after zone pruning
	pos      int
	fetched  int

	push      []bool // per-segment pushdown decision, parallel to segs
	emitted   bool   // whether any batch has been returned yet
	deltaDone bool   // whether the delta merge batch was emitted
}

// Scan streams the named columns of t, pruning segments by zone maps and
// prefetching ahead of the consumer — the paper's parallel-I/O recipe for
// masking object-store latency.
func Scan(t *table.Table, cols []string, opts ScanOptions) (Source, error) {
	s := &scanSource{tbl: t, colNames: cols, opts: opts}
	s.schema.Cols = make([]table.ColumnDef, 0, len(cols)) // shared by every batch: no spare capacity
	if s.opts.Prefetch == 0 {
		s.opts.Prefetch = 4
	}
	if s.opts.Prefetch < 0 {
		s.opts.Prefetch = 0 // synchronous: no read-ahead window
	}
	for _, name := range cols {
		i := t.Schema().ColIndex(name)
		if i < 0 {
			return nil, fmt.Errorf("exec: scan of %s: no column %q", t.Name(), name)
		}
		s.cols = append(s.cols, i)
		s.schema.Cols = append(s.schema.Cols, t.Schema().Cols[i])
	}
	s.filtered = make([]bool, len(cols))
	markCols(opts.Filter, cols, s.filtered)
	for seg := 0; seg < t.Segments(); seg++ {
		if mayMatch(opts.Filter, t.Schema(), t.Seg(seg).Zones) {
			s.segs = append(s.segs, seg)
		}
	}
	s.planPushdown()
	return s, nil
}

func (s *scanSource) Next(ctx context.Context) (*table.Batch, error) {
	if s.pos >= len(s.segs) {
		// After the encoded segments, merge in the table's delta rows (the
		// trickle inserts visible to this snapshot but not yet compacted).
		// Zone pruning never applies to them — they carry no zone maps —
		// but the row filter does, so the merged stream is exactly what a
		// scan over a compacted table would produce.
		if !s.deltaDone {
			s.deltaDone = true
			b, err := s.deltaBatch()
			if err != nil {
				return nil, err
			}
			if b != nil {
				s.emitted = true
				return b, nil
			}
		}
		// A scan that pruned (or never had) every segment still yields one
		// typed empty batch: downstream operators need the schema to type
		// their output, exactly as a filter that removed every row leaves
		// behind. Without this, an all-pruned scan diverged from the
		// equivalent unpruned-but-fully-filtered one.
		if !s.emitted {
			s.emitted = true
			return s.emptyBatch(), nil
		}
		return nil, nil
	}
	// A scan is a schedulable unit: between segments it offers its
	// reader slot back to whatever scheduler runs it, so one long scan
	// cannot starve a priority lane.
	if err := YieldPoint(ctx); err != nil {
		return nil, err
	}
	// Keep the read-ahead window full. Segments headed for pushdown are
	// skipped: prefetching would pull whole column pages into the cache
	// that the select path never reads.
	if s.fetched < s.pos+s.opts.Prefetch && s.fetched < len(s.segs) {
		pctx, psp := trace.Start(ctx, "scan.prefetch",
			trace.String("table", s.tbl.Name()), trace.Int("from", int64(s.fetched)))
		n := 0
		for s.fetched < s.pos+s.opts.Prefetch && s.fetched < len(s.segs) {
			if s.push == nil || !s.push[s.fetched] {
				s.tbl.PrefetchSegments(pctx, []int{s.segs[s.fetched]}, s.cols)
				n++
			}
			s.fetched++
		}
		psp.AddInt("segments", int64(n))
		psp.End()
	}
	rctx, rsp := trace.Start(ctx, "scan.segment",
		trace.String("table", s.tbl.Name()), trace.Int("seg", int64(s.segs[s.pos])))
	var b *table.Batch
	var err error
	pushed := false
	if s.push != nil && s.push[s.pos] {
		b, err = s.pushSegment(rctx, s.segs[s.pos])
		if err == nil {
			pushed = true
			rsp.AddInt("pushdown", 1)
		} else {
			// Every pushdown failure — store without the capability,
			// unsupported plan, injected fault, dirty page — degrades to
			// the plain read path below.
			rsp.SetAttr("fallback", err.Error())
		}
	}
	if !pushed {
		// Empty filtered batches are still returned: their schema lets
		// downstream operators (joins, aggregations) type their output
		// even when every row was filtered out.
		b, err = s.readSegment(rctx, s.segs[s.pos])
		if err != nil {
			rsp.SetAttr("err", err.Error())
			rsp.End()
			return nil, err
		}
	}
	rsp.AddInt("rows", int64(b.Rows()))
	rsp.End()
	s.pos++
	s.emitted = true
	return b, nil
}

// markCols sets in[i] for every cols[i] the tree e references.
func markCols(e Expr, cols []string, in []bool) {
	if e == nil {
		return
	}
	if i := slices.Index(cols, e.Col); e.Op == expr.OpCol && i >= 0 {
		in[i] = true
	}
	for _, a := range e.Args {
		markCols(a, cols, in)
	}
}

// segEnv is a partly decoded segment as an expression environment: the row
// count is the segment's, and a column not decoded yet is absent.
type segEnv struct {
	b    *table.Batch
	rows int
}

func (e segEnv) Rows() int { return e.rows }

func (e segEnv) Vec(name string) *column.Vector { return e.b.Vec(name) }

// readSegment is the scan's one read-and-decode path for a segment that was
// not pushed down, filter first: all requested pages are read in one batch,
// the columns the filter reads are decoded and narrowed to a selection, and
// only then are the other columns decoded, at the selected rows. With no
// filter every row is selected and every column decoded whole.
func (s *scanSource) readSegment(ctx context.Context, seg int) (*table.Batch, error) {
	pages, rows, err := s.tbl.ReadSegmentPages(ctx, seg, s.cols)
	if err != nil {
		return nil, err
	}
	b := &table.Batch{Schema: s.schema, Vecs: make([]*column.Vector, len(s.cols))}
	decode := func(i int, sel []int32) (err error) {
		if sel == nil {
			b.Vecs[i], err = column.DecodeSegment(pages[i])
		} else {
			b.Vecs[i], err = column.DecodeSegmentRows(pages[i], sel)
		}
		if err != nil {
			err = fmt.Errorf("exec: scan of %s: segment %d column %q: %w", s.tbl.Name(), seg, s.colNames[i], err)
		}
		return err
	}
	var sel []int32 // nil selects every row: decode whole, gather nothing
	if s.opts.Filter != nil {
		for i, f := range s.filtered {
			if f {
				if err := decode(i, nil); err != nil {
					return nil, err
				}
			}
		}
		if sel, err = s.opts.Filter.Select(segEnv{b, rows}, expr.AllRows(rows)); err != nil {
			return nil, fmt.Errorf("exec: filter: %w", err)
		}
		switch len(sel) {
		case 0:
			return s.emptyBatch(), nil
		case rows:
			sel = nil
		}
	}
	for i, v := range b.Vecs {
		switch {
		case v == nil:
			if err := decode(i, sel); err != nil {
				return nil, err
			}
		case sel != nil:
			b.Vecs[i] = v.Gather(sel)
		}
	}
	return b, nil
}

// deltaBatch projects the scan's columns out of the table's attached delta
// view and applies the row filter, returning nil when there is no view (or
// it is empty).
func (s *scanSource) deltaBatch() (*table.Batch, error) {
	dv := s.tbl.Delta()
	if dv == nil {
		return nil, nil
	}
	full := dv.DeltaBatch()
	if full == nil || full.Rows() == 0 {
		return nil, nil
	}
	b := &table.Batch{Schema: s.schema, Vecs: make([]*column.Vector, len(s.cols))}
	for i, c := range s.cols {
		b.Vecs[i] = full.Vecs[c]
	}
	if s.opts.Filter != nil {
		return FilterBatch(b, s.opts.Filter)
	}
	return b, nil
}

// SliceSource feeds pre-materialized batches as a Source.
func SliceSource(batches ...*table.Batch) Source {
	return &sliceSource{batches: batches}
}

type sliceSource struct {
	batches []*table.Batch
	pos     int
}

func (s *sliceSource) Next(ctx context.Context) (*table.Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.pos >= len(s.batches) {
		return nil, nil
	}
	b := s.batches[s.pos]
	s.pos++
	return b, nil
}

// drain reads src to its end and returns the batches that carry a schema
// (a schemaless empty batch adds nothing to any consumer).
func drain(ctx context.Context, src Source) ([]*table.Batch, error) {
	var bs []*table.Batch
	for {
		b, err := src.Next(ctx)
		if err != nil {
			return nil, err
		}
		if b == nil {
			return bs, nil
		}
		if len(b.Vecs) > 0 {
			bs = append(bs, b)
		}
	}
}

// concat copies the batches, which share a schema, into one new batch: each
// column is sized once and filled a whole vector at a time.
func concat(bs []*table.Batch) *table.Batch {
	if len(bs) == 0 {
		return &table.Batch{}
	}
	rows := 0
	for _, b := range bs {
		rows += b.Rows()
	}
	out := &table.Batch{Schema: bs[0].Schema, Vecs: make([]*column.Vector, len(bs[0].Vecs))}
	for i, v := range bs[0].Vecs {
		nv := column.NewVector(v.Typ)
		nv.Grow(rows)
		for _, b := range bs {
			nv.AppendVector(b.Vecs[i])
		}
		out.Vecs[i] = nv
	}
	return out
}

// Collect drains src into one batch. The result shares no storage with the
// source's batches.
func Collect(ctx context.Context, src Source) (*table.Batch, error) {
	bs, err := drain(ctx, src)
	if err != nil {
		return nil, err
	}
	return concat(bs), nil
}

// FilterBatch returns the rows of b where pred is non-zero: b itself when
// every row passes, else a new batch (typed, possibly empty).
func FilterBatch(b *table.Batch, pred Expr) (*table.Batch, error) {
	if err := checkRows(b); err != nil {
		return nil, err
	}
	sel, err := pred.Select(b, expr.AllRows(b.Rows()))
	if err != nil {
		return nil, fmt.Errorf("exec: filter: %w", err)
	}
	if len(sel) == b.Rows() {
		return b, nil
	}
	return gatherBatch(b, sel), nil
}

// gatherBatch returns a new batch of b's rows at the given row numbers.
func gatherBatch(b *table.Batch, rows []int32) *table.Batch {
	out := &table.Batch{Schema: b.Schema, Vecs: make([]*column.Vector, len(b.Vecs))}
	for i, v := range b.Vecs {
		out.Vecs[i] = v.Gather(rows)
	}
	return out
}

// checkRows refuses a batch whose rows an int32 cannot number: selections
// and the hash operators' row lists are int32.
func checkRows(b *table.Batch) error {
	if b.Rows() > math.MaxInt32 {
		return fmt.Errorf("exec: batch of %d rows exceeds 2^31-1", b.Rows())
	}
	return nil
}

// NamedExpr pairs an output column name with its expression.
type NamedExpr struct {
	Name string
	Expr Expr
}

// Project evaluates the expressions over b into a new batch.
func Project(b *table.Batch, exprs []NamedExpr) (*table.Batch, error) {
	out := &table.Batch{}
	for _, ne := range exprs {
		v, err := ne.Expr.Eval(b)
		if err != nil {
			return nil, fmt.Errorf("exec: project %s: %w", ne.Name, err)
		}
		out.Schema.Cols = append(out.Schema.Cols, table.ColumnDef{Name: ne.Name, Typ: v.Typ})
		out.Vecs = append(out.Vecs, v)
	}
	return out, nil
}

// --- joins and grouping ---

// keyCols resolves the named key columns of b.
func keyCols(b *table.Batch, names []string) ([]*column.Vector, error) {
	if err := checkRows(b); err != nil {
		return nil, err
	}
	vecs := make([]*column.Vector, len(names))
	for i, n := range names {
		ci := b.Schema.ColIndex(n)
		if ci < 0 {
			return nil, fmt.Errorf("exec: key column %q missing", n)
		}
		vecs[i] = b.Vecs[ci]
	}
	return vecs, nil
}

// sameTypes reports whether the two key column lists agree in number and
// type, which is what lets the hash table compare them value by value.
func sameTypes(a, b []*column.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Typ != b[i].Typ {
			return false
		}
	}
	return true
}

// JoinType selects join semantics. The preserved side is always the probe.
type JoinType uint8

// Supported join types.
const (
	// Inner emits build ⨝ probe matches.
	Inner JoinType = iota
	// LeftOuter emits every probe row, zero-filling build columns on a miss.
	LeftOuter
	// Semi emits probe rows with at least one match (probe columns only).
	Semi
	// Anti emits probe rows with no match (probe columns only).
	Anti
)

// HashJoin builds a hash table over build and probes it with probe. Output
// columns are the probe columns followed by the build columns (for Inner
// and LeftOuter); column names must be disjoint, which TPC-H's prefixed
// names guarantee. Rows come out in probe order, a probe row's matches in
// ascending build-row order. Keys are equal column by column under the
// column's type, floats by bit pattern.
func HashJoin(ctx context.Context, build Source, buildKeys []string, probe Source, probeKeys []string, typ JoinType) (*table.Batch, error) {
	bs, err := drain(ctx, build)
	if err != nil {
		return nil, err
	}
	// A build side that is already one batch is only read, so it is indexed
	// where it is.
	var bb *table.Batch
	if len(bs) == 1 {
		bb = bs[0]
	} else {
		bb = concat(bs)
	}
	buildEmpty := len(bb.Vecs) == 0
	if buildEmpty && typ == Inner {
		return &table.Batch{}, nil
	}
	// The table maps a key to the first build row holding it; next chains
	// each build row to the following row with the same key (-1 at the end).
	var (
		ht    *column.HashTable
		bvecs []*column.Vector
		next  []int32
	)
	if !buildEmpty {
		if bvecs, err = keyCols(bb, buildKeys); err != nil {
			return nil, err
		}
		var first []int32
		ht, first = column.IndexRows(bvecs, bb.Rows(), nil)
		next = make([]int32, len(first))
		for r := range next {
			next[r] = -1
		}
		// Walking backwards, next[f] of a key's first row f holds the
		// nearest later row seen so far — which is what row r must point at.
		for r := len(first) - 1; r >= 0; r-- {
			if f := first[r]; int(f) != r {
				next[r] = next[f]
				next[f] = int32(r)
			}
		}
	}

	var out *table.Batch
	var ids, prow, brow []int32 // per probe batch: match heads, then the (probe, build) row pairs
	for {
		pb, err := probe.Next(ctx)
		if err != nil {
			return nil, err
		}
		if pb == nil {
			break
		}
		if len(pb.Vecs) == 0 {
			continue // schemaless empty batch
		}
		pvecs, err := keyCols(pb, probeKeys)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = &table.Batch{}
			out.Schema.Cols = append(out.Schema.Cols, pb.Schema.Cols...)
			if typ == Inner || typ == LeftOuter {
				out.Schema.Cols = append(out.Schema.Cols, bb.Schema.Cols...)
			}
			for _, c := range out.Schema.Cols {
				out.Vecs = append(out.Vecs, column.NewVector(c.Typ))
			}
		}
		n := pb.Rows()
		if buildEmpty {
			ids = ids[:0]
			for r := 0; r < n; r++ {
				ids = append(ids, -1)
			}
		} else {
			if !sameTypes(pvecs, bvecs) {
				return nil, fmt.Errorf("exec: join keys %v and %v differ in number or type", buildKeys, probeKeys)
			}
			ids = ht.Find(pvecs, n, ids)
		}
		// Room for one match per probe row, the common case; more is appended.
		prow, brow = slices.Grow(prow[:0], n), slices.Grow(brow[:0], n)
		switch typ {
		case Semi:
			for r, m := range ids {
				if m >= 0 {
					prow = append(prow, int32(r))
				}
			}
		case Anti:
			for r, m := range ids {
				if m < 0 {
					prow = append(prow, int32(r))
				}
			}
		default:
			for r, m := range ids {
				if m < 0 && typ == LeftOuter {
					prow = append(prow, int32(r))
					brow = append(brow, -1) // gathers as the zero value
				}
				for ; m >= 0; m = next[m] {
					prow = append(prow, int32(r))
					brow = append(brow, m)
				}
			}
		}
		np := len(pb.Vecs)
		for c, v := range pb.Vecs {
			out.Vecs[c].AppendGather(v, prow)
		}
		for c := np; c < len(out.Vecs); c++ {
			out.Vecs[c].AppendGather(bb.Vecs[c-np], brow)
		}
	}
	if out == nil {
		return &table.Batch{}, nil
	}
	return out, nil
}

// --- aggregation ---

// AggFunc enumerates aggregate functions.
type AggFunc = expr.AggFunc

// Supported aggregates.
const (
	Sum           = expr.Sum
	Avg           = expr.Avg
	Min           = expr.Min
	Max           = expr.Max
	Count         = expr.Count
	CountDistinct = expr.CountDistinct
)

// Agg is one aggregate column: Func over Expr (nil for Count(*)), emitted
// as As.
type Agg struct {
	Func AggFunc
	Expr Expr
	As   string
}

// aggSet is the running state of a list of aggregates over dense group ids:
// one expr.Aggregator each, shared by HashAgg and ScanAgg.
type aggSet struct {
	aggs   []Agg
	folds  []expr.Aggregator
	inputs []column.Type // each aggregate's input type, fixed by the first batch
	folded bool
	zeros  []int32 // group 0 for every row, for callers without group keys
}

func newAggSet(aggs []Agg) *aggSet {
	s := &aggSet{aggs: aggs, folds: make([]expr.Aggregator, len(aggs)), inputs: make([]column.Type, len(aggs))}
	for i, a := range aggs {
		s.folds[i].Func = a.Func
	}
	return s
}

// fold evaluates every aggregate's input over b, once, and folds row r into
// group gids[r]; nil gids puts every row in group 0.
func (s *aggSet) fold(b *table.Batch, gids []int32, groups int) error {
	if gids == nil {
		if n := b.Rows(); len(s.zeros) < n {
			s.zeros = make([]int32, n)
		}
		gids = s.zeros[:b.Rows()]
	}
	for i, a := range s.aggs {
		input, err := expr.AggInput(a.Func, a.Expr, b)
		if err != nil {
			return fmt.Errorf("exec: aggregate %s: %w", a.As, err)
		}
		if input != nil {
			if s.folded && input.Typ != s.inputs[i] {
				return fmt.Errorf("exec: aggregate %s: input changes type between batches (%v, then %v)", a.As, s.inputs[i], input.Typ)
			}
			s.inputs[i] = input.Typ
		}
		s.folds[i].Fold(input, gids, groups)
	}
	s.folded = true
	return nil
}

// merge adds a store's partial state of aggregate i, whose rows follow the
// ones folded so far, to the global group.
func (s *aggSet) merge(i int, part *expr.AggState) {
	s.folds[i].Grow(1)
	s.folds[i].States[0].Merge(part)
}

// emit appends one output column per aggregate, a row per group, to out.
func (s *aggSet) emit(out *table.Batch, groups int) {
	for i, a := range s.aggs {
		s.folds[i].Grow(groups)
		s.folds[i].Finish()
		states := s.folds[i].States[:groups]
		t := aggOutputType(a, states)
		v := column.NewVector(t)
		v.Grow(groups)
		for g := range states {
			emitAgg(v, &states[g], a)
		}
		out.Schema.Cols = append(out.Schema.Cols, table.ColumnDef{Name: a.As, Typ: t})
		out.Vecs = append(out.Vecs, v)
	}
}

// HashAgg groups src by the named columns and computes the aggregates.
// Groups come out in the order their first row arrived; group keys are equal
// column by column under the column's type, floats by bit pattern. With no
// group columns, a single global group is produced (even on empty input,
// matching SQL aggregate semantics).
func HashAgg(ctx context.Context, src Source, groupBy []string, aggs []Agg) (*table.Batch, error) {
	var (
		ht     column.HashTable // its key columns become the group columns of the result
		gids   []int32
		groups int
	)
	if len(groupBy) == 0 {
		groups = 1
	}
	set := newAggSet(aggs)
	for {
		b, err := src.Next(ctx)
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		if len(b.Vecs) == 0 {
			continue // schemaless empty batch
		}
		gvecs, err := keyCols(b, groupBy)
		if err != nil {
			return nil, err
		}
		if len(groupBy) > 0 {
			if keys := ht.Keys(); keys != nil && !sameTypes(gvecs, keys) {
				return nil, fmt.Errorf("exec: group columns %v change type between batches", groupBy)
			}
			gids = ht.Insert(gvecs, b.Rows(), gids)
			groups = ht.Len()
		}
		if err := set.fold(b, gids, groups); err != nil {
			return nil, err
		}
	}

	out := &table.Batch{}
	for i, name := range groupBy {
		// With zero input batches the group types are unknown; default to
		// Int64 — the result has no rows, so only the names matter.
		v := column.NewVector(column.Int64)
		if keys := ht.Keys(); keys != nil {
			v = keys[i]
		}
		out.Schema.Cols = append(out.Schema.Cols, table.ColumnDef{Name: name, Typ: v.Typ})
		out.Vecs = append(out.Vecs, v)
	}
	set.emit(out, groups)
	return out, nil
}

func aggOutputType(a Agg, states []expr.AggState) column.Type {
	switch a.Func {
	case Count, CountDistinct:
		return column.Int64
	case Avg:
		return column.Float64
	}
	// Sum/Min/Max follow the input type; inspect any group.
	for i := range states {
		if st := &states[i]; st.Count > 0 || st.Seen {
			return st.Typ
		}
	}
	return column.Float64
}

func emitAgg(v *column.Vector, st *expr.AggState, a Agg) {
	switch a.Func {
	case Count:
		v.AppendInt(st.Count)
	case CountDistinct:
		v.AppendInt(int64(st.Distinct()))
	case Avg:
		if st.Count == 0 {
			v.AppendFloat(0)
		} else {
			v.AppendFloat(st.SumF / float64(st.Count))
		}
	case Sum:
		if v.Typ == column.Int64 {
			v.AppendInt(st.SumI)
		} else {
			v.AppendFloat(st.SumF)
		}
	case Min:
		switch v.Typ {
		case column.Int64:
			v.AppendInt(st.MinI)
		case column.Float64:
			v.AppendFloat(st.MinF)
		default:
			v.AppendStr(st.MinS)
		}
	case Max:
		switch v.Typ {
		case column.Int64:
			v.AppendInt(st.MaxI)
		case column.Float64:
			v.AppendFloat(st.MaxF)
		default:
			v.AppendStr(st.MaxS)
		}
	}
}

// --- sort & limit ---

// SortKey orders by one column.
type SortKey struct {
	Col  string
	Desc bool
}

// Sort returns b ordered by the keys (stable).
func Sort(b *table.Batch, keys []SortKey) (*table.Batch, error) {
	type keyVec struct {
		v    *column.Vector
		desc bool
	}
	kvs := make([]keyVec, len(keys))
	for i, k := range keys {
		ci := b.Schema.ColIndex(k.Col)
		if ci < 0 {
			return nil, fmt.Errorf("exec: sort key %q missing", k.Col)
		}
		kvs[i] = keyVec{b.Vecs[ci], k.Desc}
	}
	if err := checkRows(b); err != nil {
		return nil, err
	}
	rows := expr.AllRows(b.Rows())
	sort.SliceStable(rows, func(x, y int) bool {
		rx, ry := rows[x], rows[y]
		for _, kv := range kvs {
			var c int
			switch kv.v.Typ {
			case column.Int64:
				a, b := kv.v.I64[rx], kv.v.I64[ry]
				if a < b {
					c = -1
				} else if a > b {
					c = 1
				}
			case column.Float64:
				a, b := kv.v.F64[rx], kv.v.F64[ry]
				if a < b {
					c = -1
				} else if a > b {
					c = 1
				}
			default:
				a, b := kv.v.Str[rx], kv.v.Str[ry]
				if a < b {
					c = -1
				} else if a > b {
					c = 1
				}
			}
			if kv.desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	return gatherBatch(b, rows), nil
}

// Limit returns the first n rows of b; for n ≤ 0, a typed empty batch with
// b's schema.
func Limit(b *table.Batch, n int) *table.Batch {
	if b.Rows() <= n {
		return b
	}
	out := &table.Batch{Schema: b.Schema, Vecs: make([]*column.Vector, len(b.Vecs))}
	for i, v := range b.Vecs {
		out.Vecs[i] = v.Slice(0, max(n, 0))
	}
	return out
}
