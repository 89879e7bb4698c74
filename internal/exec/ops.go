package exec

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
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

// ZonePred prunes segments whose zone map cannot match.
type ZonePred struct {
	Col string
	ok  func(z column.ZoneMap) bool
}

// ZoneI prunes on an int64 range [lo, hi].
func ZoneI(col string, lo, hi int64) ZonePred {
	return ZonePred{Col: col, ok: func(z column.ZoneMap) bool { return z.MayContainI64(lo, hi) }}
}

// ZoneF prunes on a float range [lo, hi].
func ZoneF(col string, lo, hi float64) ZonePred {
	return ZonePred{Col: col, ok: func(z column.ZoneMap) bool { return z.MayContainF64(lo, hi) }}
}

// ZoneS prunes on a string range [lo, hi].
func ZoneS(col string, lo, hi string) ZonePred {
	return ZonePred{Col: col, ok: func(z column.ZoneMap) bool { return z.MayContainStr(lo, hi) }}
}

// ScanOptions tunes a table scan.
type ScanOptions struct {
	// Filter, if non-nil, is applied to every segment batch.
	Filter Expr
	// Zones prune whole segments before any I/O.
	Zones []ZonePred
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
	}
	for seg := 0; seg < t.Segments(); seg++ {
		sm := t.Seg(seg)
		keep := true
		for _, zp := range opts.Zones {
			ci := t.Schema().ColIndex(zp.Col)
			if ci < 0 {
				return nil, fmt.Errorf("exec: zone predicate on unknown column %q", zp.Col)
			}
			if !zp.ok(sm.Zones[ci]) {
				keep = false
				break
			}
		}
		if keep {
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
		b, err = s.tbl.ReadSegment(rctx, s.segs[s.pos], s.cols)
		if err != nil {
			rsp.SetAttr("err", err.Error())
			rsp.End()
			return nil, err
		}
	}
	rsp.AddInt("rows", int64(b.Rows()))
	rsp.End()
	s.pos++
	if !pushed && s.opts.Filter != nil {
		// Empty filtered batches are still returned: their schema lets
		// downstream operators (joins, aggregations) type their output
		// even when every row was filtered out. Pushed batches arrive
		// already filtered.
		b, err = FilterBatch(b, s.opts.Filter)
		if err != nil {
			return nil, err
		}
	}
	s.emitted = true
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
	b := &table.Batch{Vecs: make([]*column.Vector, len(s.cols))}
	for i, c := range s.cols {
		b.Schema.Cols = append(b.Schema.Cols, full.Schema.Cols[c])
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

// Collect drains src into one batch.
func Collect(ctx context.Context, src Source) (*table.Batch, error) {
	var out *table.Batch
	for {
		b, err := src.Next(ctx)
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		if out == nil {
			out = &table.Batch{Schema: b.Schema, Vecs: make([]*column.Vector, len(b.Vecs))}
			for i, v := range b.Vecs {
				nv := column.NewVector(v.Typ)
				out.Vecs[i] = nv
			}
		}
		for i, v := range b.Vecs {
			for r := 0; r < v.Len(); r++ {
				out.Vecs[i].Append(v, r)
			}
		}
	}
	if out == nil {
		return &table.Batch{}, nil
	}
	return out, nil
}

// FilterBatch returns the rows of b where pred is non-zero.
func FilterBatch(b *table.Batch, pred Expr) (*table.Batch, error) {
	pv, err := pred.Eval(b)
	if err != nil {
		return nil, fmt.Errorf("exec: filter: %w", err)
	}
	if pv.Typ != column.Int64 {
		return nil, fmt.Errorf("exec: filter predicate yields %v", pv.Typ)
	}
	var rows []int
	for i, x := range pv.I64 {
		if x != 0 {
			rows = append(rows, i)
		}
	}
	out := &table.Batch{Schema: b.Schema, Vecs: make([]*column.Vector, len(b.Vecs))}
	for i, v := range b.Vecs {
		out.Vecs[i] = v.Gather(rows)
	}
	return out, nil
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

// --- key encoding for joins and grouping ---

func keyCols(b *table.Batch, names []string) ([]*column.Vector, error) {
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

func rowKey(buf []byte, vecs []*column.Vector, row int) []byte {
	for _, v := range vecs {
		switch v.Typ {
		case column.Int64:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v.I64[row]))
		case column.Float64:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.F64[row]))
		default:
			buf = append(buf, v.Str[row]...)
			buf = append(buf, 0)
		}
	}
	return buf
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
// names guarantee.
func HashJoin(ctx context.Context, build Source, buildKeys []string, probe Source, probeKeys []string, typ JoinType) (*table.Batch, error) {
	bb, err := Collect(ctx, build)
	if err != nil {
		return nil, err
	}
	buildEmpty := len(bb.Vecs) == 0
	if buildEmpty && typ == Inner {
		return &table.Batch{}, nil
	}
	ht := make(map[string][]int)
	var kb []byte
	if !buildEmpty {
		bvecs, err := keyCols(bb, buildKeys)
		if err != nil {
			return nil, err
		}
		for r := 0; r < bb.Rows(); r++ {
			kb = rowKey(kb[:0], bvecs, r)
			ht[string(kb)] = append(ht[string(kb)], r)
		}
	}

	var out *table.Batch
	initOut := func(pb *table.Batch) {
		out = &table.Batch{}
		out.Schema.Cols = append(out.Schema.Cols, pb.Schema.Cols...)
		for _, v := range pb.Vecs {
			out.Vecs = append(out.Vecs, column.NewVector(v.Typ))
		}
		if typ == Inner || typ == LeftOuter {
			out.Schema.Cols = append(out.Schema.Cols, bb.Schema.Cols...)
			for _, v := range bb.Vecs {
				out.Vecs = append(out.Vecs, column.NewVector(v.Typ))
			}
		}
	}

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
		if out == nil {
			initOut(pb)
		}
		pvecs, err := keyCols(pb, probeKeys)
		if err != nil {
			return nil, err
		}
		np := len(pb.Vecs)
		for r := 0; r < pb.Rows(); r++ {
			kb = rowKey(kb[:0], pvecs, r)
			matches := ht[string(kb)]
			switch typ {
			case Semi:
				if len(matches) > 0 {
					for c, v := range pb.Vecs {
						out.Vecs[c].Append(v, r)
					}
				}
			case Anti:
				if len(matches) == 0 {
					for c, v := range pb.Vecs {
						out.Vecs[c].Append(v, r)
					}
				}
			case LeftOuter:
				if len(matches) == 0 {
					for c, v := range pb.Vecs {
						out.Vecs[c].Append(v, r)
					}
					for c, v := range bb.Vecs {
						appendZero(out.Vecs[np+c], v.Typ)
					}
					continue
				}
				fallthrough
			default: // Inner (and LeftOuter with matches)
				for _, m := range matches {
					for c, v := range pb.Vecs {
						out.Vecs[c].Append(v, r)
					}
					for c, v := range bb.Vecs {
						out.Vecs[np+c].Append(v, m)
					}
				}
			}
		}
	}
	if out == nil {
		return &table.Batch{}, nil
	}
	return out, nil
}

func appendZero(v *column.Vector, t column.Type) {
	switch t {
	case column.Int64:
		v.AppendInt(0)
	case column.Float64:
		v.AppendFloat(0)
	default:
		v.AppendStr("")
	}
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

type group struct {
	keyVals []any
	states  []*expr.AggState
}

func newStates(n int) []*expr.AggState {
	states := make([]*expr.AggState, n)
	for i := range states {
		states[i] = &expr.AggState{}
	}
	return states
}

// aggInputs evaluates every aggregate's input over b, once per batch.
func aggInputs(aggs []Agg, b *table.Batch) ([]*column.Vector, error) {
	inputs := make([]*column.Vector, len(aggs))
	for i, a := range aggs {
		v, err := expr.AggInput(a.Func, a.Expr, b)
		if err != nil {
			return nil, fmt.Errorf("exec: aggregate %s: %w", a.As, err)
		}
		inputs[i] = v
	}
	return inputs, nil
}

// HashAgg groups src by the named columns and computes the aggregates.
// With no group columns, a single global group is produced (even on empty
// input, matching SQL aggregate semantics).
func HashAgg(ctx context.Context, src Source, groupBy []string, aggs []Agg) (*table.Batch, error) {
	groups := make(map[string]*group)
	var order []string // deterministic-ish output: first-seen order
	var groupTypes []column.Type

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
		if groupTypes == nil {
			for _, v := range gvecs {
				groupTypes = append(groupTypes, v.Typ)
			}
		}
		inputs, err := aggInputs(aggs, b)
		if err != nil {
			return nil, err
		}
		var kb []byte
		for r := 0; r < b.Rows(); r++ {
			kb = rowKey(kb[:0], gvecs, r)
			g, ok := groups[string(kb)]
			if !ok {
				g = &group{states: newStates(len(aggs))}
				for _, v := range gvecs {
					switch v.Typ {
					case column.Int64:
						g.keyVals = append(g.keyVals, v.I64[r])
					case column.Float64:
						g.keyVals = append(g.keyVals, v.F64[r])
					default:
						g.keyVals = append(g.keyVals, v.Str[r])
					}
				}
				groups[string(kb)] = g
				order = append(order, string(kb))
			}
			for i, a := range aggs {
				g.states[i].Update(a.Func, inputs[i], r)
			}
		}
	}

	if len(groupBy) == 0 && len(groups) == 0 {
		groups[""] = &group{states: newStates(len(aggs))}
		order = append(order, "")
	}

	out := &table.Batch{}
	for i, name := range groupBy {
		// With zero input batches the group types are unknown; default to
		// Int64 — the result has no rows, so only the names matter.
		t := column.Int64
		if i < len(groupTypes) {
			t = groupTypes[i]
		}
		out.Schema.Cols = append(out.Schema.Cols, table.ColumnDef{Name: name, Typ: t})
		out.Vecs = append(out.Vecs, column.NewVector(t))
	}
	for i, a := range aggs {
		t := aggOutputType(a, groups, order, i)
		out.Schema.Cols = append(out.Schema.Cols, table.ColumnDef{Name: a.As, Typ: t})
		out.Vecs = append(out.Vecs, column.NewVector(t))
	}
	for _, k := range order {
		g := groups[k]
		for i := range groupBy {
			switch v := g.keyVals[i].(type) {
			case int64:
				out.Vecs[i].AppendInt(v)
			case float64:
				out.Vecs[i].AppendFloat(v)
			case string:
				out.Vecs[i].AppendStr(v)
			}
		}
		for i, a := range aggs {
			emitAgg(out.Vecs[len(groupBy)+i], g.states[i], a)
		}
	}
	return out, nil
}

func aggOutputType(a Agg, groups map[string]*group, order []string, i int) column.Type {
	switch a.Func {
	case Count, CountDistinct:
		return column.Int64
	case Avg:
		return column.Float64
	}
	// Sum/Min/Max follow the input type; inspect any group.
	for _, k := range order {
		st := groups[k].states[i]
		if st.Count > 0 || st.Seen {
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
	rows := make([]int, b.Rows())
	for i := range rows {
		rows[i] = i
	}
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
	out := &table.Batch{Schema: b.Schema, Vecs: make([]*column.Vector, len(b.Vecs))}
	for i, v := range b.Vecs {
		out.Vecs[i] = v.Gather(rows)
	}
	return out, nil
}

// Limit returns the first n rows of b.
func Limit(b *table.Batch, n int) *table.Batch {
	if b.Rows() <= n {
		return b
	}
	out := &table.Batch{Schema: b.Schema, Vecs: make([]*column.Vector, len(b.Vecs))}
	for i, v := range b.Vecs {
		out.Vecs[i] = v.Slice(0, n)
	}
	return out
}
