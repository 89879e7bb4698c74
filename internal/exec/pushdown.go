package exec

// Pushdown: handing scan filters and ungrouped aggregates to the object
// store's compute endpoint (objstore.Selector). A store plan carries the
// reader's own expr.Node trees and the store runs them through the same
// evaluator and aggregate state (internal/expr), so there is nothing to
// translate and no expression shape that cannot be pushed. Every pushdown
// failure (store without the capability, rejected plan, injected fault,
// dirty page in cache) degrades to the plain ReadSegment path, so a scan with
// pushdown enabled returns the same rows as one without.

import (
	"cmp"
	"context"
	"fmt"

	"cloudiq/internal/column"
	"cloudiq/internal/expr"
	"cloudiq/internal/objstore"
	"cloudiq/internal/table"
	"cloudiq/internal/trace"
)

// PushdownMode selects whether a scan may evaluate its filter (and partial
// aggregates) inside the object store instead of shipping whole segments to
// the reader.
type PushdownMode uint8

const (
	// PushdownOff never uses the store's compute endpoint.
	PushdownOff PushdownMode = iota
	// PushdownAuto decides per segment: push when the zone-map selectivity
	// estimate says the filter discards at least half the segment's rows —
	// an unselective pushdown returns nearly the whole segment and just
	// adds the compute charge.
	PushdownAuto
	// PushdownForce pushes every segment, regardless of estimated
	// selectivity. Differential harnesses use it to maximize pushdown
	// coverage.
	PushdownForce
)

// autoPushThreshold is the estimated-selectivity ceiling for PushdownAuto.
const autoPushThreshold = 0.5

// --- selectivity estimation -----------------------------------------------

// estimateSelectivity guesses the fraction of a segment's rows a filter
// keeps, from the segment's zone maps under a uniform-distribution
// assumption. It only needs to be good enough to separate "returns a sliver"
// from "returns most of the segment"; anything it cannot model answers 0.5.
func estimateSelectivity(e Expr, sch table.Schema, zones []column.ZoneMap) float64 {
	switch {
	case e == nil:
		return 0.5
	case e.Op >= expr.OpEq && e.Op <= expr.OpGe && len(e.Args) == 2:
		return cmpSelectivity(e, sch, zones)
	case (e.Op == expr.OpAnd || e.Op == expr.OpOr) && len(e.Args) == 2:
		pa := estimateSelectivity(e.Args[0], sch, zones)
		pb := estimateSelectivity(e.Args[1], sch, zones)
		if e.Op == expr.OpAnd {
			return pa * pb
		}
		return clamp01(pa + pb - pa*pb)
	case e.Op == expr.OpNot && len(e.Args) == 1:
		return clamp01(1 - estimateSelectivity(e.Args[0], sch, zones))
	case e.Op == expr.OpLike:
		if e.Neg {
			return 0.9
		}
		return 0.1
	case e.Op == expr.OpIn:
		return clamp01(0.1 * float64(len(e.Set)))
	}
	return 0.5
}

// colConst matches the shape "column OP numeric literal".
func colConst(col, lit Expr) (string, float64, bool) {
	if col == nil || lit == nil || col.Op != expr.OpCol {
		return "", 0, false
	}
	switch lit.Op {
	case expr.OpInt:
		return col.Col, float64(lit.I), true
	case expr.OpFloat:
		return col.Col, lit.F, true
	}
	return "", 0, false
}

// flipCmp mirrors a comparison for swapped operands; eq and ne are symmetric.
var flipCmp = map[expr.Op]expr.Op{expr.OpEq: expr.OpEq, expr.OpNe: expr.OpNe,
	expr.OpLt: expr.OpGt, expr.OpLe: expr.OpGe, expr.OpGt: expr.OpLt, expr.OpGe: expr.OpLe}

func cmpSelectivity(e Expr, sch table.Schema, zones []column.ZoneMap) float64 {
	op := e.Op
	col, c, ok := colConst(e.Args[0], e.Args[1])
	if !ok {
		// Try the mirrored form: const OP col.
		col, c, ok = colConst(e.Args[1], e.Args[0])
		op = flipCmp[op]
	}
	if !ok {
		return 0.5
	}
	ci := sch.ColIndex(col)
	if ci < 0 || ci >= len(zones) {
		return 0.5
	}
	return rangeSelectivity(op, c, zones[ci])
}

// rangeSelectivity treats the zone-map range as a uniform distribution:
// integers as max-min+1 equally likely points, floats as a continuum.
func rangeSelectivity(op expr.Op, c float64, z column.ZoneMap) float64 {
	var lo, hi float64
	discrete := false
	switch z.Typ {
	case column.Int64:
		lo, hi = float64(z.MinI64), float64(z.MaxI64)
		discrete = true
	case column.Float64:
		lo, hi = z.MinF64, z.MaxF64
	default:
		return 0.5 // string zone maps carry no usable density
	}
	if hi < lo {
		return 0 // empty segment: inverted bounds
	}
	width := hi - lo
	if discrete {
		width++
	}
	if width <= 0 {
		// Single-point float range: the comparison is decided outright.
		if op.Holds(cmp.Compare(lo, c)) {
			return 1
		}
		return 0
	}
	point := 0.05 // equality against a continuum
	if discrete {
		point = 1 / width
	}
	// below(incl) estimates the fraction satisfying "< c" (or "<= c").
	below := func(incl bool) float64 {
		f := (c - lo) / width
		if discrete && incl {
			f = (c - lo + 1) / width
		}
		return clamp01(f)
	}
	switch op {
	case expr.OpEq:
		return clamp01(point)
	case expr.OpNe:
		return clamp01(1 - point)
	case expr.OpLt:
		return below(false)
	case expr.OpLe:
		return below(true)
	case expr.OpGt:
		return clamp01(1 - below(true))
	default: // OpGe
		return clamp01(1 - below(false))
	}
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// --- scan integration ------------------------------------------------------

// planPushdown decides, per surviving segment, whether the scan will use the
// store's compute endpoint. It runs once at Scan time; a per-segment false
// (or a nil push slice) means plain reads.
func (s *scanSource) planPushdown() {
	if s.opts.Pushdown == PushdownOff || len(s.segs) == 0 {
		return
	}
	if s.tbl.Delta() != nil {
		// Delta-dirty table: the store only holds the columnar main, so a
		// pushed result would be stale the way a dirty cached page is —
		// stay on plain local reads and merge the delta rows reader-side.
		return
	}
	if s.opts.Filter == nil && s.opts.Pushdown != PushdownForce {
		return // pushing an unfiltered scan returns every byte anyway
	}
	s.push = make([]bool, len(s.segs))
	sch := s.tbl.Schema()
	for i, seg := range s.segs {
		if s.opts.Pushdown == PushdownForce {
			s.push[i] = true
			continue
		}
		sel := estimateSelectivity(s.opts.Filter, sch, s.tbl.Seg(seg).Zones)
		s.push[i] = sel <= autoPushThreshold
	}
}

// pushSegment reads one segment through the store's compute endpoint: the
// filter runs store-side and only qualifying rows cross the network, already
// filtered. Any error sends the caller to the plain ReadSegment path.
func (s *scanSource) pushSegment(ctx context.Context, seg int) (*table.Batch, error) {
	res, err := s.tbl.SelectSegment(ctx, seg, s.cols, objstore.SelectPlan{
		Filter:  s.opts.Filter,
		Project: s.colNames,
	})
	if err != nil {
		return nil, err
	}
	if len(res.Cols) != len(s.cols) {
		return nil, fmt.Errorf("exec: pushdown returned %d columns, want %d", len(res.Cols), len(s.cols))
	}
	b := &table.Batch{Vecs: make([]*column.Vector, len(s.cols))}
	for i, c := range s.cols {
		b.Schema.Cols = append(b.Schema.Cols, s.tbl.Schema().Cols[c])
		v, err := column.DecodeSegment(res.Cols[i])
		if err != nil {
			return nil, fmt.Errorf("exec: decode pushdown column %q: %w", s.colNames[i], err)
		}
		b.Vecs[i] = v
	}
	return b, nil
}

// emptyBatch is the typed zero-row result of a scan whose every segment was
// pruned: downstream operators still need the schema to type their output,
// exactly as a filter that removed every row would leave behind.
func (s *scanSource) emptyBatch() *table.Batch {
	b := &table.Batch{Vecs: make([]*column.Vector, len(s.cols))}
	for i, c := range s.cols {
		def := s.tbl.Schema().Cols[c]
		b.Schema.Cols = append(b.Schema.Cols, def)
		b.Vecs[i] = column.NewVector(def.Typ)
	}
	return b
}

// --- aggregate pushdown ----------------------------------------------------

// aggPlan builds the store plan for an ungrouped aggregation. The one
// pushability rule is on the aggregate function: only Mergeable ones have the
// fixed-size partial state a store returns (and the cost model charges for).
func aggPlan(opts ScanOptions, aggs []Agg) (objstore.SelectPlan, bool) {
	plan := objstore.SelectPlan{Filter: opts.Filter}
	for _, a := range aggs {
		if !a.Func.Mergeable() {
			return plan, false
		}
		plan.Aggs = append(plan.Aggs, objstore.PlanAgg{Func: a.Func, Expr: a.Expr})
	}
	return plan, len(aggs) > 0
}

// ScanAgg computes ungrouped aggregates over a table scan, pushing the
// filter and partial aggregation into the object store when opts.Pushdown
// allows and every aggregate is pushable (Count, Sum, Min, Max over any
// expression). Each partial state that comes back is ~64 bytes
// regardless of how many rows qualified — the extreme case of the
// scanned/returned asymmetry pushdown exists for — so any allowed aggregate
// push is taken without a selectivity estimate. Segments whose pushdown
// fails fall back to plain reads; anything unpushable falls back entirely to
// HashAgg over Scan. The result is one row, matching
// HashAgg(Scan(...), nil, aggs).
func ScanAgg(ctx context.Context, t *table.Table, cols []string, opts ScanOptions, aggs []Agg) (*table.Batch, error) {
	plan, pushable := aggPlan(opts, aggs)
	// A delta-dirty table refuses aggregate pushdown outright: the store
	// cannot see the delta rows, so its partial states would be stale. The
	// Scan fallback below merges them reader-side.
	if opts.Pushdown == PushdownOff || !pushable || t.Delta() != nil {
		src, err := Scan(t, cols, opts)
		if err != nil {
			return nil, err
		}
		return HashAgg(ctx, src, nil, aggs)
	}
	// Reuse Scan's column resolution and zone pruning, but drive the
	// segments ourselves.
	src, err := Scan(t, cols, opts)
	if err != nil {
		return nil, err
	}
	sc := src.(*scanSource)
	set := newAggSet(aggs)
	for _, seg := range sc.segs {
		if err := YieldPoint(ctx); err != nil {
			return nil, err
		}
		rctx, rsp := trace.Start(ctx, "scan.agg",
			trace.String("table", t.Name()), trace.Int("seg", int64(seg)))
		res, perr := t.SelectSegment(rctx, seg, sc.cols, plan)
		if perr == nil && len(res.Aggs) == len(aggs) {
			rsp.AddInt("pushdown", 1)
			rsp.AddInt("rows", int64(res.Rows))
			rsp.End()
			for i := range res.Aggs {
				set.merge(i, &res.Aggs[i])
			}
			continue
		}
		if perr != nil {
			rsp.SetAttr("fallback", perr.Error())
		}
		b, err := t.ReadSegment(rctx, seg, sc.cols)
		if err != nil {
			rsp.SetAttr("err", err.Error())
			rsp.End()
			return nil, err
		}
		rsp.End()
		if opts.Filter != nil {
			b, err = FilterBatch(b, opts.Filter)
			if err != nil {
				return nil, err
			}
		}
		if err := set.fold(b, nil, 1); err != nil {
			return nil, err
		}
	}
	// Emit exactly as HashAgg's global group would.
	out := &table.Batch{}
	set.emit(out, 1)
	return out, nil
}
