package exec

// Pushdown: handing scan filters and ungrouped aggregates to the object
// store's compute endpoint (objstore.Selector). A store plan carries the
// reader's own expr.Node trees and the store runs them through the same
// evaluator and aggregate state (internal/expr), so there is nothing to
// translate and no expression shape that cannot be pushed. Every pushdown
// failure (store without the capability, rejected plan, injected fault,
// dirty page in cache) degrades to the scan's plain read path, readSegment,
// so a scan with pushdown enabled returns the same rows as one without.

import (
	"cmp"
	"context"
	"fmt"
	"math"

	"cloudiq/internal/column"
	"cloudiq/internal/expr"
	"cloudiq/internal/objstore"
	"cloudiq/internal/table"
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

// colCmpLit matches "column OP literal" in either operand order and returns
// it column first, the comparison mirrored if the literal came first.
func colCmpLit(e Expr) (col string, op expr.Op, lit Expr, ok bool) {
	a, b, op := e.Args[0], e.Args[1], e.Op
	if a != nil && a.Op != expr.OpCol {
		a, b, op = b, a, op.Flip()
	}
	if a == nil || b == nil || a.Op != expr.OpCol {
		return "", 0, nil, false
	}
	switch b.Op {
	case expr.OpInt, expr.OpFloat, expr.OpStr:
		return a.Col, op, b, true
	}
	return "", 0, nil, false
}

func cmpSelectivity(e Expr, sch table.Schema, zones []column.ZoneMap) float64 {
	col, op, lit, ok := colCmpLit(e)
	ci := sch.ColIndex(col)
	if !ok || lit.Op == expr.OpStr || ci < 0 || ci >= len(zones) {
		return 0.5
	}
	return rangeSelectivity(op, numLit(lit), zones[ci])
}

// numLit is a numeric literal's value as the evaluator's mixed comparisons
// see it.
func numLit(lit Expr) float64 {
	if lit.Op == expr.OpInt {
		return float64(lit.I)
	}
	return lit.F
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

// --- zone pruning ----------------------------------------------------------

// mayMatch reports whether any row of a segment with these zone maps can pass
// the filter. Scan skips a segment on false without reading it, so false must
// be certain: only what min/max bounds decide exactly is decided — a column
// compared with a literal, joined by AND/OR — and every other shape keeps the
// segment. The density estimate above is no substitute; it rounds at float
// boundaries.
func mayMatch(e Expr, sch table.Schema, zones []column.ZoneMap) bool {
	switch {
	case e == nil || len(e.Args) != 2:
		return true
	case e.Op == expr.OpAnd:
		return mayMatch(e.Args[0], sch, zones) && mayMatch(e.Args[1], sch, zones)
	case e.Op == expr.OpOr:
		return mayMatch(e.Args[0], sch, zones) || mayMatch(e.Args[1], sch, zones)
	case e.Op >= expr.OpEq && e.Op <= expr.OpGe:
		return cmpMayMatch(e, sch, zones)
	}
	return true
}

// cmpMayMatch asks the column's zone map whether it overlaps the values a
// "column OP literal" comparison accepts. The literal must be of the column's
// type, or an int against a float column (promoted as the evaluator promotes
// it); any other pairing keeps the segment, leaving the comparison — or the
// type error — to Eval.
func cmpMayMatch(e Expr, sch table.Schema, zones []column.ZoneMap) bool {
	col, op, lit, ok := colCmpLit(e)
	ci := sch.ColIndex(col)
	if !ok || op == expr.OpNe || ci < 0 || ci >= len(zones) {
		return true
	}
	z := zones[ci]
	switch {
	case z.Typ == column.Int64 && lit.Op == expr.OpInt:
		// Integers turn a strict bound into an inclusive one exactly.
		c := lit.I
		switch {
		case op == expr.OpLt && c == math.MinInt64, op == expr.OpGt && c == math.MaxInt64:
			return false
		case op == expr.OpLt:
			c--
		case op == expr.OpGt:
			c++
		}
		return z.MayContainI64(accepted(op, z.MinI64, z.MaxI64, c))
	case z.Typ == column.Float64 && lit.Op != expr.OpStr:
		c := numLit(lit)
		if c != c {
			return true // NaN compares equal to every value
		}
		return z.MayContainF64(accepted(op, z.MinF64, z.MaxF64, c))
	case z.Typ == column.String && lit.Op == expr.OpStr:
		return z.MayContainStr(accepted(op, z.MinStr, z.MaxStr, lit.S))
	}
	return true
}

// accepted cuts a zone's own [min, max] down to the closed range that
// "OP c" accepts; a strict bound stays inclusive, which only keeps more.
func accepted[T cmp.Ordered](op expr.Op, min, max, c T) (lo, hi T) {
	switch op {
	case expr.OpEq:
		return c, c
	case expr.OpLt, expr.OpLe:
		return min, c
	default: // OpGt, OpGe
		return c, max
	}
}

// --- scan integration ------------------------------------------------------

// planPushdown is the one place that decides what the scan pushes to the
// store's compute endpoint: the plan, and per surviving segment whether to
// use it. A per-segment false (or a nil push slice) means plain reads. With
// ScanAgg's aggs all Mergeable, the plan is the store's partial aggregation
// and every segment takes it under any mode but Off: a partial state is ~64
// bytes however many rows qualify, so no selectivity estimate is needed.
// Otherwise the plan is the filtered rows of the scan's columns. A
// delta-dirty table pushes nothing: the store only holds the columnar main,
// so a pushed result would be stale the way a dirty cached page is; the scan
// stays on plain local reads and merges the delta rows reader-side.
func (s *scanSource) planPushdown(aggs []Agg) {
	if s.opts.Pushdown == PushdownOff || len(s.segs) == 0 || s.tbl.Delta() != nil {
		return
	}
	plan, pushAll := aggPlan(s.opts.Filter, aggs)
	if !pushAll {
		if s.opts.Filter == nil && s.opts.Pushdown != PushdownForce {
			return // pushing an unfiltered scan returns every byte anyway
		}
		plan = objstore.SelectPlan{Filter: s.opts.Filter, Project: s.colNames}
		pushAll = s.opts.Pushdown == PushdownForce
	}
	s.plan, s.push = plan, make([]bool, len(s.segs))
	sch := s.tbl.Schema()
	for i, seg := range s.segs {
		s.push[i] = pushAll || estimateSelectivity(s.opts.Filter, sch, s.tbl.Seg(seg).Zones) <= autoPushThreshold
	}
}

// aggPlan builds the store plan for an ungrouped aggregation. The one
// pushability rule is on the aggregate function: only Mergeable ones have the
// fixed-size partial state a store returns (and the cost model charges for).
func aggPlan(filter Expr, aggs []Agg) (objstore.SelectPlan, bool) {
	plan := objstore.SelectPlan{Filter: filter}
	for _, a := range aggs {
		if !a.Func.Mergeable() {
			return plan, false
		}
		plan.Aggs = append(plan.Aggs, objstore.PlanAgg{Func: a.Func, Expr: a.Expr})
	}
	return plan, len(aggs) > 0
}

// pushSegment runs the scan's plan on one segment through the store's compute
// endpoint: the filter runs store-side and only the qualifying rows — or,
// under an aggregate plan, one partial state per aggregate (res.Aggs, with a
// nil batch) — cross the network. Any error sends the caller to readSegment,
// the plain path.
func (s *scanSource) pushSegment(ctx context.Context, seg int) (*objstore.SelectResult, *table.Batch, error) {
	res, err := s.tbl.SelectSegment(ctx, seg, s.cols, s.plan)
	switch {
	case err != nil:
		return nil, nil, err
	case len(res.Aggs) != len(s.plan.Aggs):
		return nil, nil, fmt.Errorf("exec: pushdown returned %d aggregates, want %d", len(res.Aggs), len(s.plan.Aggs))
	case len(s.plan.Aggs) > 0:
		return res, nil, nil
	case len(res.Cols) != len(s.colNames):
		return nil, nil, fmt.Errorf("exec: pushdown returned %d columns, want %d", len(res.Cols), len(s.colNames))
	}
	b := &table.Batch{Schema: s.schema, Vecs: make([]*column.Vector, len(s.colNames))}
	for i := range b.Vecs {
		v, err := column.DecodeSegment(res.Cols[i])
		if err != nil {
			return nil, nil, fmt.Errorf("exec: decode pushdown column %q: %w", s.colNames[i], err)
		}
		b.Vecs[i] = v
	}
	return res, b, nil
}

// emptyBatch is the typed zero-row result of a scan whose every segment was
// pruned: downstream operators still need the schema to type their output,
// exactly as a filter that removed every row would leave behind.
func (s *scanSource) emptyBatch() *table.Batch { return table.NewBatch(s.schema) }

// ScanAgg computes ungrouped aggregates over a table scan, one row. It folds
// what the scan's one segment driver yields, in segment order whatever the
// read-ahead window: a batch is folded as HashAgg folds it, and a segment the
// store aggregated under the plan planPushdown made (every aggregate
// Mergeable, any mode but Off, a table without delta rows) is merged as its
// partial states. A segment whose push fails comes back as a batch, read
// plain. With nothing pushed the result is HashAgg(Scan(...), nil, aggs),
// float sums bit for bit; a pushed float sum adds per segment first.
func ScanAgg(ctx context.Context, t *table.Table, cols []string, opts ScanOptions, aggs []Agg) (*table.Batch, error) {
	s, err := newScan(t, cols, opts, aggs)
	if err != nil {
		return nil, err
	}
	set := newAggSet(aggs)
	for {
		b, parts, err := s.next(ctx)
		if err != nil {
			return nil, err
		}
		switch {
		case parts != nil:
			for i := range parts {
				set.merge(i, &parts[i])
			}
		case b == nil:
			out := &table.Batch{}
			set.emit(out, 1)
			return out, nil
		case len(b.Vecs) > 0: // a schemaless empty batch adds nothing, as in HashAgg
			if err := set.fold(b, nil, 1); err != nil {
				return nil, err
			}
		}
	}
}
