package objstore

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"cloudiq/internal/column"
	"cloudiq/internal/deflate"
	"cloudiq/internal/expr"
)

// selectStore holds one two-column segment, stored deflated as the buffer
// pool stores every page: a = 1..6, s alternating x/y.
func selectStore(t *testing.T) (*MemStore, []SelectCol) {
	t.Helper()
	s := NewMem(Config{})
	a := &column.Vector{Typ: column.Int64, I64: []int64{1, 2, 3, 4, 5, 6}}
	str := &column.Vector{Typ: column.String, Str: []string{"x", "y", "x", "y", "x", "y"}}
	for key, v := range map[string]*column.Vector{"seg/a": a, "seg/s": str} {
		if err := s.Put(context.Background(), key, deflate.Compress(column.EncodeSegment(v))); err != nil {
			t.Fatal(err)
		}
	}
	return s, []SelectCol{{Name: "a", Key: "seg/a"}, {Name: "s", Key: "seg/s"}}
}

func col(name string) *expr.Node { return &expr.Node{Op: expr.OpCol, Col: name} }

func TestSelectRowsAndAggs(t *testing.T) {
	s, cols := selectStore(t)
	filter := &expr.Node{Op: expr.OpEq, Args: []*expr.Node{col("s"), {Op: expr.OpStr, S: "y"}}}

	res, err := s.Select(context.Background(), SelectRequest{Cols: cols, Plan: SelectPlan{Filter: filter, Project: []string{"a"}}})
	if err != nil {
		t.Fatal(err)
	}
	v, err := column.DecodeSegment(res.Cols[0])
	if err != nil || res.Rows != 3 || !reflect.DeepEqual(v.I64, []int64{2, 4, 6}) {
		t.Fatalf("row mode = %d rows, %v, %v", res.Rows, v, err)
	}

	res, err = s.Select(context.Background(), SelectRequest{Cols: cols, Plan: SelectPlan{Filter: filter, Aggs: []PlanAgg{
		{Func: expr.Count}, {Func: expr.Sum, Expr: col("a")}, {Func: expr.Max, Expr: col("s")},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggs[0].Count != 3 || res.Aggs[1].SumI != 12 || res.Aggs[2].MaxS != "y" || res.ReturnedBytes != 3*64 {
		t.Fatalf("aggregate mode = %+v, %d bytes", res.Aggs, res.ReturnedBytes)
	}
}

// TestSelectRejectsPlan: whatever the kernel refuses, and any aggregate
// without a mergeable partial state, reaches the caller as ErrUnsupportedPlan
// — the signal to fall back to plain reads — and is not billed as a scan.
func TestSelectRejectsPlan(t *testing.T) {
	s, cols := selectStore(t)
	illTyped := &expr.Node{Op: expr.OpAnd, Args: []*expr.Node{col("s"), col("a")}}
	for name, plan := range map[string]SelectPlan{
		"ill-typed filter":     {Filter: illTyped, Project: []string{"a"}},
		"unknown column":       {Filter: col("ghost"), Project: []string{"a"}},
		"non-boolean filter":   {Filter: col("s"), Project: []string{"a"}},
		"ill-typed agg input":  {Aggs: []PlanAgg{{Func: expr.Sum, Expr: col("s")}}},
		"agg missing input":    {Aggs: []PlanAgg{{Func: expr.Min}}},
		"avg is reader-side":   {Aggs: []PlanAgg{{Func: expr.Avg, Expr: col("a")}}},
		"distinct reader-side": {Aggs: []PlanAgg{{Func: expr.CountDistinct, Expr: col("a")}}},
		"unknown projection":   {Project: []string{"ghost"}},
	} {
		if _, err := s.Select(context.Background(), SelectRequest{Cols: cols, Plan: plan}); !errors.Is(err, ErrUnsupportedPlan) {
			t.Errorf("%s: %v, want ErrUnsupportedPlan", name, err)
		}
	}
	_, err := s.Select(context.Background(), SelectRequest{Cols: cols, Plan: SelectPlan{Filter: illTyped, Project: []string{"a"}}})
	if !errors.Is(err, expr.ErrInvalid) {
		t.Errorf("kernel error not kept in the chain: %v", err)
	}
	if got := s.Metrics().SelectScannedBytes(); got != 0 {
		t.Errorf("rejected plans were billed %d scanned bytes", got)
	}
}
