package expr

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"cloudiq/internal/column"
)

// selectAgrees checks Select's contract against Eval on one tree: over every
// row it keeps exactly the rows where Eval's Int64 result is non-zero, from
// the subset of rows named by mask it keeps the intersection, and it fails —
// with ErrInvalid — exactly when Eval fails or yields another type.
func selectAgrees(e *Node, env Vectors, mask uint64) error {
	v, evalErr := e.Eval(env)
	var all, some, want []int32
	for r := 0; r < env.N; r++ {
		all = append(all, int32(r))
		if mask>>(r%64)&1 == 1 {
			some = append(some, int32(r))
		}
	}
	for _, sel := range [][]int32{all, some, {}} {
		if evalErr == nil && v.Typ == column.Int64 {
			want = want[:0]
			for _, r := range sel {
				if v.I64[r] != 0 {
					want = append(want, r)
				}
			}
		}
		in := slices.Clone(sel)
		got, err := e.Select(env, slices.Clone(sel))
		switch {
		case evalErr != nil || v.Typ != column.Int64:
			if !errors.Is(err, ErrInvalid) {
				return fmt.Errorf("Select(%v) = %v, %v; Eval gives %v, %v", in, got, err, v, evalErr)
			}
		case err != nil:
			return fmt.Errorf("Select(%v): %v; Eval gives %v", in, err, v.I64)
		case !slices.Equal(got, want):
			return fmt.Errorf("Select(%v) = %v, want %v (Eval gives %v)", in, got, want, v.I64)
		}
	}
	return nil
}

// TestSelectSemantics covers what the Eval tables cannot put in one row:
// Select's own paths — literal on either side, both sides vectors, mixed
// numeric types, NaN on either side, OR's merge — at every operator, plus the
// in-place promise. (TestEvalSemantics and TestEvalIllTyped run each of their
// rows through selectAgrees as well.)
func TestSelectSemantics(t *testing.T) {
	env := testEnv()
	env.Cols["g"] = &column.Vector{Typ: column.Float64, F64: []float64{math.NaN(), 0, 2.5, 1}}
	env.Cols["j"] = &column.Vector{Typ: column.Int64, I64: []int64{7, 0, -3, 8}}
	env.Cols["u"] = &column.Vector{Typ: column.String, Str: []string{"alp", "", "betamax", "zed"}}
	sides := [][2]*Node{
		{col("i"), ci(0)}, {ci(7), col("i")}, {col("i"), col("j")}, // int, int
		{col("f"), cf(0)}, {cf(2.5), col("f")}, {col("f"), col("g")}, // float, float
		{col("f"), cf(math.NaN())}, {cf(math.NaN()), col("f")}, // NaN literal: equal to everything
		{col("i"), cf(6.5)}, {col("f"), ci(0)}, {ci(0), col("f")}, {col("i"), col("f")}, {col("f"), col("j")}, // mixed
		{col("s"), cs("alp")}, {cs("alpha"), col("s")}, {col("s"), col("u")}, {substr(col("s"), 1, 3), col("u")}, // strings
		{ci(1), ci(2)}, {cf(1), ci(1)}, {cs("a"), cs("b")}, // two literals
		{op(OpAdd, col("i"), ci(1)), ci(1)}, {ci(1992), op(OpYear, col("d"))}, // computed operand
	}
	var preds []*Node
	for _, s := range sides {
		for o := OpEq; o <= OpGe; o++ {
			preds = append(preds, op(o, s[0], s[1]))
		}
	}
	for i, p := range preds {
		if err := selectAgrees(p, env, 0b1101); err != nil {
			t.Errorf("%v(%v, %v): %v", p.Op, p.Args[0].Op, p.Args[1].Op, err)
		}
		// Each comparison as one arm of an AND, an OR and both under NOT, the
		// other arm another comparison: every pairing of narrow-then-narrow
		// and reject-then-merge.
		q := preds[(i*7+3)%len(preds)]
		for _, both := range []*Node{op(OpAnd, p, q), op(OpOr, p, q), op(OpOr, op(OpAnd, p, q), op(OpNot, op(OpOr, q, p)))} {
			for mask := uint64(0); mask < 16; mask++ {
				if err := selectAgrees(both, env, mask); err != nil {
					t.Fatalf("%v over comparisons %d: %v", both.Op, i, err)
				}
			}
		}
	}

	// In place: the result is a prefix of the slice handed in.
	sel := AllRows(env.N)
	got, err := op(OpOr, op(OpEq, col("i"), ci(7)), op(OpLt, col("f"), ci(0))).Select(env, sel)
	if err != nil || !slices.Equal(got, []int32{0, 2, 3}) || &got[0] != &sel[0] {
		t.Fatalf("Select = %v, %v; want rows 0 2 3 in the caller's slice", got, err)
	}
}
