package expr

import (
	"errors"
	"fmt"
	"maps"
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
	return dictAgrees(e, env, mask)
}

// dictAgrees is selectAgrees' dictionary mode: the tree, prepared as a
// Filter, runs over a Segment of env's columns tiled three times and stored
// as column.EncodeSegment writes them — a string column whose values repeat
// becomes a dictionary page, and a conjunct reading it alone runs over its
// words — and must keep exactly the rows Select keeps over the same tiled
// vectors, and fail, with ErrInvalid, exactly when Select does.
func dictAgrees(e *Node, env Vectors, mask uint64) error {
	const tiles = 3
	tiled := Vectors{Cols: make(map[string]*column.Vector, len(env.Cols)), N: tiles * env.N}
	var names []string
	var pages [][]byte
	for _, name := range slices.Sorted(maps.Keys(env.Cols)) {
		v := column.NewVector(env.Cols[name].Typ)
		for range tiles {
			v.AppendVector(env.Cols[name])
		}
		tiled.Cols[name] = v
		names, pages = append(names, name), append(pages, column.EncodeSegment(v))
	}
	f := Prepare(e, func(col string) bool { v := tiled.Cols[col]; return v != nil && v.Typ == column.String })
	if f == nil {
		return nil // a nil tree prepares as no filter at all
	}
	var all, some []int32
	for r := 0; r < tiled.N; r++ {
		all = append(all, int32(r))
		if mask>>(r%64)&1 == 1 {
			some = append(some, int32(r))
		}
	}
	for _, sel := range [][]int32{all, some, {}} {
		want, wantErr := e.Select(tiled, slices.Clone(sel))
		got, err := f.Select(NewSegment(names, pages, tiled.N), slices.Clone(sel))
		switch {
		case wantErr != nil:
			if !errors.Is(err, ErrInvalid) {
				return fmt.Errorf("dictionary Select(%v) = %v, %v; over vectors %v", sel, got, err, wantErr)
			}
		case err != nil:
			return fmt.Errorf("dictionary Select(%v): %v; over vectors %v", sel, err, want)
		case !slices.Equal(got, want):
			return fmt.Errorf("dictionary Select(%v) = %v, over vectors %v", sel, got, want)
		}
	}
	return nil
}

// TestPrepareCodeSpace pins which conjuncts run in code space — those that
// read one string column alone — and that they do run there: over a
// dictionary page the column is never decoded whole.
func TestPrepareCodeSpace(t *testing.T) {
	isString := func(col string) bool { return col == "s" || col == "u" }
	oneCol := []*Node{
		op(OpEq, col("s"), cs("alpha")), op(OpEq, cs("alpha"), col("s")), in(col("s"), "alp", ""),
		like(col("s"), "%a%", false), op(OpNot, like(col("s"), "b%", true)),
		op(OpEq, substr(col("s"), 1, 3), cs("alp")), op(OpOr, in(col("s"), "beta"), op(OpGe, col("s"), cs("b"))),
		op(OpLt, col("s"), col("s")), op(OpEq, col("s"), ci(1)), // reads s alone, ill-typed: fails over the words too
	}
	mixed := []*Node{
		op(OpOr, op(OpEq, col("s"), cs("alpha")), op(OpLt, col("i"), ci(0))),                // two columns
		op(OpEq, col("s"), col("u")), op(OpLt, col("i"), ci(0)), op(OpEq, cs("a"), cs("a")), // two strings, a number, none
		op(OpEq, col("ghost"), cs("a")), // no such column in isString
	}
	for _, e := range oneCol {
		f := Prepare(op(OpAnd, op(OpGe, col("i"), ci(0)), e), isString)
		if len(f.terms) != 2 || f.terms[0].col != "" || f.terms[1].col != "s" {
			t.Errorf("%v: terms %+v, want the second on s", e, f.terms)
		}
	}
	for _, e := range mixed {
		f := Prepare(op(OpAnd, e, op(OpGe, col("i"), ci(0))), isString)
		if len(f.terms) != 2 || f.terms[0].col != "" || f.terms[1].col != "" {
			t.Errorf("%v: terms %+v, want none in code space", e, f.terms)
		}
	}
	if Prepare(nil, isString) != nil {
		t.Error("Prepare(nil) is not nil")
	}

	s := &column.Vector{Typ: column.String}
	for r := 0; r < 60; r++ {
		s.AppendStr([]string{"alpha", "beta", "alp", ""}[r*7%4])
	}
	page := column.EncodeSegment(s)
	if column.Encoding(page[1]) != column.EncDictString {
		t.Fatalf("test page is %v", column.Encoding(page[1]))
	}
	for _, e := range oneCol[:7] {
		seg := NewSegment([]string{"s"}, [][]byte{page}, s.Len())
		got, err := Prepare(e, isString).Select(seg, AllRows(s.Len()))
		decoded := seg.vecs[0] != nil
		want, wantErr := e.Select(Vectors{Cols: map[string]*column.Vector{"s": s}, N: s.Len()}, AllRows(s.Len()))
		if err != nil || wantErr != nil || !slices.Equal(got, want) || decoded {
			t.Errorf("%v: %v, %v; over vectors %v, %v; decoded whole %v", e, got, err, want, wantErr, decoded)
		}
	}
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
