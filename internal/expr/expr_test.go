package expr

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"cloudiq/internal/column"
)

// testEnv is the fixed three-type environment the tables and the fuzz target
// evaluate over.
func testEnv() Vectors {
	return Vectors{N: 4, Cols: map[string]*column.Vector{
		"i": {Typ: column.Int64, I64: []int64{-3, 0, 7, 7}},
		"f": {Typ: column.Float64, F64: []float64{-1.5, 0, 2.5, math.NaN()}},
		"s": {Typ: column.String, Str: []string{"alpha", "", "betamax", "alp"}},
		"d": {Typ: column.Int64, I64: []int64{
			column.DateToDays(1992, 1, 1), column.DateToDays(1995, 6, 15),
			column.DateToDays(1998, 12, 31), 0}},
	}}
}

func col(name string) *Node        { return &Node{Op: OpCol, Col: name} }
func ci(v int64) *Node             { return &Node{Op: OpInt, I: v} }
func cf(v float64) *Node           { return &Node{Op: OpFloat, F: v} }
func cs(v string) *Node            { return &Node{Op: OpStr, S: v} }
func op(o Op, args ...*Node) *Node { return &Node{Op: o, Args: args} }
func like(a *Node, p string, neg bool) *Node {
	return &Node{Op: OpLike, Pattern: p, Neg: neg, Args: []*Node{a}}
}
func in(a *Node, vals ...string) *Node { return &Node{Op: OpIn, Set: NewSet(vals), Args: []*Node{a}} }
func substr(a *Node, start, n int) *Node {
	return &Node{Op: OpSubstr, Start: start, N: n, Args: []*Node{a}}
}

// TestEvalSemantics is the one table of evaluator semantics; the reader and
// the store both run this code, so neither keeps a copy of these cases.
func TestEvalSemantics(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		e    *Node
		want any // []int64, []float64 or []string: fixes the result type too
	}{
		// Promotion: integers stay integers except under division; any float
		// operand promotes.
		{"int+int", op(OpAdd, col("i"), ci(1)), []int64{-2, 1, 8, 8}},
		{"int-int", op(OpSub, ci(1), col("i")), []int64{4, 1, -6, -6}},
		{"int*int", op(OpMul, col("i"), col("i")), []int64{9, 0, 49, 49}},
		{"int/int is float", op(OpDiv, col("i"), ci(2)), []float64{-1.5, 0, 3.5, 3.5}},
		{"int+float", op(OpAdd, col("i"), cf(0.5)), []float64{-2.5, 0.5, 7.5, 7.5}},
		{"float*int", op(OpMul, col("f"), ci(2)), []float64{-3, 0, 5, nan}},
		{"float/float", op(OpDiv, cf(1), cf(4)), []float64{0.25, 0.25, 0.25, 0.25}},
		{"div by zero", op(OpDiv, col("i"), ci(0)), []float64{math.Inf(-1), nan, math.Inf(1), math.Inf(1)}},
		// Comparisons: same-type directly, mixed numerics promoted, NaN
		// orders as equal.
		{"int<int", op(OpLt, col("i"), ci(7)), []int64{1, 1, 0, 0}},
		{"int>=int", op(OpGe, col("i"), ci(0)), []int64{0, 1, 1, 1}},
		{"int=float", op(OpEq, col("i"), cf(7)), []int64{0, 0, 1, 1}},
		{"float<=int", op(OpLe, col("f"), ci(0)), []int64{1, 1, 0, 1}},
		{"float<>float", op(OpNe, col("f"), cf(2.5)), []int64{1, 1, 0, 0}},
		{"float>float", op(OpGt, col("f"), cf(-1.5)), []int64{0, 1, 1, 0}},
		{"str=str", op(OpEq, col("s"), cs("alp")), []int64{0, 0, 0, 1}},
		{"str<str", op(OpLt, col("s"), cs("alpha")), []int64{0, 1, 0, 1}},
		// Booleans are 0/1 Int64; any non-zero operand is true.
		{"and", op(OpAnd, col("i"), op(OpGt, col("i"), ci(0))), []int64{0, 0, 1, 1}},
		{"or", op(OpOr, col("i"), op(OpEq, col("s"), cs(""))), []int64{1, 1, 1, 1}},
		{"not", op(OpNot, col("i")), []int64{0, 1, 0, 0}},
		// LIKE: '%' is the only wildcard.
		{"like exact", like(col("s"), "alp", false), []int64{0, 0, 0, 1}},
		{"like prefix", like(col("s"), "alp%", false), []int64{1, 0, 0, 1}},
		{"like suffix", like(col("s"), "%a", false), []int64{1, 0, 0, 0}},
		{"like infix", like(col("s"), "%et%", false), []int64{0, 0, 1, 0}},
		{"like two infixes in order", like(col("s"), "%a%a%", false), []int64{1, 0, 1, 0}},
		{"like prefix+suffix may not overlap", like(col("s"), "alp%lpha", false), []int64{0, 0, 0, 0}},
		{"like all", like(col("s"), "%", false), []int64{1, 1, 1, 1}},
		{"like doubled wildcard", like(col("s"), "%%max", false), []int64{0, 0, 1, 0}},
		{"like empty pattern", like(col("s"), "", false), []int64{0, 1, 0, 0}},
		{"not like", like(col("s"), "alp%", true), []int64{0, 1, 1, 0}},
		// IN, CASE, SUBSTRING, YEAR.
		{"in", in(col("s"), "betamax", "", "betamax"), []int64{0, 1, 1, 0}},
		{"in empty set", in(col("s")), []int64{0, 0, 0, 0}},
		{"case int", op(OpCase, op(OpGt, col("i"), ci(0)), col("i"), ci(-1)), []int64{-1, -1, 7, 7}},
		{"case promotes both branches", op(OpCase, col("i"), ci(1), cf(0.5)), []float64{1, 0.5, 1, 1}},
		{"substr", substr(col("s"), 2, 3), []string{"lph", "", "eta", "lp"}},
		{"substr start clamps low", substr(col("s"), -4, 2), []string{"al", "", "be", "al"}},
		{"substr start past end", substr(col("s"), 9, 2), []string{"", "", "", ""}},
		{"substr length clamps", substr(col("s"), 4, 99), []string{"ha", "", "amax", ""}},
		{"substr negative length", substr(col("s"), 1, -1), []string{"", "", "", ""}},
		{"substr feeds compare", op(OpEq, substr(col("s"), 1, 3), cs("alp")), []int64{1, 0, 0, 1}},
		{"year", op(OpYear, col("d")), []int64{1992, 1995, 1998, 1970}},
		// Literals broadcast to the environment's row count.
		{"str literal", cs("x"), []string{"x", "x", "x", "x"}},
	}
	env := testEnv()
	for _, c := range cases {
		if err := selectAgrees(c.e, env, 0b1011); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		v, err := c.e.Eval(env)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		var got any
		switch v.Typ {
		case column.Int64:
			got = v.I64
		case column.Float64:
			// Compare by bit pattern, so that NaN matches NaN.
			got = floatBits(v.F64)
			if wf, ok := c.want.([]float64); ok {
				c.want = floatBits(wf)
			}
		default:
			got = v.Str
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s = %v (%v), want %v", c.name, got, v.Typ, c.want)
		}
	}
}

// floatBits maps floats to their bit patterns, every NaN to the same one.
func floatBits(fs []float64) []uint64 {
	out := make([]uint64, len(fs))
	for i, f := range fs {
		if math.IsNaN(f) {
			f = math.NaN()
		}
		out[i] = math.Float64bits(f)
	}
	return out
}

// TestEvalIllTyped: a malformed or ill-typed tree is an error, never a
// panic. The boolean and CASE rows index-panicked in the reader's evaluator
// while the store's copy refused them.
func TestEvalIllTyped(t *testing.T) {
	cases := map[string]*Node{
		"nil tree":              nil,
		"nil operand":           op(OpAdd, col("i"), nil),
		"unknown operator":      {Op: numOps},
		"unknown column":        col("ghost"),
		"missing operand":       op(OpAdd, col("i")),
		"extra operand":         op(OpNot, col("i"), col("i")),
		"operand on a leaf":     {Op: OpInt, Args: []*Node{nil}},
		"arithmetic on strings": op(OpMul, col("s"), ci(2)),
		"string vs number":      op(OpEq, col("s"), ci(1)),
		"and of floats":         op(OpAnd, col("f"), col("f")),
		"or of strings":         op(OpOr, col("i"), col("s")),
		"not of float":          op(OpNot, col("f")),
		"like on int":           like(col("i"), "%", false),
		"in on float":           in(col("f"), "x"),
		"in set unsorted":       {Op: OpIn, Set: []string{"b", "a"}, Args: []*Node{col("s")}},
		"case on float":         op(OpCase, col("f"), ci(1), ci(0)),
		"case on string":        op(OpCase, col("s"), ci(1), ci(0)),
		"case string branches":  op(OpCase, col("i"), col("s"), col("s")),
		"substr on int":         substr(col("i"), 1, 1),
		"year on string":        op(OpYear, col("s")),
		"error below the root":  op(OpNot, op(OpLt, col("i"), col("ghost"))),
	}
	env := testEnv()
	for name, e := range cases {
		if v, err := e.Eval(env); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: got %v, %v; want ErrInvalid", name, v, err)
		}
		if err := selectAgrees(e, env, 0b0110); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		// An ill-typed operand fails a selection wherever it sits, reached by
		// a row or not.
		for _, wrapped := range []*Node{
			op(OpAnd, op(OpLt, col("i"), ci(-99)), e), op(OpOr, op(OpGt, col("i"), ci(-99)), e),
			op(OpAnd, e, ci(1)), op(OpEq, e, ci(1)), op(OpGe, cf(1), e), like(e, "%", false),
		} {
			if sel, err := wrapped.Select(env, AllRows(env.N)); !errors.Is(err, ErrInvalid) {
				t.Errorf("%s under %v: selected %v, %v; want ErrInvalid", name, wrapped.Op, sel, err)
			}
		}
	}
	if _, err := AggInput(Sum, col("s"), env); !errors.Is(err, ErrInvalid) {
		t.Errorf("sum over strings: %v", err)
	}
	if _, err := AggInput(Min, nil, env); !errors.Is(err, ErrInvalid) {
		t.Errorf("min without input: %v", err)
	}
	if _, err := AggInput(CountDistinct+1, col("i"), env); !errors.Is(err, ErrInvalid) {
		t.Errorf("unknown aggregate: %v", err)
	}
}

func TestNewSet(t *testing.T) {
	in := []string{"zeta", "alpha", "mid", "alpha"}
	if got := NewSet(in); !reflect.DeepEqual(got, []string{"alpha", "mid", "zeta"}) {
		t.Fatalf("NewSet = %v", got)
	}
	if in[0] != "zeta" {
		t.Fatal("NewSet reordered its argument")
	}
}

// TestAggMergeEqualsFold: folding rows into partial states and merging them
// in order gives the value one fold over all rows gives — the property that
// makes store-side partial aggregation exact.
func TestAggMergeEqualsFold(t *testing.T) {
	env := testEnv()
	for _, in := range []*Node{nil, col("i"), col("s"), op(OpMul, col("i"), ci(3)), col("d")} {
		for _, f := range []AggFunc{Count, Sum, Min, Max} {
			input, err := AggInput(f, in, env)
			if err != nil {
				continue // count(*) is the only function of a nil input; sum has no strings
			}
			for cut := 0; cut <= env.N; cut++ {
				// One fold over every row, and one partial per side of cut
				// merged into a third aggregator.
				whole, merged := Aggregator{Func: f}, Aggregator{Func: f}
				whole.Fold(input, make([]int32, env.N), 1)
				for _, rows := range [][2]int{{0, cut}, {cut, env.N}} {
					half := Aggregator{Func: f}
					part := input
					if input != nil {
						part = input.Slice(rows[0], rows[1])
					}
					half.Fold(part, make([]int32, rows[1]-rows[0]), 1)
					st := half.Partial()
					merged.Merge(&st)
				}
				if got, want := merged.Partial(), whole.Partial(); !reflect.DeepEqual(got, want) {
					t.Errorf("func %d cut %d: merged %+v, whole %+v", f, cut, got, want)
				}
				if got, want := merged.Column(1), whole.Column(1); !reflect.DeepEqual(got, want) {
					t.Errorf("func %d cut %d: merged column %+v, whole %+v", f, cut, got, want)
				}
			}
		}
	}
}

func TestAggFold(t *testing.T) {
	env := testEnv()
	fold := func(f AggFunc, e *Node) *Aggregator {
		input, err := AggInput(f, e, env)
		if err != nil {
			t.Fatal(err)
		}
		a := &Aggregator{Func: f}
		a.Fold(input, make([]int32, env.N), 1)
		return a
	}
	value := func(f AggFunc, e *Node) *column.Vector { return fold(f, e).Column(1) }
	if v := value(Count, nil); v.Typ != column.Int64 || v.I64[0] != 4 {
		t.Errorf("count(*) = %+v", v)
	}
	if v := value(Sum, col("i")); v.Typ != column.Int64 || v.I64[0] != 11 {
		t.Errorf("sum(i) = %+v", v)
	}
	if v := value(Avg, op(OpDiv, col("i"), ci(2))); v.Typ != column.Float64 || v.F64[0] != 5.5/4 {
		t.Errorf("avg(i/2) = %+v", v)
	}
	if v := value(Min, col("s")); v.Typ != column.String || v.Str[0] != "" {
		t.Errorf("min(s) = %+v", v)
	}
	if v := value(Max, col("s")); v.Typ != column.String || v.Str[0] != "betamax" {
		t.Errorf("max(s) = %+v", v)
	}
	if v := value(Min, col("i")); v.I64[0] != -3 {
		t.Errorf("min(i) = %+v", v)
	}
	if v := value(Max, col("i")); v.I64[0] != 7 {
		t.Errorf("max(i) = %+v", v)
	}
	if v := value(CountDistinct, col("i")); v.Typ != column.Int64 || v.I64[0] != 3 {
		t.Errorf("count(distinct i) = %+v", v)
	}
	if v := value(CountDistinct, col("s")); v.I64[0] != 4 {
		t.Errorf("count(distinct s) = %+v", v)
	}
}

// TestAggFoldGroups: rows of different groups keep apart, a group's rows are
// folded in row order across batches, and count(distinct) — as of the last
// Finish — counts a value once per group however many batches repeat it.
func TestAggFoldGroups(t *testing.T) {
	f64 := func(xs ...float64) *column.Vector { return &column.Vector{Typ: column.Float64, F64: xs} }
	sum, avg := Aggregator{Func: Sum}, Aggregator{Func: Avg}
	for _, a := range []*Aggregator{&sum, &avg} {
		a.Fold(f64(1e16, 1, 1, -1e16), []int32{0, 1, 0, 0}, 2)
		a.Fold(f64(1, 2), []int32{0, 1}, 2)
	}
	want := 0.0
	for _, x := range []float64{1e16, 1, -1e16, 1} { // group 0's rows in order: the 1 after 1e16 is absorbed
		want += x
	}
	sums, avgs := sum.Column(2), avg.Column(2)
	if got := sums.F64[0]; got != want || want != 1 {
		t.Errorf("group 0 sum = %v, want the row-order sum %v", got, want)
	}
	if sums.F64[1] != 3 || avgs.F64[1] != 1.5 {
		t.Errorf("group 1: sum %v, avg %v", sums.F64[1], avgs.F64[1])
	}

	distinct := func(name string, a *Aggregator, want ...int) {
		t.Helper()
		for pass := 1; pass <= 2; pass++ { // a second Finish changes nothing
			a.Finish()
			for g, w := range want {
				if got := a.Distinct(g); got != w {
					t.Errorf("%s, finish %d: group %d distinct = %d, want %d", name, pass, g, got, w)
				}
			}
		}
	}

	// Floats by bit pattern; rows folded after a Finish are counted by the
	// next; group 4 is covered by Grow but no row reaches it.
	dist := Aggregator{Func: CountDistinct}
	negZero := math.Copysign(0, -1)
	dist.Fold(f64(0, negZero, math.NaN(), 7), []int32{0, 0, 1, 2}, 3)
	distinct("floats, first batch", &dist, 2, 1, 1)
	dist.Fold(f64(0, math.NaN(), 7, 7), []int32{0, 1, 1, 3}, 4)
	dist.Grow(5)
	distinct("floats", &dist, 2, 2, 1, 1, 0)

	// Group 0's values arrive in the first and third batches, among other
	// groups' rows, and 5 and 9 are in both.
	i64 := func(xs ...int64) *column.Vector { return &column.Vector{Typ: column.Int64, I64: xs} }
	ints := Aggregator{Func: CountDistinct}
	ints.Fold(i64(5, 1, 9, 5), []int32{0, 1, 0, 2}, 3)
	ints.Fold(i64(1, 3, 3), []int32{1, 2, 1}, 3)
	ints.Fold(i64(9, 4, 5, 1), []int32{0, 1, 0, 0}, 3)
	distinct("ints", &ints, 3, 3, 2)

	// Strings by content: a NUL is an ordinary byte, and a prefix is a
	// different string.
	str := func(xs ...string) *column.Vector { return &column.Vector{Typ: column.String, Str: xs} }
	strs := Aggregator{Func: CountDistinct}
	strs.Fold(str("a", "a\x00b", "ab", "a\x00c", "", "a\x00", "a"), []int32{0, 0, 0, 0, 0, 0, 1}, 2)
	strs.Fold(str("a\x00b", "", "a", "ab"), []int32{0, 1, 0, 1}, 2)
	distinct("strings", &strs, 6, 3)
}
