package expr

import (
	"slices"

	"cloudiq/internal/column"
)

// AllRows returns the selection of every row of an n-row environment.
func AllRows(n int) []int32 {
	sel := make([]int32, n)
	for i := range sel {
		sel[i] = int32(i)
	}
	return sel
}

// Select narrows sel — ascending row numbers of env — to the rows where the
// tree is non-zero, in sel's own storage. It is Eval restricted to a row
// list: for any tree it keeps exactly the rows of sel at which Eval's Int64
// result is non-zero, and fails exactly when Eval fails or yields another
// type. No Eval error depends on a value, so every subtree is checked even
// when no row reaches it: the right side of an AND is run over an empty
// selection rather than skipped.
func (e *Node) Select(env Env, sel []int32) ([]int32, error) {
	if err := e.check(); err != nil {
		return nil, err
	}
	switch {
	case e.Op == OpAnd:
		sel, err := e.Args[0].Select(env, sel)
		if err != nil {
			return nil, err
		}
		return e.Args[1].Select(env, sel)
	case e.Op == OpOr:
		return e.selectOr(env, sel)
	case e.Op >= OpEq && e.Op <= OpGe:
		return e.selectCompare(env, sel)
	case e.Op == OpLike || e.Op == OpIn:
		a, err := e.Args[0].Eval(env)
		if err != nil {
			return nil, err
		}
		if a.Typ != column.String {
			return nil, invalid("%v on %v", e.Op, a.Typ)
		}
		match, err := e.matcher()
		if err != nil {
			return nil, err
		}
		return keep(sel, func(r int32) bool { return match(a.Str[r]) }), nil
	}
	v, err := e.Eval(env)
	if err != nil {
		return nil, err
	}
	if v.Typ != column.Int64 {
		return nil, invalid("predicate yields %v", v.Typ)
	}
	return keep(sel, func(r int32) bool { return v.I64[r] != 0 }), nil
}

// keep narrows sel in place to the rows ok accepts.
func keep(sel []int32, ok func(r int32) bool) []int32 {
	n := 0
	for _, r := range sel {
		sel[n] = r
		if ok(r) {
			n++
		}
	}
	return sel[:n]
}

// selectOr shows the right operand only the rows the left one rejected. Both
// narrow a copy, and their ascending results merge back into sel.
func (e *Node) selectOr(env Env, sel []int32) ([]int32, error) {
	tmp := slices.Clone(sel)
	left, err := e.Args[0].Select(env, tmp)
	if err != nil {
		return nil, err
	}
	rest := tmp[len(left):len(left)] // fills what left gave up: len(sel)-len(left) rows
	i := 0
	for _, r := range sel {
		if i < len(left) && left[i] == r {
			i++
		} else {
			rest = append(rest, r)
		}
	}
	right, err := e.Args[1].Select(env, rest)
	if err != nil {
		return nil, err
	}
	out, i, j := sel[:0], 0, 0
	for i < len(left) && j < len(right) {
		if left[i] < right[j] {
			out = append(out, left[i])
			i++
		} else {
			out = append(out, right[j])
			j++
		}
	}
	return append(append(out, left[i:]...), right[j:]...), nil
}

// isLit reports whether e is a literal leaf.
func (e *Node) isLit() bool { return e != nil && e.Op >= OpInt && e.Op <= OpStr }

// selectCompare compares at the selected rows only, and against a literal
// without broadcasting it: a literal on the left moves to the right under the
// flipped operator. Types pair as in compare.
func (e *Node) selectCompare(env Env, sel []int32) ([]int32, error) {
	a, b, op := e.Args[0], e.Args[1], e.Op
	if a.isLit() {
		a, b, op = b, a, op.Flip()
	}
	av, err := a.Eval(env)
	if err != nil {
		return nil, err
	}
	if !b.isLit() {
		bv, err := b.Eval(env)
		if err != nil {
			return nil, err
		}
		switch {
		case av.Typ == column.String && bv.Typ == column.String:
			return compareAt(op, av.Str, bv.Str, sel), nil
		case av.Typ == column.Int64 && bv.Typ == column.Int64:
			return compareAt(op, av.I64, bv.I64, sel), nil
		case av.Typ != column.String && bv.Typ != column.String:
			return compareAt(op, floats(av), floats(bv), sel), nil
		}
		return nil, invalid("comparing %v with %v", av.Typ, bv.Typ)
	}
	if err := b.check(); err != nil {
		return nil, err
	}
	switch {
	case av.Typ == column.String && b.Op == OpStr:
		return compareLit(op, av.Str, b.S, sel), nil
	case av.Typ == column.Int64 && b.Op == OpInt:
		return compareLit(op, av.I64, b.I, sel), nil
	case av.Typ == column.Float64 && b.Op == OpInt:
		return compareLit(op, av.F64, float64(b.I), sel), nil
	case av.Typ != column.String && b.Op == OpFloat:
		return compareLit(op, floats(av), b.F, sel), nil
	}
	return nil, invalid("comparing %v with a %v literal", av.Typ, b.Op)
}

// compareLit narrows sel to the rows where "col[r] op lit" holds, by
// compareRows' rule: an operand that is neither less nor greater — a NaN —
// compares equal, so ge is "not less", le "not greater" and eq "neither".
// Every row is stored and only the count depends on the comparison, which
// compiles without a branch: a filter's first comparisons pass an
// unpredictable fraction of rows.
func compareLit[T int64 | float64 | string](op Op, col []T, lit T, sel []int32) []int32 {
	not := op == OpGe || op == OpLe || op == OpEq
	n := 0
	switch op {
	case OpLt, OpGe:
		for _, r := range sel {
			sel[n] = r
			if (col[r] < lit) != not {
				n++
			}
		}
	case OpGt, OpLe:
		for _, r := range sel {
			sel[n] = r
			if (col[r] > lit) != not {
				n++
			}
		}
	default:
		for _, r := range sel {
			sel[n] = r
			if x := col[r]; (x < lit || x > lit) != not {
				n++
			}
		}
	}
	return sel[:n]
}

// compareAt is compareLit with a second vector for the literal; gt and le
// run as lt and ge of the swapped operands.
func compareAt[T int64 | float64 | string](op Op, a, b []T, sel []int32) []int32 {
	if op == OpGt || op == OpLe {
		a, b, op = b, a, op.Flip()
	}
	not := op == OpGe || op == OpEq
	n := 0
	if op == OpLt || op == OpGe {
		for _, r := range sel {
			sel[n] = r
			if (a[r] < b[r]) != not {
				n++
			}
		}
		return sel[:n]
	}
	for _, r := range sel {
		sel[n] = r
		if x, y := a[r], b[r]; (x < y || x > y) != not {
			n++
		}
	}
	return sel[:n]
}
