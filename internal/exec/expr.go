// Package exec is the vectorized query execution layer: expressions
// evaluated over columnar batches, and the physical operators — zone-map-
// pruned prefetching scans, hash joins (inner/left/semi/anti), hash
// aggregation with DISTINCT support, sort and limit — that the TPC-H query
// plans compose. It is deliberately a physical algebra: plans are built in
// Go, as the reproduction's stand-in for SAP IQ's optimizer output.
package exec

import "cloudiq/internal/expr"

// Expr is an expression tree of the shared kernel (internal/expr), the same
// nodes the object store evaluates for a pushed-down scan. Eval takes any
// expr.Env — a *table.Batch is one — and yields one vector over it; boolean
// expressions yield Int64 vectors of 0/1. A nil Expr means "absent".
type Expr = *expr.Node

func binop(op expr.Op, a, b Expr) Expr { return &expr.Node{Op: op, Args: []*expr.Node{a, b}} }

// Col references a column of the input batch by name.
func Col(name string) Expr { return &expr.Node{Op: expr.OpCol, Col: name} }

// ConstI is an int64 literal. Dates are int64 days, so date literals use
// ConstI(column.DateToDays(...)).
func ConstI(v int64) Expr { return &expr.Node{Op: expr.OpInt, I: v} }

// ConstF is a float64 literal.
func ConstF(v float64) Expr { return &expr.Node{Op: expr.OpFloat, F: v} }

// ConstS is a string literal.
func ConstS(v string) Expr { return &expr.Node{Op: expr.OpStr, S: v} }

// Add returns a+b with numeric promotion (any float operand makes the
// result float).
func Add(a, b Expr) Expr { return binop(expr.OpAdd, a, b) }

// Sub returns a-b.
func Sub(a, b Expr) Expr { return binop(expr.OpSub, a, b) }

// Mul returns a*b.
func Mul(a, b Expr) Expr { return binop(expr.OpMul, a, b) }

// Div returns a/b (float division).
func Div(a, b Expr) Expr { return binop(expr.OpDiv, a, b) }

// Eq returns a = b as 0/1.
func Eq(a, b Expr) Expr { return binop(expr.OpEq, a, b) }

// Ne returns a <> b.
func Ne(a, b Expr) Expr { return binop(expr.OpNe, a, b) }

// Lt returns a < b.
func Lt(a, b Expr) Expr { return binop(expr.OpLt, a, b) }

// Le returns a <= b.
func Le(a, b Expr) Expr { return binop(expr.OpLe, a, b) }

// Gt returns a > b.
func Gt(a, b Expr) Expr { return binop(expr.OpGt, a, b) }

// Ge returns a >= b.
func Ge(a, b Expr) Expr { return binop(expr.OpGe, a, b) }

// And returns a AND b.
func And(a, b Expr) Expr { return binop(expr.OpAnd, a, b) }

// Or returns a OR b.
func Or(a, b Expr) Expr { return binop(expr.OpOr, a, b) }

// Not negates a boolean expression.
func Not(a Expr) Expr { return &expr.Node{Op: expr.OpNot, Args: []*expr.Node{a}} }

// Like matches a SQL LIKE pattern (only '%' wildcards, as TPC-H uses).
func Like(a Expr, pattern string) Expr {
	return &expr.Node{Op: expr.OpLike, Pattern: pattern, Args: []*expr.Node{a}}
}

// NotLike is the negation of Like.
func NotLike(a Expr, pattern string) Expr {
	return &expr.Node{Op: expr.OpLike, Pattern: pattern, Neg: true, Args: []*expr.Node{a}}
}

// InS tests membership in a string list.
func InS(a Expr, vals ...string) Expr {
	return &expr.Node{Op: expr.OpIn, Set: expr.NewSet(vals), Args: []*expr.Node{a}}
}

// Case returns then where cond is true, otherwise els. then/els must be
// numeric; unless both are Int64 the result is Float64.
func Case(cond, then, els Expr) Expr {
	return &expr.Node{Op: expr.OpCase, Args: []*expr.Node{cond, then, els}}
}

// Substr returns the 1-based substring of length n.
func Substr(a Expr, start, n int) Expr {
	return &expr.Node{Op: expr.OpSubstr, Start: start, N: n, Args: []*expr.Node{a}}
}

// Year extracts the calendar year of a date (int64 days) expression.
func Year(a Expr) Expr { return &expr.Node{Op: expr.OpYear, Args: []*expr.Node{a}} }
