// Package expr is the engine's one expression and aggregate kernel: a
// plain-data expression tree, its vectorised evaluator, and the mergeable
// aggregate state. The reader (internal/exec) and the object store's compute
// endpoint (internal/objstore) build and evaluate the same nodes, so a
// pushed-down plan cannot drift from a reader-side scan. It sits directly
// above internal/column and imports nothing else from the module.
package expr

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"cloudiq/internal/column"
)

// ErrInvalid reports a tree the evaluator refuses: a nil or unknown node, a
// wrong operand count, an unknown column, or an operand of the wrong type.
// Every Eval failure wraps it; evaluation never panics on a malformed tree.
var ErrInvalid = errors.New("expr: invalid expression")

func invalid(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalid, fmt.Sprintf(format, args...))
}

// Op selects a node's operator. The comments name the Node fields each
// operator reads; booleans are Int64 0/1 vectors.
type Op uint8

// The operators, grouped so a range test picks the kernel.
const (
	OpCol   Op = iota // Col: column reference
	OpInt             // I: int64 literal (dates are int64 days)
	OpFloat           // F: float64 literal
	OpStr             // S: string literal

	OpAdd // Args[0] + Args[1]; Int64 unless an operand is Float64
	OpSub
	OpMul
	OpDiv // always Float64

	OpEq // Args[0] ? Args[1]; both strings, or both numeric (mixed promotes)
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe

	OpAnd // Args[0], Args[1] boolean
	OpOr
	OpNot    // Args[0] boolean
	OpLike   // Args[0] string matches Pattern ('%' wildcards), negated by Neg
	OpIn     // Args[0] string is a member of Set
	OpCase   // Args[0] boolean picks Args[1], else Args[2]; numeric branches
	OpSubstr // Args[0] string, 1-based Start, length N, clamped to the value
	OpYear   // calendar year of Args[0], an Int64 day count

	numOps
)

var opNames = [numOps]string{"col", "int", "float", "str", "add", "sub", "mul", "div",
	"eq", "ne", "lt", "le", "gt", "ge", "and", "or", "not", "like", "in", "case", "substr", "year"}

func (op Op) String() string {
	if op < numOps {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// arity is the operand count each operator requires.
var arity = [numOps]int{OpAdd: 2, OpSub: 2, OpMul: 2, OpDiv: 2,
	OpEq: 2, OpNe: 2, OpLt: 2, OpLe: 2, OpGt: 2, OpGe: 2,
	OpAnd: 2, OpOr: 2, OpNot: 1, OpLike: 1, OpIn: 1, OpCase: 3, OpSubstr: 1, OpYear: 1}

// Node is one node of an expression tree. It is plain data — no closures,
// no maps — so a tree is comparable field by field and can be given a wire
// encoding without changing its shape.
type Node struct {
	Op      Op
	Col     string
	I       int64
	F       float64
	S       string
	Pattern string
	Neg     bool
	// Set is the IN list, sorted and de-duplicated (see NewSet): membership
	// is a binary search, and equal lists give equal nodes.
	Set      []string
	Start, N int
	Args     []*Node
}

// NewSet returns vals as an OpIn set: sorted, without duplicates.
func NewSet(vals []string) []string {
	set := slices.Clone(vals)
	slices.Sort(set)
	return slices.Compact(set)
}

// Env is what a tree is evaluated over: named column vectors, all Rows long.
type Env interface {
	// Vec returns the named column, or nil if there is none.
	Vec(name string) *column.Vector
	Rows() int
}

// Vectors is the plain Env: a name → vector map plus the shared row count.
type Vectors struct {
	Cols map[string]*column.Vector
	N    int
}

// Vec implements Env.
func (v Vectors) Vec(name string) *column.Vector { return v.Cols[name] }

// Rows implements Env.
func (v Vectors) Rows() int { return v.N }

// check refuses a node that is nil, of an unknown operator, or of the wrong
// operand count; its operands are checked when they are evaluated.
func (e *Node) check() error {
	switch {
	case e == nil:
		return invalid("nil node")
	case e.Op >= numOps:
		return invalid("unknown operator %d", uint8(e.Op))
	case len(e.Args) != arity[e.Op]:
		return invalid("%v takes %d operands, got %d", e.Op, arity[e.Op], len(e.Args))
	}
	return nil
}

// Eval evaluates the tree over env into one vector of env.Rows() rows.
// Types are dispatched once per node; the per-row loops are monomorphic.
func (e *Node) Eval(env Env) (*column.Vector, error) {
	if err := e.check(); err != nil {
		return nil, err
	}
	switch e.Op {
	case OpCol:
		v := env.Vec(e.Col)
		if v == nil {
			return nil, invalid("no column %q", e.Col)
		}
		return v, nil
	case OpInt:
		return ints(fill(env.Rows(), e.I)), nil
	case OpFloat:
		return &column.Vector{Typ: column.Float64, F64: fill(env.Rows(), e.F)}, nil
	case OpStr:
		return &column.Vector{Typ: column.String, Str: fill(env.Rows(), e.S)}, nil
	}
	var args [3]*column.Vector
	for i, a := range e.Args {
		v, err := a.Eval(env)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	a, b := args[0], args[1]
	switch {
	case e.Op <= OpDiv:
		return arith(e.Op, a, b)
	case e.Op <= OpGe:
		return compare(e.Op, a, b)
	case e.Op <= OpOr:
		return logic(e.Op, a, b)
	case e.Op == OpCase:
		return pick(a, b, args[2])
	}
	// The remaining operators are unary over one fixed operand type.
	want := column.String
	if e.Op == OpNot || e.Op == OpYear {
		want = column.Int64
	}
	if a.Typ != want {
		return nil, invalid("%v on %v", e.Op, a.Typ)
	}
	if e.Op == OpSubstr {
		out := make([]string, len(a.Str))
		for i, s := range a.Str {
			lo := min(max(e.Start-1, 0), len(s))
			out[i] = s[lo:min(max(lo+e.N, lo), len(s))]
		}
		return &column.Vector{Typ: column.String, Str: out}, nil
	}
	out := make([]int64, a.Len())
	switch e.Op {
	case OpNot:
		for i, x := range a.I64 {
			out[i] = b2i(x == 0)
		}
	case OpYear:
		for i, d := range a.I64 {
			out[i] = int64(column.DaysToDate(d).Year())
		}
	default: // OpLike, OpIn
		match, err := e.matcher()
		if err != nil {
			return nil, err
		}
		for i, s := range a.Str {
			out[i] = b2i(match(s))
		}
	}
	return ints(out), nil
}

// matcher returns the string predicate of a LIKE or IN node.
func (e *Node) matcher() (func(string) bool, error) {
	if e.Op == OpLike {
		parts := strings.Split(e.Pattern, "%")
		return func(s string) bool { return matchLike(s, parts) != e.Neg }, nil
	}
	if !slices.IsSorted(e.Set) {
		return nil, invalid("IN set is not sorted")
	}
	return func(s string) bool {
		_, found := slices.BinarySearch(e.Set, s)
		return found
	}, nil
}

func ints(v []int64) *column.Vector { return &column.Vector{Typ: column.Int64, I64: v} }

func fill[T any](n int, x T) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = x
	}
	return out
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// floats views a numeric vector as float64s, converting an Int64 one.
func floats(v *column.Vector) []float64 {
	if v.Typ == column.Float64 {
		return v.F64
	}
	out := make([]float64, len(v.I64))
	for i, x := range v.I64 {
		out[i] = float64(x)
	}
	return out
}

// arith applies the promotion rule: integer arithmetic stays Int64 except
// division; any Float64 operand makes the result Float64.
func arith(op Op, a, b *column.Vector) (*column.Vector, error) {
	if a.Typ == column.String || b.Typ == column.String {
		return nil, invalid("%v on strings", op)
	}
	if a.Typ == column.Int64 && b.Typ == column.Int64 && op != OpDiv {
		return ints(arithRows(op, a.I64, b.I64)), nil
	}
	return &column.Vector{Typ: column.Float64, F64: arithRows(op, floats(a), floats(b))}, nil
}

func arithRows[T int64 | float64](op Op, a, b []T) []T {
	out := make([]T, len(a))
	switch op {
	case OpAdd:
		for i, x := range a {
			out[i] = x + b[i]
		}
	case OpSub:
		for i, x := range a {
			out[i] = x - b[i]
		}
	case OpMul:
		for i, x := range a {
			out[i] = x * b[i]
		}
	default: // OpDiv reaches here only as float64
		for i, x := range a {
			out[i] = x / b[i]
		}
	}
	return out
}

// Holds reports whether comparison op is satisfied by the three-way result
// c (<0, 0, >0).
func (op Op) Holds(c int) bool {
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	default:
		return c >= 0
	}
}

// Flip returns the comparison that holds of (b, a) exactly when op holds of
// (a, b); eq and ne are their own.
func (op Op) Flip() Op {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	}
	return op
}

func compare(op Op, a, b *column.Vector) (*column.Vector, error) {
	switch {
	case a.Typ == column.String && b.Typ == column.String:
		out := make([]int64, len(a.Str))
		for i, x := range a.Str {
			out[i] = b2i(op.Holds(strings.Compare(x, b.Str[i])))
		}
		return ints(out), nil
	case a.Typ == column.Int64 && b.Typ == column.Int64:
		return ints(compareRows(op, a.I64, b.I64)), nil
	case a.Typ != column.String && b.Typ != column.String:
		return ints(compareRows(op, floats(a), floats(b))), nil
	}
	return nil, invalid("comparing %v with %v", a.Typ, b.Typ)
}

// compareRows orders each pair three ways first, so a NaN operand (neither
// less nor greater) compares equal, as it always has here.
func compareRows[T int64 | float64](op Op, a, b []T) []int64 {
	out := make([]int64, len(a))
	for i, x := range a {
		c := 0
		if x < b[i] {
			c = -1
		} else if x > b[i] {
			c = 1
		}
		out[i] = b2i(op.Holds(c))
	}
	return out
}

func logic(op Op, a, b *column.Vector) (*column.Vector, error) {
	if a.Typ != column.Int64 || b.Typ != column.Int64 {
		return nil, invalid("%v of %v and %v", op, a.Typ, b.Typ)
	}
	out := make([]int64, len(a.I64))
	if op == OpAnd {
		for i, x := range a.I64 {
			out[i] = b2i(x != 0 && b.I64[i] != 0)
		}
	} else {
		for i, x := range a.I64 {
			out[i] = b2i(x != 0 || b.I64[i] != 0)
		}
	}
	return ints(out), nil
}

// pick is CASE: two Int64 branches stay Int64, otherwise both promote.
func pick(cond, then, els *column.Vector) (*column.Vector, error) {
	if cond.Typ != column.Int64 || then.Typ == column.String || els.Typ == column.String {
		return nil, invalid("case of %v picking %v or %v", cond.Typ, then.Typ, els.Typ)
	}
	if then.Typ == column.Int64 && els.Typ == column.Int64 {
		return ints(pickRows(cond.I64, then.I64, els.I64)), nil
	}
	return &column.Vector{Typ: column.Float64, F64: pickRows(cond.I64, floats(then), floats(els))}, nil
}

func pickRows[T int64 | float64](cond []int64, then, els []T) []T {
	out := make([]T, len(cond))
	for i, c := range cond {
		if c != 0 {
			out[i] = then[i]
		} else {
			out[i] = els[i]
		}
	}
	return out
}

// matchLike matches s against a LIKE pattern already split on its '%'
// wildcards (the only wildcard TPC-H uses).
func matchLike(s string, parts []string) bool {
	if len(parts) == 1 {
		return s == parts[0]
	}
	if !strings.HasPrefix(s, parts[0]) {
		return false
	}
	s = s[len(parts[0]):]
	for _, mid := range parts[1 : len(parts)-1] {
		idx := strings.Index(s, mid)
		if idx < 0 {
			return false
		}
		s = s[idx+len(mid):]
	}
	return strings.HasSuffix(s, parts[len(parts)-1])
}
