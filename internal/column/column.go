// Package column provides the columnar building blocks of the engine:
// typed vectors, the segment encodings SAP IQ is known for — dictionary
// encoding with n-bit packed codes [47], n-bit integer packing, and run-
// length encoding — and zone maps [19] for early pruning. Decimals are
// represented as float64 and dates as int64 days since the Unix epoch; the
// paper's workload (TPC-H) needs no NULLs, so vectors are dense.
package column

import (
	"fmt"
	"slices"
	"time"
)

// Type enumerates the value types columns can hold.
type Type uint8

// Supported column types.
const (
	Int64 Type = iota
	Float64
	String
)

func (t Type) String() string {
	switch t {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case String:
		return "string"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Epoch is the date origin: dates are stored as days since 1970-01-01 UTC.
var Epoch = time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC)

// DateToDays converts a calendar date to its int64 representation.
func DateToDays(year int, month time.Month, day int) int64 {
	return int64(time.Date(year, month, day, 0, 0, 0, 0, time.UTC).Sub(Epoch) / (24 * time.Hour))
}

// DaysToDate converts back to a calendar date.
func DaysToDate(days int64) time.Time {
	return Epoch.Add(time.Duration(days) * 24 * time.Hour)
}

// Vector is a dense column of values of one Type. Only the slice matching
// Typ is populated.
type Vector struct {
	Typ Type
	I64 []int64
	F64 []float64
	Str []string
}

// NewVector returns an empty vector of the given type.
func NewVector(t Type) *Vector { return &Vector{Typ: t} }

// Len returns the number of values.
func (v *Vector) Len() int {
	switch v.Typ {
	case Int64:
		return len(v.I64)
	case Float64:
		return len(v.F64)
	default:
		return len(v.Str)
	}
}

// AppendInt adds an int64 value (panics if the vector is not Int64; callers
// are schema-checked above this layer).
func (v *Vector) AppendInt(x int64) { v.I64 = append(v.I64, x) }

// AppendFloat adds a float64 value.
func (v *Vector) AppendFloat(x float64) { v.F64 = append(v.F64, x) }

// AppendStr adds a string value.
func (v *Vector) AppendStr(x string) { v.Str = append(v.Str, x) }

// Append copies the value at index i of src (which must share v's type).
func (v *Vector) Append(src *Vector, i int) {
	switch v.Typ {
	case Int64:
		v.I64 = append(v.I64, src.I64[i])
	case Float64:
		v.F64 = append(v.F64, src.F64[i])
	default:
		v.Str = append(v.Str, src.Str[i])
	}
}

// Grow makes room for n more values without changing the length.
func (v *Vector) Grow(n int) {
	switch v.Typ {
	case Int64:
		v.I64 = slices.Grow(v.I64, n)
	case Float64:
		v.F64 = slices.Grow(v.F64, n)
	default:
		v.Str = slices.Grow(v.Str, n)
	}
}

// AppendVector appends every value of src (which must share v's type).
func (v *Vector) AppendVector(src *Vector) {
	switch v.Typ {
	case Int64:
		v.I64 = append(v.I64, src.I64...)
	case Float64:
		v.F64 = append(v.F64, src.F64...)
	default:
		v.Str = append(v.Str, src.Str...)
	}
}

// AppendGather appends src's values (src must share v's type) at the given
// row indexes, in order. A negative index appends the zero value: the build
// columns of an outer join's unmatched row.
func (v *Vector) AppendGather(src *Vector, rows []int32) {
	switch v.Typ {
	case Int64:
		v.I64 = gather(v.I64, src.I64, rows)
	case Float64:
		v.F64 = gather(v.F64, src.F64, rows)
	default:
		v.Str = gather(v.Str, src.Str, rows)
	}
}

// Slice returns a view of rows [lo, hi).
func (v *Vector) Slice(lo, hi int) *Vector {
	out := &Vector{Typ: v.Typ}
	switch v.Typ {
	case Int64:
		out.I64 = v.I64[lo:hi]
	case Float64:
		out.F64 = v.F64[lo:hi]
	default:
		out.Str = v.Str[lo:hi]
	}
	return out
}

// Gather returns a new vector holding v's values at the given row indexes.
func (v *Vector) Gather(rows []int32) *Vector {
	out := NewVector(v.Typ)
	out.AppendGather(v, rows)
	return out
}

// gather appends src[r] for each r in rows to dst, the zero value where r is
// negative.
func gather[T any](dst, src []T, rows []int32) []T {
	n := len(dst)
	dst = slices.Grow(dst, len(rows))[:n+len(rows)]
	out := dst[n:]
	for i, r := range rows {
		if r < 0 {
			var zero T
			out[i] = zero
			continue
		}
		out[i] = src[r]
	}
	return dst
}
