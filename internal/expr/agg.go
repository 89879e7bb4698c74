package expr

import (
	"math"

	"cloudiq/internal/column"
)

// AggFunc enumerates aggregate functions.
type AggFunc uint8

// Supported aggregates.
const (
	Sum AggFunc = iota
	Avg
	Min
	Max
	Count
	CountDistinct
)

// Mergeable reports whether f's partial state is the fixed-size record
// AggState.Merge combines — the rule for which aggregates may be computed
// store-side. Avg and CountDistinct are folded by the reader only.
func (f AggFunc) Mergeable() bool {
	return f == Sum || f == Min || f == Max || f == Count
}

// AggInput evaluates the input of aggregate f over env and checks that f can
// fold it. A nil e is count(*), whose input is nil.
func AggInput(f AggFunc, e *Node, env Env) (*column.Vector, error) {
	if e == nil {
		if f != Count {
			return nil, invalid("aggregate %d needs an input expression", f)
		}
		return nil, nil
	}
	v, err := e.Eval(env)
	if err != nil {
		return nil, err
	}
	if f > CountDistinct || (v.Typ == column.String && (f == Sum || f == Avg)) {
		return nil, invalid("aggregate %d over %v", f, v.Typ)
	}
	return v, nil
}

// AggState is one aggregate's accumulator. The exported fields are the
// partial state a store returns: merging partial states in row order repeats
// the additions and comparisons Update would have made row by row, so counts,
// integer sums and min/max merge exactly (a float sum regroups its
// additions per partial, as any partitioned sum does).
type AggState struct {
	Count int64
	SumI  int64
	SumF  float64
	MinI  int64
	MaxI  int64
	MinF  float64
	MaxF  float64
	MinS  string
	MaxS  string
	// Seen reports whether any row reached a min/max accumulator.
	Seen bool
	// Typ is the type of the aggregate input (meaningful only when Count > 0
	// or Seen).
	Typ column.Type

	distinct map[distinctKey]struct{}
}

// distinctKey identifies one input value: numbers by bit pattern, strings by
// content. A state only ever sees one input type, so the two cannot collide.
type distinctKey struct {
	bits uint64
	s    string
}

// Distinct returns the number of distinct inputs CountDistinct has seen.
func (st *AggState) Distinct() int { return len(st.distinct) }

// Update folds row r of input — as returned by AggInput for f — into st.
func (st *AggState) Update(f AggFunc, input *column.Vector, r int) {
	if input == nil {
		st.Count++
		return
	}
	st.Typ = input.Typ
	switch f {
	case CountDistinct:
		var k distinctKey
		switch input.Typ {
		case column.Int64:
			k.bits = uint64(input.I64[r])
		case column.Float64:
			k.bits = math.Float64bits(input.F64[r])
		default:
			k.s = input.Str[r]
		}
		if st.distinct == nil {
			st.distinct = make(map[distinctKey]struct{})
		}
		st.distinct[k] = struct{}{}
	case Count:
		st.Count++
	case Sum, Avg:
		st.Count++
		if input.Typ == column.Int64 {
			st.SumI += input.I64[r]
			st.SumF += float64(input.I64[r])
		} else {
			st.SumF += input.F64[r]
		}
	case Min, Max:
		st.Count++
		switch input.Typ {
		case column.Int64:
			st.MinI, st.MaxI = widen(st.Seen, st.MinI, st.MaxI, input.I64[r], input.I64[r])
		case column.Float64:
			st.MinF, st.MaxF = widen(st.Seen, st.MinF, st.MaxF, input.F64[r], input.F64[r])
		default:
			st.MinS, st.MaxS = widen(st.Seen, st.MinS, st.MaxS, input.Str[r], input.Str[r])
		}
		st.Seen = true
	}
}

// Merge folds the partial state o, whose rows follow st's, into st. It
// covers the Mergeable aggregates.
func (st *AggState) Merge(o *AggState) {
	if o.Count == 0 && !o.Seen {
		return
	}
	st.Typ = o.Typ
	st.Count += o.Count
	st.SumI += o.SumI
	st.SumF += o.SumF
	if o.Seen {
		// Only the fields of o.Typ carry a range; the rest are zero on both
		// sides and stay zero.
		st.MinI, st.MaxI = widen(st.Seen, st.MinI, st.MaxI, o.MinI, o.MaxI)
		st.MinF, st.MaxF = widen(st.Seen, st.MinF, st.MaxF, o.MinF, o.MaxF)
		st.MinS, st.MaxS = widen(st.Seen, st.MinS, st.MaxS, o.MinS, o.MaxS)
		st.Seen = true
	}
}

// widen extends the running range [lo, hi] to cover [x, y]; before anything
// was seen the range is [x, y] itself.
func widen[T int64 | float64 | string](seen bool, lo, hi, x, y T) (T, T) {
	if !seen || x < lo {
		lo = x
	}
	if !seen || y > hi {
		hi = y
	}
	return lo, hi
}
