package expr

import (
	"cmp"
	"math"
	"slices"

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

// AggState is one group's running value of one aggregate. The exported
// fields are the partial state a store returns: merging partial states in row
// order repeats the additions and comparisons Fold would have made row by
// row, so counts, integer sums and min/max merge exactly (a float sum
// regroups its additions per partial, as any partitioned sum does).
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

	distinct int64
}

// Distinct returns the number of distinct inputs CountDistinct had seen at
// the last Aggregator.Finish.
func (st *AggState) Distinct() int { return int(st.distinct) }

// Aggregator folds one aggregate over batches of rows, each row assigned to a
// group by a dense id. States[g] is group g's state; a caller with a single
// global group assigns every row to group 0. It is the one place rows become
// aggregate state: HashAgg, ScanAgg's reader-side fold and the store-side
// select all call Fold. Every state is current after each Fold except
// CountDistinct's: Fold only buffers its rows, and Finish counts them.
type Aggregator struct {
	Func   AggFunc
	States []AggState

	// CountDistinct's buffer: each folded row's group and value.
	gids []int32
	vals column.Vector
}

// Grow extends States to cover group ids below groups.
func (a *Aggregator) Grow(groups int) {
	if n := groups - len(a.States); n > 0 {
		a.States = slices.Grow(a.States, n)[:groups]
	}
}

// Fold adds a batch to the states: row r of input — as returned by AggInput
// for a.Func — goes to group gids[r], and every id is below groups. Rows of a
// group are folded in row order, so a float sum adds in the order a
// row-at-a-time loop would. The type switch runs once per batch.
func (a *Aggregator) Fold(input *column.Vector, gids []int32, groups int) {
	a.Grow(groups)
	st := a.States
	if input == nil { // count(*)
		for _, g := range gids {
			st[g].Count++
		}
		return
	}
	typ := input.Typ
	gids = gids[:input.Len()]
	switch a.Func {
	case CountDistinct:
		if len(a.gids) == 0 {
			a.vals.Typ = typ
		}
		a.gids = append(a.gids, gids...)
		a.vals.AppendVector(input)
	case Count:
		for _, g := range gids {
			s := &st[g]
			s.Typ = typ
			s.Count++
		}
	case Sum, Avg:
		if typ == column.Int64 {
			for r, x := range input.I64 {
				s := &st[gids[r]]
				s.Typ = typ
				s.Count++
				s.SumI += x
				s.SumF += float64(x)
			}
		} else {
			for r, x := range input.F64 {
				s := &st[gids[r]]
				s.Typ = typ
				s.Count++
				s.SumF += x
			}
		}
	case Min, Max:
		switch typ {
		case column.Int64:
			for r, x := range input.I64 {
				s := &st[gids[r]]
				s.MinI, s.MaxI = widen(s.Seen, s.MinI, s.MaxI, x, x)
				s.Typ, s.Seen = typ, true
				s.Count++
			}
		case column.Float64:
			for r, x := range input.F64 {
				s := &st[gids[r]]
				s.MinF, s.MaxF = widen(s.Seen, s.MinF, s.MaxF, x, x)
				s.Typ, s.Seen = typ, true
				s.Count++
			}
		default:
			for r, x := range input.Str {
				s := &st[gids[r]]
				s.MinS, s.MaxS = widen(s.Seen, s.MinS, s.MaxS, x, x)
				s.Typ, s.Seen = typ, true
				s.Count++
			}
		}
	}
}

// Finish brings every state up to date with the rows folded so far; a caller
// reads States after it. Only CountDistinct has work to do: it counting-sorts
// the buffered rows into one bucket per group, sorts each bucket and counts
// its runs of equal values — numbers by bit pattern (−0.0 ≠ +0.0, NaN =
// NaN), strings by content. The buffer is kept, so Finish may be called any
// number of times, with more Folds in between.
func (a *Aggregator) Finish() {
	if a.Func != CountDistinct {
		return
	}
	// ends[g] is first group g's row count, then where its bucket starts,
	// and after the scatter where it ends.
	ends := make([]int, len(a.States))
	for _, g := range a.gids {
		ends[g]++
	}
	at := 0
	for g, n := range ends {
		ends[g], at = at, at+n
	}
	n := len(a.gids)
	switch a.vals.Typ {
	case column.Int64:
		bits := make([]uint64, n)
		for r, x := range a.vals.I64 {
			g := a.gids[r]
			bits[ends[g]] = uint64(x)
			ends[g]++
		}
		countRuns(a.States, ends, bits)
	case column.Float64:
		bits := make([]uint64, n)
		for r, x := range a.vals.F64 {
			g := a.gids[r]
			bits[ends[g]] = math.Float64bits(x)
			ends[g]++
		}
		countRuns(a.States, ends, bits)
	default:
		strs := make([]string, n)
		for r, x := range a.vals.Str {
			g := a.gids[r]
			strs[ends[g]] = x
			ends[g]++
		}
		countRuns(a.States, ends, strs)
	}
}

// countRuns sorts each group's bucket of vals — group g's ends at ends[g] and
// starts where g-1's ends — and sets the group's distinct count to the number
// of runs of equal values in it.
func countRuns[T cmp.Ordered](st []AggState, ends []int, vals []T) {
	lo := 0
	for g, hi := range ends {
		bucket := vals[lo:hi]
		slices.Sort(bucket)
		var runs int64
		for i := range bucket {
			if i == 0 || bucket[i] != bucket[i-1] {
				runs++
			}
		}
		st[g].distinct = runs
		lo = hi
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
