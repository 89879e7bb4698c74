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

// AggState is the partial state of one aggregate over some rows, all of one
// group: what a store returns for a segment it aggregated, and what
// Aggregator.Merge adds to the global group. Merging partial states in row
// order repeats the additions and comparisons Fold would have made row by
// row, so counts, integer sums and min/max merge exactly (a float sum
// regroups its additions per partial, as any partitioned sum does).
type AggState struct {
	// Count is the number of rows behind the state.
	Count int64
	SumI  int64
	SumF  float64
	MinI  int64
	MaxI  int64
	MinF  float64
	MaxF  float64
	MinS  string
	MaxS  string
	// Typ is the type of the aggregate input (meaningful only when Count > 0).
	Typ column.Type
}

// Aggregator folds one aggregate over batches of rows, each row assigned to a
// group by a dense id; a caller with a single global group assigns every row
// to group 0. It is the one place rows become aggregate state: HashAgg,
// ScanAgg's reader-side fold and the store-side select all call Fold.
//
// The state is one typed column per accumulator, a value per group, and only
// the columns Func over the input's type reads: count(*) and count keep
// count; sum keeps sumI or sumF; avg count and sumF; min and max one running
// extreme of the input's type, beside seen. Every group's value is current
// after each Fold except count(distinct)'s: Fold only buffers its rows, and
// Finish counts them.
type Aggregator struct {
	Func AggFunc

	typ    column.Type // the input's type, once typed
	typed  bool        // whether a row (or a partial of any rows) arrived
	rows   int64       // rows folded and merged, over every group
	groups int         // every column covers ids below this

	count  []int64   // Count, Avg
	sumI   []int64   // Sum of Int64
	sumF   []float64 // Sum of Float64, Avg
	seen   []bool    // Min, Max: whether a row reached the group
	ints   []int64   // Min, Max of Int64: the running extreme
	floats []float64 // Min, Max of Float64
	strs   []string  // Min, Max of String

	// CountDistinct's buffer: each folded row's group and value; and each
	// group's distinct count as of the last Finish.
	gids     []int32
	vals     column.Vector
	distinct []int64
}

// Grow extends the state to cover group ids below groups.
func (a *Aggregator) Grow(groups int) {
	if groups <= a.groups {
		return
	}
	a.groups = groups
	a.fit()
}

// fit extends every column Func and the input's type keep to a.groups
// values, the new ones zero.
func (a *Aggregator) fit() {
	n := a.groups
	switch a.Func {
	case Count:
		a.count = extend(a.count, n)
	case Avg:
		a.count, a.sumF = extend(a.count, n), extend(a.sumF, n)
	case Sum:
		switch {
		case !a.typed:
		case a.typ == column.Int64:
			a.sumI = extend(a.sumI, n)
		default:
			a.sumF = extend(a.sumF, n)
		}
	case Min, Max:
		if !a.typed {
			break
		}
		a.seen = extend(a.seen, n)
		switch a.typ {
		case column.Int64:
			a.ints = extend(a.ints, n)
		case column.Float64:
			a.floats = extend(a.floats, n)
		default:
			a.strs = extend(a.strs, n)
		}
	}
}

// extend returns s lengthened to n values, the new ones zero (s is never
// shortened, so what lies between its length and capacity is zero). Its
// storage at least doubles when it grows, so a column grown batch by batch
// copies each value O(1) times.
func extend[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	if n > cap(s) {
		s = slices.Grow(s, max(n, 2*cap(s))-len(s))
	}
	return s[:n]
}

// setType fixes the input's type at the first row that arrives, and gives
// the columns that type needs.
func (a *Aggregator) setType(typ column.Type) {
	if !a.typed {
		a.typ, a.typed = typ, true
		a.fit()
	}
}

// Fold adds a batch to the state: row r of input — as returned by AggInput
// for a.Func — goes to group gids[r], and every id is below groups. Every
// input must have the type of the first. Rows of a group are folded in row
// order, so a float sum adds in the order a row-at-a-time loop would. The
// type switch runs once per batch.
func (a *Aggregator) Fold(input *column.Vector, gids []int32, groups int) {
	a.Grow(groups)
	if input == nil { // count(*)
		for _, g := range gids {
			a.count[g]++
		}
		a.rows += int64(len(gids))
		return
	}
	n := input.Len()
	if n == 0 {
		return
	}
	typ := input.Typ
	a.setType(typ)
	a.rows += int64(n)
	gids = gids[:n]
	switch a.Func {
	case CountDistinct:
		if len(a.gids) == 0 {
			a.vals.Typ = typ
		}
		a.gids = append(a.gids, gids...)
		a.vals.AppendVector(input)
	case Count:
		for _, g := range gids {
			a.count[g]++
		}
	case Sum:
		if typ == column.Int64 {
			addTo(a.sumI, gids, input.I64)
		} else {
			addTo(a.sumF, gids, input.F64)
		}
	case Avg:
		for _, g := range gids {
			a.count[g]++
		}
		if typ == column.Int64 {
			for r, x := range input.I64 {
				a.sumF[gids[r]] += float64(x)
			}
		} else {
			addTo(a.sumF, gids, input.F64)
		}
	case Min, Max:
		max := a.Func == Max
		switch typ {
		case column.Int64:
			extremeTo(a.ints, a.seen, gids, input.I64, max)
		case column.Float64:
			extremeTo(a.floats, a.seen, gids, input.F64, max)
		default:
			extremeTo(a.strs, a.seen, gids, input.Str, max)
		}
	}
}

// addTo adds xs[r] to group gids[r]'s sum, in row order.
func addTo[T int64 | float64](sums []T, gids []int32, xs []T) {
	for r, x := range xs {
		sums[gids[r]] += x
	}
}

// extremeTo widens each group's running minimum (or maximum) by its rows:
// before the group saw a row it is the row's value, after only a smaller (or
// larger) one replaces it.
func extremeTo[T int64 | float64 | string](acc []T, seen []bool, gids []int32, xs []T, max bool) {
	if max {
		for r, x := range xs {
			if g := gids[r]; !seen[g] || x > acc[g] {
				acc[g], seen[g] = x, true
			}
		}
		return
	}
	for r, x := range xs {
		if g := gids[r]; !seen[g] || x < acc[g] {
			acc[g], seen[g] = x, true
		}
	}
}

// Merge adds the partial state o, whose rows follow the ones folded so far,
// to group 0. It covers the Mergeable aggregates.
func (a *Aggregator) Merge(o *AggState) {
	a.Grow(1)
	if o.Count == 0 {
		return
	}
	a.setType(o.Typ)
	a.rows += o.Count
	switch a.Func {
	case Count:
		a.count[0] += o.Count
	case Sum:
		if a.typ == column.Int64 {
			a.sumI[0] += o.SumI
		} else {
			a.sumF[0] += o.SumF
		}
	case Min:
		a.mergeExtreme(o.MinI, o.MinF, o.MinS)
	case Max:
		a.mergeExtreme(o.MaxI, o.MaxF, o.MaxS)
	}
}

// mergeExtreme widens group 0's running extreme by a partial's, of whichever
// type the input has.
func (a *Aggregator) mergeExtreme(i int64, f float64, s string) {
	max, zero := a.Func == Max, []int32{0}
	switch a.typ {
	case column.Int64:
		extremeTo(a.ints, a.seen, zero, []int64{i}, max)
	case column.Float64:
		extremeTo(a.floats, a.seen, zero, []float64{f}, max)
	default:
		extremeTo(a.strs, a.seen, zero, []string{s}, max)
	}
}

// Partial returns the state of a single-group aggregator as the partial a
// store sends for it: group 0's value and every row folded. It covers the
// Mergeable aggregates.
func (a *Aggregator) Partial() AggState {
	a.Grow(1)
	st := AggState{Count: a.rows, Typ: a.typ}
	if !a.typed {
		return st
	}
	switch a.Func {
	case Sum:
		if a.typ == column.Int64 {
			st.SumI = a.sumI[0]
		} else {
			st.SumF = a.sumF[0]
		}
	case Min:
		st.MinI, st.MinF, st.MinS = a.extreme()
	case Max:
		st.MaxI, st.MaxF, st.MaxS = a.extreme()
	}
	return st
}

// extreme returns group 0's running extreme in the result of the input's
// type, zero in the others.
func (a *Aggregator) extreme() (i int64, f float64, s string) {
	switch a.typ {
	case column.Int64:
		i = a.ints[0]
	case column.Float64:
		f = a.floats[0]
	default:
		s = a.strs[0]
	}
	return i, f, s
}

// Finish brings every group's value up to date with the rows folded so far.
// Only CountDistinct has work to do: it counting-sorts the buffered rows into
// one bucket per group, sorts each bucket and counts its runs of equal values
// — numbers by bit pattern (−0.0 ≠ +0.0, NaN = NaN), strings by content. The
// buffer is kept, so Finish may be called any number of times, with more
// Folds in between.
func (a *Aggregator) Finish() {
	if a.Func != CountDistinct {
		return
	}
	// ends[g] is first group g's row count, then where its bucket starts,
	// and after the scatter where it ends.
	ends := make([]int, a.groups)
	for _, g := range a.gids {
		ends[g]++
	}
	at := 0
	for g, n := range ends {
		ends[g], at = at, at+n
	}
	a.distinct = extend(a.distinct, a.groups)
	n := len(a.gids)
	switch a.vals.Typ {
	case column.Int64:
		bits := make([]uint64, n)
		for r, x := range a.vals.I64 {
			g := a.gids[r]
			bits[ends[g]] = uint64(x)
			ends[g]++
		}
		countRuns(a.distinct, ends, bits)
	case column.Float64:
		bits := make([]uint64, n)
		for r, x := range a.vals.F64 {
			g := a.gids[r]
			bits[ends[g]] = math.Float64bits(x)
			ends[g]++
		}
		countRuns(a.distinct, ends, bits)
	default:
		strs := make([]string, n)
		for r, x := range a.vals.Str {
			g := a.gids[r]
			strs[ends[g]] = x
			ends[g]++
		}
		countRuns(a.distinct, ends, strs)
	}
}

// Distinct returns group g's count of distinct inputs as of the last Finish.
func (a *Aggregator) Distinct(g int) int { return int(a.distinct[g]) }

// countRuns sorts each group's bucket of vals — group g's ends at ends[g] and
// starts where g-1's ends — and sets the group's distinct count to the number
// of runs of equal values in it.
func countRuns[T cmp.Ordered](distinct []int64, ends []int, vals []T) {
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
		distinct[g] = runs
		lo = hi
	}
}

// Column finishes the fold and returns the aggregate's value for each group
// below groups: an Int64 count or count(distinct), a Float64 average (0 over
// no rows), and a sum, min or max of the input's type — Float64 when no row
// arrived — whose groups that no row reached read zero. Except the average's,
// the column shares the accumulator's storage: a later Fold or Merge changes
// it.
func (a *Aggregator) Column(groups int) *column.Vector {
	a.Grow(groups)
	a.Finish()
	switch {
	case a.Func == Count:
		return &column.Vector{Typ: column.Int64, I64: a.count[:groups]}
	case a.Func == CountDistinct:
		return &column.Vector{Typ: column.Int64, I64: a.distinct[:groups]}
	case a.Func == Avg:
		avg := make([]float64, groups)
		for g, n := range a.count[:groups] {
			if n > 0 {
				avg[g] = a.sumF[g] / float64(n)
			}
		}
		return &column.Vector{Typ: column.Float64, F64: avg}
	case !a.typed:
		return &column.Vector{Typ: column.Float64, F64: make([]float64, groups)}
	}
	v := &column.Vector{Typ: a.typ}
	switch {
	case a.Func == Sum && a.typ == column.Int64:
		v.I64 = a.sumI[:groups]
	case a.Func == Sum:
		v.F64 = a.sumF[:groups]
	case a.typ == column.Int64:
		v.I64 = a.ints[:groups]
	case a.typ == column.Float64:
		v.F64 = a.floats[:groups]
	default:
		v.Str = a.strs[:groups]
	}
	return v
}
