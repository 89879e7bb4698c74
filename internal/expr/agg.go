package expr

import "cloudiq/internal/column"

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

// Distinct returns the number of distinct inputs CountDistinct has seen.
func (st *AggState) Distinct() int { return int(st.distinct) }

// Aggregator folds one aggregate over batches of rows, each row assigned to a
// group by a dense id. States[g] is group g's state; a caller with a single
// global group assigns every row to group 0. It is the one place rows become
// aggregate state: HashAgg, ScanAgg's reader-side fold and the store-side
// select all call Fold.
type Aggregator struct {
	Func   AggFunc
	States []AggState

	// CountDistinct keeps one set of (group, value) pairs for the whole
	// aggregate, not a set per group; the rest is its per-batch scratch.
	pairs  column.HashTable
	groups column.Vector
	ids    []int32
}

// Grow extends States to cover group ids below groups.
func (a *Aggregator) Grow(groups int) {
	if n := groups - len(a.States); n > 0 {
		a.States = append(a.States, make([]AggState, n)...)
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
		a.foldDistinct(input, gids)
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

// foldDistinct inserts each row's (group, value) pair into the aggregate's
// set and counts, per group, the pairs that were new. Numbers are told apart
// by bit pattern, strings by content.
func (a *Aggregator) foldDistinct(input *column.Vector, gids []int32) {
	a.groups.I64 = a.groups.I64[:0]
	for _, g := range gids {
		a.groups.I64 = append(a.groups.I64, int64(g))
	}
	next := int32(a.pairs.Len())
	a.ids = a.pairs.Insert([]*column.Vector{&a.groups, input}, len(gids), a.ids)
	for r, id := range a.ids {
		if id == next { // ids are dense in first-seen order: this pair is new
			next++
			a.States[gids[r]].distinct++
		}
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
