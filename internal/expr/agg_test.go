package expr

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"cloudiq/internal/column"
)

// refState is one group's state of one aggregate as a row-at-a-time fold
// keeps it: every accumulator for every function, the semantics the typed
// Aggregator must reproduce.
type refState struct {
	count      int64
	sumI       int64
	sumF       float64
	minI, maxI int64
	minF, maxF float64
	minS, maxS string
	seen       bool
	typ        column.Type
	distinct   map[any]bool
}

// add folds row r of v (nil for count(*)) into st.
func (st *refState) add(f AggFunc, v *column.Vector, r int) {
	st.count++
	if v == nil {
		return
	}
	st.typ = v.Typ
	switch v.Typ {
	case column.Int64:
		x := v.I64[r]
		st.sumI += x
		st.sumF += float64(x)
		st.minI, st.maxI = widen(st.seen, st.minI, st.maxI, x, x)
		st.addDistinct(uint64(x))
	case column.Float64:
		x := v.F64[r]
		st.sumF += x
		st.minF, st.maxF = widen(st.seen, st.minF, st.maxF, x, x)
		st.addDistinct(math.Float64bits(x))
	default:
		x := v.Str[r]
		st.minS, st.maxS = widen(st.seen, st.minS, st.maxS, x, x)
		st.addDistinct(x)
	}
	st.seen = true
}

func (st *refState) addDistinct(k any) {
	if st.distinct == nil {
		st.distinct = map[any]bool{}
	}
	st.distinct[k] = true
}

// merge adds a partial state whose rows follow st's.
func (st *refState) merge(o *refState) {
	if o.count == 0 {
		return
	}
	st.typ = o.typ
	st.count += o.count
	st.sumI += o.sumI
	st.sumF += o.sumF
	if o.seen {
		st.minI, st.maxI = widen(st.seen, st.minI, st.maxI, o.minI, o.maxI)
		st.minF, st.maxF = widen(st.seen, st.minF, st.maxF, o.minF, o.maxF)
		st.minS, st.maxS = widen(st.seen, st.minS, st.maxS, o.minS, o.maxS)
		st.seen = true
	}
}

// widen extends the range [lo, hi] to cover [x, y]; before anything was
// seen the range is [x, y] itself.
func widen[T int64 | float64 | string](seen bool, lo, hi, x, y T) (T, T) {
	if !seen || x < lo {
		lo = x
	}
	if !seen || y > hi {
		hi = y
	}
	return lo, hi
}

// refColumn is the output column of f over the groups' states: counts as
// Int64, averages as Float64, and a sum, min or max of the type of the first
// group any row reached, Float64 when none did.
func refColumn(f AggFunc, states []refState) *column.Vector {
	typ := column.Float64
	if f == Count || f == CountDistinct {
		typ = column.Int64
	} else if f != Avg {
		for i := range states {
			if states[i].seen {
				typ = states[i].typ
				break
			}
		}
	}
	v := column.NewVector(typ)
	for i := range states {
		st := &states[i]
		switch {
		case f == Count:
			v.AppendInt(st.count)
		case f == CountDistinct:
			v.AppendInt(int64(len(st.distinct)))
		case f == Avg:
			if st.count == 0 {
				v.AppendFloat(0)
			} else {
				v.AppendFloat(st.sumF / float64(st.count))
			}
		case typ == column.Int64:
			v.AppendInt([]int64{Sum: st.sumI, Min: st.minI, Max: st.maxI}[f])
		case typ == column.Float64:
			v.AppendFloat([]float64{Sum: st.sumF, Min: st.minF, Max: st.maxF}[f])
		default:
			v.AppendStr([]string{Min: st.minS, Max: st.maxS}[f])
		}
	}
	return v
}

// sameColumn reports whether two columns hold the same type and values,
// floats by bit pattern except that any NaN equals any other: which NaN an
// addition of two returns depends on the order the compiler put the
// operands in.
func sameColumn(a, b *column.Vector) bool {
	if a.Typ != b.Typ || a.Len() != b.Len() {
		return false
	}
	for i, x := range a.F64 {
		if y := b.F64[i]; math.Float64bits(x) != math.Float64bits(y) && !(x != x && y != y) {
			return false
		}
	}
	return slices.Equal(a.I64, b.I64) && slices.Equal(a.Str, b.Str)
}

// aggCase is one aggregate over rows in batches: input (nil for count(*))
// and gids hold n rows, batch i is rows [cuts[i], cuts[i+1]), and every id is
// below groups.
type aggCase struct {
	f      AggFunc
	input  *column.Vector
	gids   []int32
	groups int
	cuts   []int
}

// batch returns batch i's input and ids.
func (c *aggCase) batch(i int) (*column.Vector, []int32) {
	lo, hi := c.cuts[i], c.cuts[i+1]
	if c.input == nil {
		return nil, c.gids[lo:hi]
	}
	return c.input.Slice(lo, hi), c.gids[lo:hi]
}

// checkGrouped folds the batches into one Aggregator, calling Finish (twice)
// after every batch and holding count(distinct)'s groups to the reference
// then, and compares the final column with the reference fold's.
func (c *aggCase) checkGrouped(t *testing.T) {
	t.Helper()
	a := Aggregator{Func: c.f}
	ref := make([]refState, c.groups)
	for i := 0; i+1 < len(c.cuts); i++ {
		in, gids := c.batch(i)
		a.Fold(in, gids, c.groups)
		for r, g := range gids {
			ref[g].add(c.f, in, r)
		}
		if c.f != CountDistinct {
			continue
		}
		for pass := 0; pass < 2; pass++ {
			a.Finish()
			for g := range ref {
				if got, want := a.Distinct(g), len(ref[g].distinct); got != want {
					t.Fatalf("func %d, batch %d, finish %d: group %d distinct = %d, want %d", c.f, i, pass, g, got, want)
				}
			}
		}
	}
	if got, want := a.Column(c.groups), refColumn(c.f, ref); !sameColumn(got, want) {
		t.Fatalf("func %d over %d groups, cuts %v:\n got %+v\nwant %+v", c.f, c.groups, c.cuts, got, want)
	}
}

// checkPartials aggregates every row into one group the way ScanAgg does:
// odd batches are folded in directly, even ones become a store's partial
// (a single-group Aggregator's Partial) and are merged; the reference merges
// its own per-batch states in the same order.
func (c *aggCase) checkPartials(t *testing.T) {
	t.Helper()
	if !c.f.Mergeable() {
		return
	}
	a := Aggregator{Func: c.f}
	var ref refState
	for i := 0; i+1 < len(c.cuts); i++ {
		in, gids := c.batch(i)
		zeros := make([]int32, len(gids))
		if i%2 == 1 {
			a.Fold(in, zeros, 1)
			for r := range zeros {
				ref.add(c.f, in, r)
			}
			continue
		}
		store := Aggregator{Func: c.f}
		store.Fold(in, zeros, 1)
		part := store.Partial()
		a.Merge(&part)
		var piece refState
		for r := range zeros {
			piece.add(c.f, in, r)
		}
		ref.merge(&piece)
	}
	if got, want := a.Column(1), refColumn(c.f, []refState{ref}); !sameColumn(got, want) {
		t.Fatalf("func %d, partials cut at %v:\n got %+v\nwant %+v", c.f, c.cuts, got, want)
	}
}

// aggFuncs is every function with the input types it folds (nil: count(*)).
var aggFuncs = []struct {
	f     AggFunc
	types []column.Type
	star  bool
}{
	{Count, []column.Type{column.Int64, column.Float64, column.String}, true},
	{Sum, []column.Type{column.Int64, column.Float64}, false},
	{Avg, []column.Type{column.Int64, column.Float64}, false},
	{Min, []column.Type{column.Int64, column.Float64, column.String}, false},
	{Max, []column.Type{column.Int64, column.Float64, column.String}, false},
	{CountDistinct, []column.Type{column.Int64, column.Float64, column.String}, false},
}

// aggFloats and aggStrings are the values an input draws from: signed zeros,
// NaN, infinities and magnitudes that absorb each other in a sum; and
// strings equal but for a NUL, or a prefix of another.
var (
	aggFloats  = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1e16, -1e16, 1, 0.1, -2.5, 7}
	aggStrings = []string{"", "a", "a\x00", "a\x00b", "ab", "b", "betamax", "\xff"}
)

// aggVector returns n values of typ drawn by next, which returns a number
// below its argument.
func aggVector(typ column.Type, n int, next func(int) int) *column.Vector {
	v := column.NewVector(typ)
	for i := 0; i < n; i++ {
		switch typ {
		case column.Int64:
			v.AppendInt([]int64{math.MinInt64, math.MaxInt64, -1, 0, 1, 2, 1 << 40}[next(7)])
		case column.Float64:
			v.AppendFloat(aggFloats[next(len(aggFloats))])
		default:
			v.AppendStr(aggStrings[next(len(aggStrings))])
		}
	}
	return v
}

// TestAggregatorMatchesRowFold holds every function over every input type it
// takes to the row-at-a-time reference: random group ids over more groups
// than get rows, batches cut at random, count(distinct) finished after each
// batch, and partials of the mergeable functions split and merged.
func TestAggregatorMatchesRowFold(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(300)
		groups := 1 + rng.Intn(40)
		gids := make([]int32, n)
		for r := range gids {
			gids[r] = int32(rng.Intn(groups))
		}
		cuts := []int{0}
		for c := 0; c < rng.Intn(6); c++ {
			cuts = append(cuts, rng.Intn(n+1))
		}
		cuts = append(cuts, n)
		slices.Sort(cuts)
		for _, af := range aggFuncs {
			var inputs []*column.Vector
			if af.star {
				inputs = append(inputs, nil)
			}
			for _, typ := range af.types {
				inputs = append(inputs, aggVector(typ, n, rng.Intn))
			}
			for _, in := range inputs {
				c := aggCase{f: af.f, input: in, gids: gids, groups: groups, cuts: cuts}
				c.checkGrouped(t)
				c.checkPartials(t)
			}
		}
	}
}

// FuzzAggregator runs the reference comparison of TestAggregatorMatchesRowFold
// on fuzzed cases: the first bytes choose the function, input type, group
// count and cut points, and each further byte is a row — its group in the
// high nibble, its value in the low one.
func FuzzAggregator(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0x12, 0x21, 0x03, 0x14, 0x25})
	f.Add([]byte{2, 1, 1, 0x01, 0x12, 0x05, 0x06, 0x10})
	f.Add([]byte{5, 2, 7, 0x33, 0x31, 0x30, 0x01, 0x14, 0x01, 0x02})
	f.Add([]byte{3, 1, 0, 0x02, 0x02, 0x01})
	f.Add([]byte{0, 3, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		af := aggFuncs[int(data[0])%len(aggFuncs)]
		pick := int(data[1])
		cutBits := data[2]
		rows := data[3:]
		groups := 1 + pick>>4%8
		c := aggCase{f: af.f, groups: groups, cuts: []int{0}}
		for r, b := range rows {
			c.gids = append(c.gids, int32(int(b>>4)%groups))
			if r > 0 && cutBits>>(r%8)&1 == 1 {
				c.cuts = append(c.cuts, r)
			}
		}
		c.cuts = append(c.cuts, len(rows))
		if k := pick % (len(af.types) + 1); k < len(af.types) {
			vals := rows
			c.input = aggVector(af.types[k], len(rows), func(m int) int {
				x := int(vals[0] & 0xF)
				vals = vals[1:]
				return x % m
			})
		} else if !af.star {
			return
		}
		c.checkGrouped(t)
		c.checkPartials(t)
	})
}
