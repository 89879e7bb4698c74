package exec

// Differential tests: random expression trees and aggregations evaluated by
// the vectorized operators are checked against an independent, naive
// row-at-a-time reference evaluator. The reference shares no code with the
// engine (its own LIKE matcher, its own type-promotion logic, its own
// accumulators); any divergence is a bug in one of the two, and the failing
// trial prints the seed plus the offending tree.

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"cloudiq/internal/column"
	"cloudiq/internal/mt"
	"cloudiq/internal/table"
)

// --- random data -----------------------------------------------------------

var diffVocab = []string{"alpha", "beta", "gamma", "delta", "epsilon", "", "alp", "betamax"}

type diffRow struct {
	a, b int64
	f, g float64
	s, t string
}

func diffBatch(rng *mt.Source, rows int) (*table.Batch, []diffRow) {
	b := table.NewBatch(table.Schema{Cols: []table.ColumnDef{
		intCol("a"), intCol("b"), fltCol("f"), fltCol("g"), strCol("s"), strCol("t"),
	}})
	data := make([]diffRow, rows)
	for i := range data {
		r := diffRow{
			a: int64(rng.Uint64()%21) - 10,
			b: int64(rng.Uint64()%201) - 100,
			f: float64(int64(rng.Uint64()%2001)-1000) / 8,
			g: float64(int64(rng.Uint64()%41)-20) * 2.5,
			s: diffVocab[rng.Uint64()%uint64(len(diffVocab))],
			t: diffVocab[rng.Uint64()%uint64(len(diffVocab))],
		}
		data[i] = r
		b.Vecs[0].AppendInt(r.a)
		b.Vecs[1].AppendInt(r.b)
		b.Vecs[2].AppendFloat(r.f)
		b.Vecs[3].AppendFloat(r.g)
		b.Vecs[4].AppendStr(r.s)
		b.Vecs[5].AppendStr(r.t)
	}
	return b, data
}

// --- reference values ------------------------------------------------------

// dval is the reference evaluator's numeric value: an int64 until any float
// enters the computation, mirroring the engine's promotion rule.
type dval struct {
	isF bool
	i   int64
	f   float64
}

func di(v int64) dval   { return dval{i: v, f: float64(v)} }
func df(v float64) dval { return dval{isF: true, f: v} }

func (v dval) asF() float64 { return v.f }

func sameVal(x, y dval) bool {
	if x.isF != y.isF {
		return false
	}
	if !x.isF {
		return x.i == y.i
	}
	if math.IsNaN(x.f) && math.IsNaN(y.f) {
		return true
	}
	return x.f == y.f
}

// refLike is an independent LIKE matcher ('%' wildcards only): recursive
// backtracking instead of the engine's split/scan.
func refLike(s, pattern string) bool {
	if pattern == "" {
		return s == ""
	}
	if pattern[0] == '%' {
		for i := 0; i <= len(s); i++ {
			if refLike(s[i:], pattern[1:]) {
				return true
			}
		}
		return false
	}
	if s == "" || s[0] != pattern[0] {
		return false
	}
	return refLike(s[1:], pattern[1:])
}

func refSubstr(s string, start, n int) string {
	lo := start - 1
	if lo < 0 {
		lo = 0
	}
	hi := lo + n
	if lo > len(s) {
		lo = len(s)
	}
	if hi > len(s) {
		hi = len(s)
	}
	return s[lo:hi]
}

// --- random expression trees ----------------------------------------------

// dnode is a random expression: it compiles to an engine Expr and evaluates
// itself row-wise through the reference rules.
type dnode struct {
	kind string
	kids []*dnode
	col  string
	ci   int64
	cf   float64
	cs   string
	strs []string
	op   int // comparison operator index
	sub  [2]int
}

var cmpNames = []string{"eq", "ne", "lt", "le", "gt", "ge"}

func (n *dnode) expr() Expr {
	k := func(i int) Expr { return n.kids[i].expr() }
	switch n.kind {
	case "colI", "colF", "colS":
		return Col(n.col)
	case "ci":
		return ConstI(n.ci)
	case "cf":
		return ConstF(n.cf)
	case "cs":
		return ConstS(n.cs)
	case "add":
		return Add(k(0), k(1))
	case "sub":
		return Sub(k(0), k(1))
	case "mul":
		return Mul(k(0), k(1))
	case "div":
		return Div(k(0), k(1))
	case "case":
		return Case(k(0), k(1), k(2))
	case "and":
		return And(k(0), k(1))
	case "or":
		return Or(k(0), k(1))
	case "not":
		return Not(k(0))
	case "like":
		return Like(k(0), n.cs)
	case "notlike":
		return NotLike(k(0), n.cs)
	case "in":
		return InS(k(0), n.strs...)
	case "substr":
		return Substr(k(0), n.sub[0], n.sub[1])
	case "cmp":
		ops := []func(a, b Expr) Expr{Eq, Ne, Lt, Le, Gt, Ge}
		return ops[n.op](k(0), k(1))
	}
	panic("unknown kind " + n.kind)
}

func (n *dnode) String() string {
	var parts []string
	for _, k := range n.kids {
		parts = append(parts, k.String())
	}
	tag := n.kind
	switch n.kind {
	case "colI", "colF", "colS":
		tag = n.col
	case "ci":
		tag = fmt.Sprint(n.ci)
	case "cf":
		tag = fmt.Sprint(n.cf)
	case "cs", "like", "notlike":
		tag = fmt.Sprintf("%s(%q)", n.kind, n.cs)
	case "in":
		tag = fmt.Sprintf("in%v", n.strs)
	case "cmp":
		tag = cmpNames[n.op]
	}
	if len(parts) == 0 {
		return tag
	}
	return tag + "(" + strings.Join(parts, ",") + ")"
}

func (n *dnode) evalNum(r diffRow) dval {
	switch n.kind {
	case "colI":
		if n.col == "a" {
			return di(r.a)
		}
		return di(r.b)
	case "colF":
		if n.col == "f" {
			return df(r.f)
		}
		return df(r.g)
	case "ci":
		return di(n.ci)
	case "cf":
		return df(n.cf)
	case "add", "sub", "mul":
		x, y := n.kids[0].evalNum(r), n.kids[1].evalNum(r)
		if !x.isF && !y.isF {
			switch n.kind {
			case "add":
				return di(x.i + y.i)
			case "sub":
				return di(x.i - y.i)
			default:
				return di(x.i * y.i)
			}
		}
		switch n.kind {
		case "add":
			return df(x.asF() + y.asF())
		case "sub":
			return df(x.asF() - y.asF())
		default:
			return df(x.asF() * y.asF())
		}
	case "div":
		// Division always produces a float, whatever the operand types.
		return df(n.kids[0].evalNum(r).asF() / n.kids[1].evalNum(r).asF())
	case "case":
		t, e := n.kids[1].evalNum(r), n.kids[2].evalNum(r)
		picked := e
		if n.kids[0].evalBool(r) {
			picked = t
		}
		if t.isF || e.isF {
			return df(picked.asF()) // the engine promotes both branches
		}
		return picked
	}
	panic("not numeric: " + n.kind)
}

func (n *dnode) evalStr(r diffRow) string {
	switch n.kind {
	case "colS":
		if n.col == "s" {
			return r.s
		}
		return r.t
	case "cs":
		return n.cs
	case "substr":
		return refSubstr(n.kids[0].evalStr(r), n.sub[0], n.sub[1])
	}
	panic("not string: " + n.kind)
}

func (n *dnode) evalBool(r diffRow) bool {
	switch n.kind {
	case "and":
		return n.kids[0].evalBool(r) && n.kids[1].evalBool(r)
	case "or":
		return n.kids[0].evalBool(r) || n.kids[1].evalBool(r)
	case "not":
		return !n.kids[0].evalBool(r)
	case "like":
		return refLike(n.kids[0].evalStr(r), n.cs)
	case "notlike":
		return !refLike(n.kids[0].evalStr(r), n.cs)
	case "in":
		s := n.kids[0].evalStr(r)
		for _, v := range n.strs {
			if v == s {
				return true
			}
		}
		return false
	case "cmp":
		var c int
		if n.kids[0].kind == "colS" || n.kids[0].kind == "cs" || n.kids[0].kind == "substr" {
			c = strings.Compare(n.kids[0].evalStr(r), n.kids[1].evalStr(r))
		} else {
			x, y := n.kids[0].evalNum(r), n.kids[1].evalNum(r)
			if !x.isF && !y.isF {
				if x.i < y.i {
					c = -1
				} else if x.i > y.i {
					c = 1
				}
			} else {
				if x.asF() < y.asF() {
					c = -1
				} else if x.asF() > y.asF() {
					c = 1
				}
			}
		}
		switch cmpNames[n.op] {
		case "eq":
			return c == 0
		case "ne":
			return c != 0
		case "lt":
			return c < 0
		case "le":
			return c <= 0
		case "gt":
			return c > 0
		default:
			return c >= 0
		}
	}
	panic("not boolean: " + n.kind)
}

// --- generators ------------------------------------------------------------

type diffGen struct{ rng *mt.Source }

func (g *diffGen) pick(n int) int { return int(g.rng.Uint64() % uint64(n)) }

func (g *diffGen) numExpr(depth int) *dnode {
	if depth <= 0 || g.pick(3) == 0 {
		switch g.pick(6) {
		case 0:
			return &dnode{kind: "colI", col: "a"}
		case 1:
			return &dnode{kind: "colI", col: "b"}
		case 2:
			return &dnode{kind: "colF", col: "f"}
		case 3:
			return &dnode{kind: "colF", col: "g"}
		case 4:
			return &dnode{kind: "ci", ci: int64(g.pick(11)) - 5}
		default:
			return &dnode{kind: "cf", cf: float64(g.pick(17)-8) / 4}
		}
	}
	switch g.pick(5) {
	case 0:
		return &dnode{kind: "add", kids: []*dnode{g.numExpr(depth - 1), g.numExpr(depth - 1)}}
	case 1:
		return &dnode{kind: "sub", kids: []*dnode{g.numExpr(depth - 1), g.numExpr(depth - 1)}}
	case 2:
		return &dnode{kind: "mul", kids: []*dnode{g.numExpr(depth - 1), g.numExpr(depth - 1)}}
	case 3:
		// Non-zero constant denominators keep the reference honest:
		// integer division by zero has no single obvious semantics.
		den := &dnode{kind: "ci", ci: int64(g.pick(7)) + 1}
		if g.pick(2) == 0 {
			den = &dnode{kind: "cf", cf: float64(g.pick(9)+1) / 2}
		}
		return &dnode{kind: "div", kids: []*dnode{g.numExpr(depth - 1), den}}
	default:
		return &dnode{kind: "case", kids: []*dnode{g.boolExpr(depth - 1), g.numExpr(depth - 1), g.numExpr(depth - 1)}}
	}
}

func (g *diffGen) strExpr(depth int) *dnode {
	switch g.pick(4) {
	case 0:
		return &dnode{kind: "colS", col: "s"}
	case 1:
		return &dnode{kind: "colS", col: "t"}
	case 2:
		return &dnode{kind: "cs", cs: diffVocab[g.pick(len(diffVocab))]}
	default:
		if depth <= 0 {
			return &dnode{kind: "colS", col: "s"}
		}
		return &dnode{kind: "substr", kids: []*dnode{g.strExpr(depth - 1)}, sub: [2]int{g.pick(6), g.pick(5)}}
	}
}

var diffPatterns = []string{"%", "alp%", "%ta", "%et%", "%a%a%", "alpha", "%lp%a", ""}

func (g *diffGen) boolExpr(depth int) *dnode {
	if depth <= 0 || g.pick(4) == 0 {
		switch g.pick(4) {
		case 0:
			return &dnode{kind: "cmp", op: g.pick(6), kids: []*dnode{g.numExpr(0), g.numExpr(0)}}
		case 1:
			return &dnode{kind: "like", cs: diffPatterns[g.pick(len(diffPatterns))], kids: []*dnode{g.strExpr(1)}}
		case 2:
			n := g.pick(3) + 1
			var vals []string
			for i := 0; i < n; i++ {
				vals = append(vals, diffVocab[g.pick(len(diffVocab))])
			}
			return &dnode{kind: "in", strs: vals, kids: []*dnode{g.strExpr(0)}}
		default:
			return &dnode{kind: "cmp", op: g.pick(6), kids: []*dnode{g.strExpr(1), g.strExpr(1)}}
		}
	}
	switch g.pick(5) {
	case 0:
		return &dnode{kind: "and", kids: []*dnode{g.boolExpr(depth - 1), g.boolExpr(depth - 1)}}
	case 1:
		return &dnode{kind: "or", kids: []*dnode{g.boolExpr(depth - 1), g.boolExpr(depth - 1)}}
	case 2:
		return &dnode{kind: "not", kids: []*dnode{g.boolExpr(depth - 1)}}
	case 3:
		return &dnode{kind: "notlike", cs: diffPatterns[g.pick(len(diffPatterns))], kids: []*dnode{g.strExpr(1)}}
	default:
		return &dnode{kind: "cmp", op: g.pick(6), kids: []*dnode{g.numExpr(depth - 1), g.numExpr(depth - 1)}}
	}
}

// --- the differential tests ------------------------------------------------

func diffTrials(t *testing.T) int {
	if testing.Short() {
		return 25
	}
	return 150
}

func TestDifferentialFilter(t *testing.T) {
	rng := mt.New(0xD1FF)
	g := &diffGen{rng: rng}
	for trial := 0; trial < diffTrials(t); trial++ {
		pred := g.boolExpr(4)
		batch, rows := diffBatch(rng, int(rng.Uint64()%120))
		got, err := FilterBatch(batch, pred.expr())
		if err != nil {
			t.Fatalf("trial %d: %s: %v", trial, pred, err)
		}
		var want []int64
		for _, r := range rows {
			if pred.evalBool(r) {
				want = append(want, r.a)
			}
		}
		if got.Rows() != len(want) {
			t.Fatalf("trial %d: %s: filter kept %d rows, reference kept %d",
				trial, pred, got.Rows(), len(want))
		}
		for i, v := range want {
			if got.Vecs[0].I64[i] != v {
				t.Fatalf("trial %d: %s: row %d col a = %d, want %d",
					trial, pred, i, got.Vecs[0].I64[i], v)
			}
		}
	}
}

func TestDifferentialProject(t *testing.T) {
	rng := mt.New(0xD1FF + 1)
	g := &diffGen{rng: rng}
	for trial := 0; trial < diffTrials(t); trial++ {
		e := g.numExpr(4)
		batch, rows := diffBatch(rng, int(rng.Uint64()%80)+1)
		out, err := Project(batch, []NamedExpr{{Name: "x", Expr: e.expr()}})
		if err != nil {
			t.Fatalf("trial %d: %s: %v", trial, e, err)
		}
		v := out.Vecs[0]
		for i, r := range rows {
			want := e.evalNum(r)
			var got dval
			if v.Typ == column.Int64 {
				got = di(v.I64[i])
			} else {
				got = df(v.F64[i])
			}
			if !sameVal(got, want) {
				t.Fatalf("trial %d: %s: row %d = %+v, want %+v", trial, e, i, got, want)
			}
		}
	}
}

// diffEdgeFloats overwrites some values of the float columns with the keys a
// hash operator must tell apart by bit pattern: both zeros, and NaN (which
// equals itself as a key).
func diffEdgeFloats(rng *mt.Source, b *table.Batch, rows []diffRow) {
	edge := []float64{0, math.Copysign(0, -1), math.NaN()}
	for i := range rows {
		if rng.Uint64()%4 == 0 {
			rows[i].f = edge[rng.Uint64()%3]
			b.Vecs[2].F64[i] = rows[i].f
		}
		if rng.Uint64()%4 == 0 {
			rows[i].g = edge[rng.Uint64()%3]
			b.Vecs[3].F64[i] = rows[i].g
		}
	}
}

// diffSplit cuts b into up to three consecutive batches (views), with a
// schemaless empty batch thrown in now and then, as a scan over several
// segments would deliver it.
func diffSplit(rng *mt.Source, b *table.Batch) []*table.Batch {
	var out []*table.Batch
	lo, n := 0, b.Rows()
	for parts := int(rng.Uint64()%3) + 1; parts > 0; parts-- {
		hi := n
		if parts > 1 {
			hi = lo + int(rng.Uint64()%uint64(n-lo+1))
		}
		if rng.Uint64()%4 == 0 {
			out = append(out, &table.Batch{})
		}
		out = append(out, rowsOf(b, lo, hi))
		lo = hi
	}
	return out
}

// refKey is the reference's idea of a key: the named fields of a row printed
// out, floats as their bit pattern.
func refKey(r diffRow, cols []string) string {
	var sb strings.Builder
	for _, c := range cols {
		switch c {
		case "a":
			fmt.Fprintf(&sb, "%d|", r.a)
		case "b":
			fmt.Fprintf(&sb, "%d|", r.b)
		case "f":
			fmt.Fprintf(&sb, "%x|", math.Float64bits(r.f))
		case "g":
			fmt.Fprintf(&sb, "%x|", math.Float64bits(r.g))
		case "s":
			fmt.Fprintf(&sb, "%q|", r.s)
		default:
			fmt.Fprintf(&sb, "%q|", r.t)
		}
	}
	return sb.String()
}

// TestDifferentialHashJoin checks every join type against a nested loop over
// the same rows: for each probe row in order, each build row in order whose
// key fields are equal. The output must match row for row, not as a multiset
// — the golden query fingerprints depend on that order.
func TestDifferentialHashJoin(t *testing.T) {
	rng := mt.New(0xD1FF + 3)
	keySets := [][]string{{"a"}, {"f"}, {"s"}, {"a", "s"}, {"g", "t", "b"}, {"f", "g"}}
	for trial := 0; trial < diffTrials(t); trial++ {
		keys := keySets[trial%len(keySets)]
		typ := JoinType(trial / len(keySets) % 4)
		sizes := [2]int{int(rng.Uint64() % 60), int(rng.Uint64() % 90)}
		if trial%11 == 0 {
			sizes[trial/11%2] = 0 // an empty side
		}
		build, brows := diffBatch(rng, sizes[0])
		probe, prows := diffBatch(rng, sizes[1])
		diffEdgeFloats(rng, build, brows)
		diffEdgeFloats(rng, probe, prows)
		bkeys := make([]string, len(keys))
		for i := range build.Schema.Cols {
			build.Schema.Cols[i].Name = "b_" + build.Schema.Cols[i].Name
		}
		for i, k := range keys {
			bkeys[i] = "b_" + k
		}
		bparts, pparts := diffSplit(rng, build), diffSplit(rng, probe)
		if trial%13 == 0 {
			bparts = nil // a build side with no batches at all
		}

		got, err := HashJoin(ctxb(), SliceSource(bparts...), bkeys, SliceSource(pparts...), keys, typ)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		// The reference: which (probe row, build row) pairs come out, in
		// order; -1 stands for "no build row".
		if bparts == nil {
			brows = nil
		}
		var pairs [][2]int
		for pi, pr := range prows {
			matched := false
			for bi, br := range brows {
				if refKey(pr, keys) != refKey(br, keys) {
					continue
				}
				matched = true
				if typ == Inner || typ == LeftOuter {
					pairs = append(pairs, [2]int{pi, bi})
				}
			}
			if (typ == Semi && matched) || ((typ == Anti || typ == LeftOuter) && !matched) {
				pairs = append(pairs, [2]int{pi, -1})
			}
		}
		want := &table.Batch{}
		if !(bparts == nil && typ == Inner) { // no build schema: nothing to type an inner result with
			srcs := []*table.Batch{probe}
			if (typ == Inner || typ == LeftOuter) && bparts != nil {
				srcs = append(srcs, build)
			}
			for si, src := range srcs {
				for c, v := range src.Vecs {
					out := column.NewVector(v.Typ)
					for _, p := range pairs {
						switch {
						case p[si] >= 0:
							out.Append(v, p[si])
						case v.Typ == column.Int64:
							out.AppendInt(0)
						case v.Typ == column.Float64:
							out.AppendFloat(0)
						default:
							out.AppendStr("")
						}
					}
					want.Schema.Cols = append(want.Schema.Cols, src.Schema.Cols[c])
					want.Vecs = append(want.Vecs, out)
				}
			}
		}
		if !sameBatch(got, want) {
			t.Fatalf("trial %d: join type %d on %v, %d×%d rows:\n got %+v\nwant %+v",
				trial, typ, keys, len(brows), len(prows), got, want)
		}
	}
}

// TestDifferentialHashAgg compares grouped and global aggregation against
// naive per-group accumulators fed one row at a time: groups must come out in
// the order their first row arrived, and float sums must carry the bits the
// row-order additions produce.
func TestDifferentialHashAgg(t *testing.T) {
	rng := mt.New(0xD1FF + 2)
	g := &diffGen{rng: rng}
	groupings := [][]string{nil, {"s"}, {"a", "t"}, {"g"}, {"s", "f", "b"}}
	trials := diffTrials(t) / 3
	for trial := 0; trial < trials; trial++ {
		e := g.numExpr(3)
		batch, rows := diffBatch(rng, int(rng.Uint64()%150))
		diffEdgeFloats(rng, batch, rows)
		aggs := []Agg{
			{Func: Count, As: "cnt"},
			{Func: Sum, Expr: e.expr(), As: "sum"},
			{Func: Avg, Expr: e.expr(), As: "avg"},
			{Func: Min, Expr: e.expr(), As: "min"},
			{Func: Max, Expr: e.expr(), As: "max"},
			{Func: CountDistinct, Expr: Col("s"), As: "dist_s"},
			{Func: CountDistinct, Expr: Col("b"), As: "dist_b"},
			{Func: CountDistinct, Expr: Col("g"), As: "dist_g"},
		}
		groupBy := groupings[trial%len(groupings)]
		out, err := HashAgg(ctxb(), SliceSource(diffSplit(rng, batch)...), groupBy, aggs)
		if err != nil {
			t.Fatalf("trial %d: %s: %v", trial, e, err)
		}

		// Reference accumulation, row-at-a-time in input order.
		type acc struct {
			first    diffRow
			cnt      int64
			sumI     int64
			sumF     float64
			min, max dval
			isF      bool
			dist     [3]map[string]struct{}
		}
		newAcc := func(r diffRow) *acc {
			return &acc{first: r, dist: [3]map[string]struct{}{{}, {}, {}}}
		}
		ref := map[string]*acc{}
		var order []*acc
		for _, r := range rows {
			key := refKey(r, groupBy)
			a := ref[key]
			if a == nil {
				a = newAcc(r)
				ref[key] = a
				order = append(order, a)
			}
			v := e.evalNum(r)
			if a.cnt == 0 || lessVal(v, a.min) {
				a.min = v
			}
			if a.cnt == 0 || lessVal(a.max, v) {
				a.max = v
			}
			a.cnt++
			a.sumI += v.i
			a.sumF += v.asF()
			a.isF = a.isF || v.isF
			for i, c := range []string{"s", "b", "g"} {
				a.dist[i][refKey(r, []string{c})] = struct{}{}
			}
		}
		if groupBy == nil && len(order) == 0 {
			order = append(order, newAcc(diffRow{}))
		}

		if out.Rows() != len(order) {
			t.Fatalf("trial %d: %s by %v: %d groups, want %d", trial, e, groupBy, out.Rows(), len(order))
		}
		for i, a := range order {
			where := fmt.Sprintf("trial %d: %s by %v: group %d", trial, e, groupBy, i)
			// First-seen order: group i carries the key of the i-th new key.
			for _, c := range groupBy {
				v := out.Col(c)
				got := diffRow{}
				switch c {
				case "a":
					got.a = v.I64[i]
				case "b":
					got.b = v.I64[i]
				case "f":
					got.f = v.F64[i]
				case "g":
					got.g = v.F64[i]
				case "s":
					got.s = v.Str[i]
				default:
					got.t = v.Str[i]
				}
				if refKey(got, []string{c}) != refKey(a.first, []string{c}) {
					t.Fatalf("%s: key column %s out of first-seen order", where, c)
				}
			}
			if got := out.Col("cnt").I64[i]; got != a.cnt {
				t.Fatalf("%s: count = %d, want %d", where, got, a.cnt)
			}
			for j, name := range []string{"dist_s", "dist_b", "dist_g"} {
				if got := out.Col(name).I64[i]; got != int64(len(a.dist[j])) {
					t.Fatalf("%s: %s = %d, want %d", where, name, got, len(a.dist[j]))
				}
			}
			if a.cnt == 0 {
				continue // empty global group: the engine emits zero values
			}
			wantSum := df(a.sumF)
			if !a.isF {
				wantSum = di(a.sumI)
			}
			for name, want := range map[string]dval{"sum": wantSum, "min": a.min, "max": a.max, "avg": df(a.sumF / float64(a.cnt))} {
				v := out.Col(name)
				switch {
				case v.Typ == column.Int64 && !want.isF:
					if v.I64[i] != want.i {
						t.Fatalf("%s: %s = %d, want %d", where, name, v.I64[i], want.i)
					}
				case v.Typ == column.Float64 && want.isF:
					// Bit for bit: the engine adds a group's rows in row order.
					if math.Float64bits(v.F64[i]) != math.Float64bits(want.f) {
						t.Fatalf("%s: %s = %v (%x), want %v (%x)", where, name,
							v.F64[i], math.Float64bits(v.F64[i]), want.f, math.Float64bits(want.f))
					}
				default:
					t.Fatalf("%s: %s has type %v, want float=%v", where, name, v.Typ, want.isF)
				}
			}
		}
	}
}

func lessVal(x, y dval) bool {
	if !x.isF && !y.isF {
		return x.i < y.i
	}
	return x.asF() < y.asF()
}
