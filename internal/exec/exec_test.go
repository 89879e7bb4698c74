package exec

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"cloudiq/internal/buffer"
	"cloudiq/internal/column"
	"cloudiq/internal/core"
	"cloudiq/internal/expr"
	"cloudiq/internal/keygen"
	"cloudiq/internal/mt"
	"cloudiq/internal/objstore"
	"cloudiq/internal/rfrb"
	"cloudiq/internal/table"
)

func ctxb() context.Context { return context.Background() }

func batchOf(t *testing.T, cols []table.ColumnDef, build func(b *table.Batch)) *table.Batch {
	if t != nil {
		t.Helper()
	}
	b := table.NewBatch(table.Schema{Cols: cols})
	build(b)
	return b
}

// rowsOf returns rows [lo, hi) of b as a view.
func rowsOf(b *table.Batch, lo, hi int) *table.Batch {
	part := &table.Batch{Schema: b.Schema}
	for _, v := range b.Vecs {
		part.Vecs = append(part.Vecs, v.Slice(lo, hi))
	}
	return part
}

func intCol(name string) table.ColumnDef { return table.ColumnDef{Name: name, Typ: column.Int64} }
func fltCol(name string) table.ColumnDef { return table.ColumnDef{Name: name, Typ: column.Float64} }
func strCol(name string) table.ColumnDef { return table.ColumnDef{Name: name, Typ: column.String} }

func sampleBatch(t *testing.T) *table.Batch {
	return batchOf(t, []table.ColumnDef{intCol("id"), fltCol("price"), strCol("tag")}, func(b *table.Batch) {
		for i := 0; i < 6; i++ {
			b.Vecs[0].AppendInt(int64(i))
			b.Vecs[1].AppendFloat(float64(i) * 10)
			b.Vecs[2].AppendStr([]string{"red", "blue"}[i%2])
		}
	})
}

// TestExprOverBatch drives the kernel through this package's constructors
// and a *table.Batch environment; evaluator semantics themselves are tabled in
// internal/expr.
func TestExprOverBatch(t *testing.T) {
	b := sampleBatch(t)
	v, err := And(Lt(Add(Col("id"), ConstI(1)), ConstI(5)), Ne(Col("tag"), ConstS("red"))).Eval(b)
	if err != nil || !reflect.DeepEqual(v.I64, []int64{0, 1, 0, 1, 0, 0}) {
		t.Fatalf("And = %v, %v", v, err)
	}
	v, err = Case(InS(Col("tag"), "red", "green", "red"), Col("price"), ConstF(0)).Eval(b)
	if err != nil || v.F64[2] != 20 || v.F64[3] != 0 {
		t.Fatalf("Case = %v, %v", v, err)
	}
	if _, err := Col("ghost").Eval(b); !errors.Is(err, expr.ErrInvalid) {
		t.Fatalf("unknown column: %v", err)
	}
	// The drift the two evaluators had: these index-panicked reader-side.
	if _, err := And(Col("price"), Col("price")).Eval(b); !errors.Is(err, expr.ErrInvalid) {
		t.Fatalf("And over floats: %v", err)
	}
	if _, err := FilterBatch(b, Case(Col("price"), Col("tag"), Col("tag"))); !errors.Is(err, expr.ErrInvalid) {
		t.Fatalf("ill-typed Case filter: %v", err)
	}
	if _, err := HashAgg(ctxb(), SliceSource(b), nil, []Agg{{Func: Sum, Expr: Col("tag"), As: "s"}}); !errors.Is(err, expr.ErrInvalid) {
		t.Fatalf("Sum over strings: %v", err)
	}
}

func TestFilterProjectSortLimit(t *testing.T) {
	b := sampleBatch(t)
	f, err := FilterBatch(b, Ge(Col("id"), ConstI(2)))
	if err != nil || f.Rows() != 4 {
		t.Fatalf("filter = %d rows, %v", f.Rows(), err)
	}
	p, err := Project(f, []NamedExpr{
		{Name: "double", Expr: Mul(Col("price"), ConstF(2))},
		{Name: "tag", Expr: Col("tag")},
	})
	if err != nil || len(p.Vecs) != 2 || p.Vecs[0].F64[0] != 40 {
		t.Fatalf("project = %+v, %v", p, err)
	}
	s, err := Sort(b, []SortKey{{Col: "tag"}, {Col: "id", Desc: true}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Col("tag").Str[0] != "blue" || s.Col("id").I64[0] != 5 {
		t.Fatalf("sort head = %v %v", s.Col("tag").Str, s.Col("id").I64)
	}
	// A NaN key (0/0 under DivE) sorts before every number ascending, after
	// every number descending; equal keys keep their input order.
	nan := batchOf(t, []table.ColumnDef{intCol("id"), fltCol("x")}, func(b *table.Batch) {
		for i, x := range []float64{3, math.NaN(), 1, 2, math.NaN()} {
			b.Vecs[0].AppendInt(int64(i))
			b.Vecs[1].AppendFloat(x)
		}
	})
	for _, tc := range []struct {
		desc bool
		ids  []int64
	}{{false, []int64{1, 4, 2, 3, 0}}, {true, []int64{0, 3, 2, 1, 4}}} {
		ns, err := Sort(nan, []SortKey{{Col: "x", Desc: tc.desc}})
		if err != nil || !reflect.DeepEqual(ns.Col("id").I64, tc.ids) {
			t.Fatalf("sort with NaN keys, desc %v: ids %v, want %v (%v)", tc.desc, ns.Col("id").I64, tc.ids, err)
		}
	}
	l := Limit(s, 2)
	if l.Rows() != 2 {
		t.Fatalf("limit = %d", l.Rows())
	}
	if Limit(l, 10).Rows() != 2 {
		t.Fatal("limit beyond size changed batch")
	}
	for _, n := range []int{0, -1} {
		e := Limit(s, n)
		if e.Rows() != 0 || !reflect.DeepEqual(e.Schema, s.Schema) || len(e.Vecs) != len(s.Vecs) {
			t.Fatalf("limit %d = %d rows, schema %v", n, e.Rows(), e.Schema)
		}
		for i, v := range e.Vecs {
			if v.Typ != s.Vecs[i].Typ {
				t.Fatalf("limit %d: column %d is %v, want %v", n, i, v.Typ, s.Vecs[i].Typ)
			}
		}
	}
}

func TestHashJoinInner(t *testing.T) {
	orders := batchOf(t, []table.ColumnDef{intCol("o_custkey"), fltCol("o_total")}, func(b *table.Batch) {
		for _, o := range []struct {
			ck int64
			t  float64
		}{{1, 10}, {2, 20}, {1, 30}, {9, 40}} {
			b.Vecs[0].AppendInt(o.ck)
			b.Vecs[1].AppendFloat(o.t)
		}
	})
	custs := batchOf(t, []table.ColumnDef{intCol("c_custkey"), strCol("c_name")}, func(b *table.Batch) {
		b.Vecs[0].AppendInt(1)
		b.Vecs[1].AppendStr("alice")
		b.Vecs[0].AppendInt(2)
		b.Vecs[1].AppendStr("bob")
	})
	out, err := HashJoin(ctxb(), SliceSource(custs), []string{"c_custkey"}, SliceSource(orders), []string{"o_custkey"}, Inner)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 3 {
		t.Fatalf("inner join rows = %d", out.Rows())
	}
	// Probe columns first, then build columns; row for o_custkey=2 carries bob.
	for r := 0; r < out.Rows(); r++ {
		ck := out.Col("o_custkey").I64[r]
		name := out.Col("c_name").Str[r]
		if (ck == 1 && name != "alice") || (ck == 2 && name != "bob") {
			t.Fatalf("row %d: custkey %d name %s", r, ck, name)
		}
	}
}

func TestHashJoinLeftOuterSemiAnti(t *testing.T) {
	left := batchOf(t, []table.ColumnDef{intCol("k")}, func(b *table.Batch) {
		for _, v := range []int64{1, 2, 3} {
			b.Vecs[0].AppendInt(v)
		}
	})
	right := batchOf(t, []table.ColumnDef{intCol("rk"), strCol("val")}, func(b *table.Batch) {
		b.Vecs[0].AppendInt(2)
		b.Vecs[1].AppendStr("two")
	})
	lo, err := HashJoin(ctxb(), SliceSource(right), []string{"rk"}, SliceSource(left), []string{"k"}, LeftOuter)
	if err != nil || lo.Rows() != 3 {
		t.Fatalf("left outer rows = %d, %v", lo.Rows(), err)
	}
	for r := 0; r < 3; r++ {
		k := lo.Col("k").I64[r]
		val := lo.Col("val").Str[r]
		if (k == 2 && val != "two") || (k != 2 && val != "") {
			t.Fatalf("left outer row %d: k=%d val=%q", r, k, val)
		}
	}
	semi, err := HashJoin(ctxb(), SliceSource(right), []string{"rk"}, SliceSource(left), []string{"k"}, Semi)
	if err != nil || semi.Rows() != 1 || semi.Col("k").I64[0] != 2 {
		t.Fatalf("semi = %+v, %v", semi, err)
	}
	anti, err := HashJoin(ctxb(), SliceSource(right), []string{"rk"}, SliceSource(left), []string{"k"}, Anti)
	if err != nil || anti.Rows() != 2 {
		t.Fatalf("anti rows = %d, %v", anti.Rows(), err)
	}
}

func TestHashJoinMultiKeyAndDuplicates(t *testing.T) {
	build := batchOf(t, []table.ColumnDef{intCol("a"), strCol("b"), intCol("payload")}, func(b *table.Batch) {
		b.Vecs[0].AppendInt(1)
		b.Vecs[1].AppendStr("x")
		b.Vecs[2].AppendInt(100)
		b.Vecs[0].AppendInt(1)
		b.Vecs[1].AppendStr("x")
		b.Vecs[2].AppendInt(200)
	})
	probe := batchOf(t, []table.ColumnDef{intCol("pa"), strCol("pb")}, func(b *table.Batch) {
		b.Vecs[0].AppendInt(1)
		b.Vecs[1].AppendStr("x")
		b.Vecs[0].AppendInt(1)
		b.Vecs[1].AppendStr("y")
	})
	out, err := HashJoin(ctxb(), SliceSource(build), []string{"a", "b"}, SliceSource(probe), []string{"pa", "pb"}, Inner)
	if err != nil || out.Rows() != 2 {
		t.Fatalf("multi-key join rows = %d, %v", out.Rows(), err)
	}
}

func TestHashAggGlobalAndGrouped(t *testing.T) {
	b := sampleBatch(t) // ids 0..5, price = id*10, tags red/blue
	out, err := HashAgg(ctxb(), SliceSource(b), nil, []Agg{
		{Func: Count, As: "n"},
		{Func: Sum, Expr: Col("price"), As: "total"},
		{Func: Avg, Expr: Col("id"), As: "avg_id"},
		{Func: Min, Expr: Col("tag"), As: "min_tag"},
		{Func: Max, Expr: Col("id"), As: "max_id"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 1 || out.Col("n").I64[0] != 6 || out.Col("total").F64[0] != 150 {
		t.Fatalf("global agg = %+v", out)
	}
	if out.Col("avg_id").F64[0] != 2.5 || out.Col("min_tag").Str[0] != "blue" || out.Col("max_id").I64[0] != 5 {
		t.Fatalf("global agg = %+v", out)
	}

	grouped, err := HashAgg(ctxb(), SliceSource(b), []string{"tag"}, []Agg{
		{Func: Count, As: "n"},
		{Func: Sum, Expr: Col("id"), As: "ids"},
	})
	if err != nil || grouped.Rows() != 2 {
		t.Fatalf("grouped = %+v, %v", grouped, err)
	}
	for r := 0; r < 2; r++ {
		tag := grouped.Col("tag").Str[r]
		ids := grouped.Col("ids").I64[r]
		if (tag == "red" && ids != 6) || (tag == "blue" && ids != 9) {
			t.Fatalf("group %s ids = %d", tag, ids)
		}
	}
}

func TestHashAggCountDistinctAndEmptyInput(t *testing.T) {
	b := sampleBatch(t)
	out, err := HashAgg(ctxb(), SliceSource(b), nil, []Agg{
		{Func: CountDistinct, Expr: Col("tag"), As: "tags"},
	})
	if err != nil || out.Col("tags").I64[0] != 2 {
		t.Fatalf("distinct = %+v, %v", out, err)
	}
	empty, err := HashAgg(ctxb(), SliceSource(), nil, []Agg{{Func: Count, As: "n"}})
	if err != nil || empty.Rows() != 1 || empty.Col("n").I64[0] != 0 {
		t.Fatalf("empty global agg = %+v, %v", empty, err)
	}
}

// TestHashKeysWithNUL: the byte-encoded keys these operators used to build
// ended each string with 0x00, so ("a\x00","b") and ("a","\x00b") encoded
// alike; HashAgg merged them into one group and HashJoin matched them.
// Equality is now per column.
func TestHashKeysWithNUL(t *testing.T) {
	pairs := func(p, q string, vals ...string) *table.Batch {
		return batchOf(t, []table.ColumnDef{strCol(p), strCol(q)}, func(b *table.Batch) {
			for i := 0; i < len(vals); i += 2 {
				b.Vecs[0].AppendStr(vals[i])
				b.Vecs[1].AppendStr(vals[i+1])
			}
		})
	}
	in := pairs("p", "q", "a\x00", "b", "a", "\x00b", "a\x00", "b")
	g, err := HashAgg(ctxb(), SliceSource(in), []string{"p", "q"}, []Agg{{Func: Count, As: "n"}})
	if err != nil {
		t.Fatal(err)
	}
	if g.Rows() != 2 || !reflect.DeepEqual(g.Col("n").I64, []int64{2, 1}) ||
		!reflect.DeepEqual(g.Col("p").Str, []string{"a\x00", "a"}) {
		t.Fatalf("groups = %v %v n=%v", g.Col("p").Str, g.Col("q").Str, g.Col("n").I64)
	}
	build := pairs("bp", "bq", "a\x00", "b")
	j, err := HashJoin(ctxb(), SliceSource(build), []string{"bp", "bq"}, SliceSource(in), []string{"p", "q"}, Inner)
	if err != nil {
		t.Fatal(err)
	}
	if j.Rows() != 2 || j.Col("p").Str[0] != "a\x00" || j.Col("p").Str[1] != "a\x00" {
		t.Fatalf("join matched %d rows: %v", j.Rows(), j.Col("p").Str)
	}
}

// TestHashKeyTypeMismatch: keys that differ in number or type between the two
// sides of a join, or between batches of a grouped source, and an aggregate
// input that changes type between batches, are an error, not a panic inside
// the typed compare.
func TestHashKeyTypeMismatch(t *testing.T) {
	ints := batchOf(t, []table.ColumnDef{intCol("k")}, func(b *table.Batch) { b.Vecs[0].AppendInt(1) })
	flts := batchOf(t, []table.ColumnDef{fltCol("k")}, func(b *table.Batch) { b.Vecs[0].AppendFloat(1) })
	other := batchOf(t, []table.ColumnDef{fltCol("j"), intCol("j2")}, func(b *table.Batch) {
		b.Vecs[0].AppendFloat(1)
		b.Vecs[1].AppendInt(1)
	})
	if _, err := HashJoin(ctxb(), SliceSource(ints), []string{"k"}, SliceSource(other), []string{"j"}, Inner); err == nil {
		t.Error("join of an int key with a float key accepted")
	}
	if _, err := HashJoin(ctxb(), SliceSource(ints), []string{"k"}, SliceSource(other), []string{"j2", "j"}, Semi); err == nil {
		t.Error("join with one build key and two probe keys accepted")
	}
	if _, err := HashAgg(ctxb(), SliceSource(ints, flts), []string{"k"}, []Agg{{Func: Count, As: "n"}}); err == nil {
		t.Error("group column changing type between batches accepted")
	}
	for _, f := range []AggFunc{CountDistinct, Min} {
		if _, err := HashAgg(ctxb(), SliceSource(ints, flts), nil, []Agg{{Func: f, Expr: Col("k"), As: "n"}}); err == nil {
			t.Errorf("aggregate %d over an input changing type between batches accepted", f)
		}
	}
}

// TestFilterBatchWholeAndEmpty: a predicate that keeps every row returns the
// batch itself; one that keeps none returns a typed empty batch.
func TestFilterBatchWholeAndEmpty(t *testing.T) {
	b := sampleBatch(t)
	all, err := FilterBatch(b, Ge(Col("id"), ConstI(0)))
	if err != nil || all != b {
		t.Fatalf("all rows pass: got a copy (%v)", err)
	}
	none, err := FilterBatch(b, Lt(Col("id"), ConstI(0)))
	if err != nil || none.Rows() != 0 || len(none.Vecs) != 3 || none.Vecs[2].Typ != column.String ||
		!reflect.DeepEqual(none.Schema, b.Schema) {
		t.Fatalf("no rows pass: %+v, %v", none, err)
	}
}

// end-to-end scan over a real stored table.
func TestScanWithZonePruningAndFilter(t *testing.T) {
	store := objstore.NewMem(objstore.Config{})
	gen := keygen.NewGenerator(nil)
	client := keygen.NewClient(func(ctx context.Context, n uint64) (rfrb.Range, error) {
		return gen.Allocate(ctx, "n", n)
	})
	ds := core.NewCloud(core.CloudConfig{Name: "user", Store: store, Keys: client})
	pool := buffer.NewPool(buffer.Config{Capacity: 8 << 20})
	bm, _ := core.NewBlockmap(ds, 16)
	obj := pool.OpenObject(ds, bm, core.LockedSink(core.BitmapSink{RB: &rfrb.Bitmap{}, RF: &rfrb.Bitmap{}}))
	tbl, err := table.Create("t", obj, table.Schema{Cols: []table.ColumnDef{intCol("id"), strCol("tag")}}, table.Options{SegRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	batch := table.NewBatch(tbl.Schema())
	for i := 0; i < 1000; i++ {
		batch.Vecs[0].AppendInt(int64(i))
		batch.Vecs[1].AppendStr([]string{"a", "b"}[i%2])
	}
	if err := tbl.Append(ctxb(), batch); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}

	// The filter admits ids 250..349: the zone maps of the clustered id
	// column leave exactly the two segments that overlap that range.
	src, err := Scan(tbl, []string{"id", "tag"}, ScanOptions{
		Filter: And(Ge(Col("id"), ConstI(250)), Lt(Col("id"), ConstI(350))),
	})
	if err != nil {
		t.Fatal(err)
	}
	if segs := src.(*scanSource).segs; !reflect.DeepEqual(segs, []int{2, 3}) {
		t.Fatalf("scan kept segments %v, want [2 3]", segs)
	}
	out, err := Collect(ctxb(), src)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 100 {
		t.Fatalf("rows = %d, want 100", out.Rows())
	}
	// 2 of 10 segments read (2 columns each), plus meta/blockmap traffic.
	if gets := store.Metrics().Gets(); gets > 12 {
		t.Fatalf("scan issued %d GETs; zone pruning not effective", gets)
	}
	if _, err := Scan(tbl, []string{"nope"}, ScanOptions{}); err == nil {
		t.Fatal("scan of unknown column accepted")
	}
}

// TestMayMatch pins what zone pruning decides and, as important, what it
// leaves alone: only a column against a literal of a comparable type, in
// either operand order, under AND/OR.
func TestMayMatch(t *testing.T) {
	sch := table.Schema{Cols: []table.ColumnDef{intCol("i"), fltCol("f"), strCol("s"), fltCol("n")}}
	zones := []column.ZoneMap{
		column.BuildZoneMap(&column.Vector{Typ: column.Int64, I64: []int64{5, 10}}),
		column.BuildZoneMap(&column.Vector{Typ: column.Float64, F64: []float64{1.5, 2.5}}),
		column.BuildZoneMap(&column.Vector{Typ: column.String, Str: []string{"b", "d"}}),
		column.BuildZoneMap(&column.Vector{Typ: column.Float64, F64: []float64{1, math.NaN()}}),
	}
	i, f, s := Col("i"), Col("f"), Col("s")
	cases := []struct {
		e    Expr
		want bool
	}{
		{nil, true},
		{Eq(i, ConstI(7)), true}, {Eq(i, ConstI(11)), false}, {Eq(ConstI(4), i), false},
		{Lt(i, ConstI(5)), false}, {Le(i, ConstI(5)), true}, {Gt(i, ConstI(10)), false}, {Ge(i, ConstI(10)), true},
		{Gt(ConstI(5), i), false}, {Ge(ConstI(5), i), true}, // mirrored: i < 5, i <= 5
		{Lt(i, ConstI(math.MinInt64)), false}, {Gt(i, ConstI(math.MaxInt64)), false},
		{Ne(i, ConstI(7)), true},
		{Eq(f, ConstF(2)), true}, {Eq(f, ConstF(3)), false}, {Ge(f, ConstF(2.75)), false}, {Le(f, ConstF(1.25)), false},
		{Lt(f, ConstF(1.5)), true},                          // strict float bounds stay inclusive
		{Gt(f, ConstI(2)), true}, {Gt(f, ConstI(3)), false}, // int literal promotes as Eval does
		{Ge(f, ConstF(math.NaN())), true}, // NaN equals everything
		{Ge(Col("n"), ConstF(100)), true}, // a NaN row passes >=, = and <=
		{Eq(s, ConstS("c")), true}, {Eq(s, ConstS("e")), false}, {Lt(s, ConstS("a")), false}, {Ge(ConstS("a"), s), false},
		{Gt(i, ConstF(10.5)), true}, {Eq(s, ConstI(1)), true}, {Eq(i, ConstS("x")), true}, // other type pairs: Eval's call
		{Eq(Col("nope"), ConstI(1)), true}, {Eq(i, Col("i")), true}, {Eq(Add(i, ConstI(0)), ConstI(99)), true},
		{Like(s, "z%"), true}, {Not(Eq(i, ConstI(7))), true},
		{And(Ge(i, ConstI(5)), Lt(i, ConstI(5))), false}, {And(Ge(i, ConstI(5)), Like(s, "z%")), true},
		{Or(Lt(i, ConstI(5)), Gt(f, ConstF(3))), false}, {Or(Lt(i, ConstI(5)), Eq(s, ConstS("c"))), true},
	}
	for n, c := range cases {
		if got := mayMatch(c.e, sch, zones); got != c.want {
			t.Errorf("case %d: mayMatch = %v, want %v", n, got, c.want)
		}
	}
	// An empty segment's inverted bounds match nothing.
	empty := []column.ZoneMap{column.BuildZoneMap(&column.Vector{Typ: column.Int64})}
	if mayMatch(Ge(i, ConstI(0)), sch, empty) {
		t.Error("empty segment kept")
	}
}

// TestMayMatchSound holds pruning to the reference evaluator: over random
// predicates and segments of a few rows (narrow zone maps, so pruning fires
// often), a pruned segment must hold no row that passes.
func TestMayMatchSound(t *testing.T) {
	rng := mt.New(0x20E5)
	g := &diffGen{rng: rng}
	pruned := 0
	trials := 100 * diffTrials(t)
	for trial := 0; trial < trials; trial++ {
		pred := g.boolExpr(3)
		batch, rows := diffBatch(rng, 1+int(rng.Uint64()%3))
		zones := make([]column.ZoneMap, len(batch.Vecs))
		for c, v := range batch.Vecs {
			zones[c] = column.BuildZoneMap(v)
		}
		if mayMatch(pred.expr(), batch.Schema, zones) {
			continue
		}
		pruned++
		for _, r := range rows {
			if pred.evalBool(r) {
				t.Fatalf("trial %d: %s: pruned a segment holding the passing row %+v", trial, pred, r)
			}
		}
	}
	if pruned < trials/100 {
		t.Fatalf("only %d of %d trials pruned; the test is vacuous", pruned, trials)
	}
}

func TestPropertyFilterMatchesManualScan(t *testing.T) {
	f := func(vals []int16, threshold int16) bool {
		b := batchOf(nil, []table.ColumnDef{intCol("x")}, func(b *table.Batch) {
			for _, v := range vals {
				b.Vecs[0].AppendInt(int64(v))
			}
		})
		out, err := FilterBatch(b, Gt(Col("x"), ConstI(int64(threshold))))
		if err != nil {
			return false
		}
		want := 0
		for _, v := range vals {
			if v > threshold {
				want++
			}
		}
		return out.Rows() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySortIsOrdered(t *testing.T) {
	f := func(vals []int32) bool {
		b := batchOf(nil, []table.ColumnDef{intCol("x")}, func(b *table.Batch) {
			for _, v := range vals {
				b.Vecs[0].AppendInt(int64(v))
			}
		})
		out, err := Sort(b, []SortKey{{Col: "x"}})
		if err != nil {
			return false
		}
		got := out.Col("x").I64
		for i := 1; i < len(got); i++ {
			if got[i-1] > got[i] {
				return false
			}
		}
		return len(got) == len(vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
