package exec

// Pushdown differential tests: every scan mode must return byte-identical
// rows. Row-mode pushdown re-encodes the qualifying rows store-side with the
// same segment codec the reader uses, so the comparison is exact (bitwise,
// via the encoded images) — including under injected obj.select faults that
// force mid-query fallback to plain reads.

import (
	"bytes"
	"context"
	"math"
	"slices"
	"testing"

	"cloudiq/internal/buffer"
	"cloudiq/internal/column"
	"cloudiq/internal/core"
	"cloudiq/internal/deflate"
	"cloudiq/internal/faultinject"
	"cloudiq/internal/keygen"
	"cloudiq/internal/mt"
	"cloudiq/internal/objstore"
	"cloudiq/internal/rfrb"
	"cloudiq/internal/table"
)

var diffCols = []string{"a", "b", "f", "g", "s", "t"}

// pushdownTable stores rows of the differential schema (a,b int; f,g float;
// s,t string) in small segments on the given store. The tiny pool capacity
// keeps the page cache cold so plain reads actually hit the store.
func pushdownTable(t *testing.T, store objstore.Store, rows, segRows int, seed uint64) (*table.Table, []diffRow) {
	t.Helper()
	gen := keygen.NewGenerator(nil)
	client := keygen.NewClient(func(ctx context.Context, n uint64) (rfrb.Range, error) {
		return gen.Allocate(ctx, "n", n)
	})
	ds := core.NewCloud(core.CloudConfig{Name: "user", Store: store, Keys: client})
	pool := buffer.NewPool(buffer.Config{Capacity: 4096})
	bm, err := core.NewBlockmap(ds, 16)
	if err != nil {
		t.Fatal(err)
	}
	obj := pool.OpenObject(ds, bm, core.LockedSink(core.BitmapSink{RB: &rfrb.Bitmap{}, RF: &rfrb.Bitmap{}}))
	tbl, err := table.Create("t", obj, table.Schema{Cols: []table.ColumnDef{
		intCol("a"), intCol("b"), fltCol("f"), fltCol("g"), strCol("s"), strCol("t"),
	}}, table.Options{SegRows: segRows})
	if err != nil {
		t.Fatal(err)
	}
	rng := mt.New(seed)
	b, data := diffBatch(rng, rows)
	if err := tbl.Append(ctxb(), b); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	return tbl, data
}

// sameBatch compares two batches bitwise through their encoded segment
// images, so float payloads are compared exactly.
func sameBatch(a, b *table.Batch) bool {
	if len(a.Vecs) != len(b.Vecs) || len(a.Schema.Cols) != len(b.Schema.Cols) {
		return false
	}
	for i := range a.Vecs {
		if a.Schema.Cols[i] != b.Schema.Cols[i] {
			return false
		}
		if !bytes.Equal(column.EncodeSegment(a.Vecs[i]), column.EncodeSegment(b.Vecs[i])) {
			return false
		}
	}
	return true
}

func collectScan(t *testing.T, tbl *table.Table, opts ScanOptions) *table.Batch {
	t.Helper()
	opts.Prefetch = -1
	src, err := Scan(tbl, diffCols, opts)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(ctxb(), src)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPushdownDifferentialScan runs random filters through all three scan
// modes and demands byte-identical results. The store evaluates the reader's
// own trees, so under PushdownForce no generated shape (CASE and SUBSTRING
// included) may fall back: every segment of every forced scan must be
// answered by Select, with no plain read beside it.
func TestPushdownDifferentialScan(t *testing.T) {
	store := objstore.NewMem(objstore.Config{})
	tbl, data := pushdownTable(t, store, 500, 64, 0x9055)
	rng := mt.New(0x9056)
	g := &diffGen{rng: rng}
	trials := diffTrials(t)
	// A select that answers scans its segment's stored columns whole; one the
	// store rejects scans nothing. An unfiltered forced scan sets the mark.
	m := store.Metrics()
	collectScan(t, tbl, ScanOptions{Pushdown: PushdownForce})
	segs, tableBytes := int64(tbl.Segments()), m.SelectScannedBytes()
	if m.Selects() != segs || tableBytes == 0 {
		t.Fatalf("unfiltered forced scan: %d selects over %d segments, %d bytes", m.Selects(), segs, tableBytes)
	}
	for trial := 0; trial < trials; trial++ {
		pred := g.boolExpr(3)
		plain := collectScan(t, tbl, ScanOptions{Filter: pred.expr()})
		// The plain scan prunes by zone map too; the row-at-a-time reference
		// does not.
		want := 0
		for _, r := range data {
			if pred.evalBool(r) {
				want++
			}
		}
		if plain.Rows() != want {
			t.Fatalf("trial %d: %s: plain scan returned %d rows, reference %d", trial, pred, plain.Rows(), want)
		}
		src, err := Scan(tbl, diffCols, ScanOptions{Filter: pred.expr()})
		if err != nil {
			t.Fatal(err)
		}
		kept := int64(len(src.(*scanSource).segs))
		selects, scanned := m.Selects(), m.SelectScannedBytes()
		forced := collectScan(t, tbl, ScanOptions{Filter: pred.expr(), Pushdown: PushdownForce})
		ds, db := m.Selects()-selects, m.SelectScannedBytes()-scanned
		if ds != kept || db > tableBytes || (kept == segs && db != tableBytes) {
			t.Fatalf("trial %d: %s: forced scan made %d selects scanning %d bytes, want %d (of %d segments, %d bytes): a segment fell back",
				trial, pred, ds, db, kept, segs, tableBytes)
		}
		auto := collectScan(t, tbl, ScanOptions{Filter: pred.expr(), Pushdown: PushdownAuto})
		if !sameBatch(plain, forced) {
			t.Fatalf("trial %d: %s: forced pushdown diverged (%d vs %d rows)",
				trial, pred, forced.Rows(), plain.Rows())
		}
		if !sameBatch(plain, auto) {
			t.Fatalf("trial %d: %s: auto pushdown diverged (%d vs %d rows)",
				trial, pred, auto.Rows(), plain.Rows())
		}
	}
}

// TestPushdownFaultFallback injects obj.select faults — total and
// probabilistic — and demands the scan still return exactly the plain
// result, with the failed segments served by plain reads mid-query.
func TestPushdownFaultFallback(t *testing.T) {
	pred := And(Ge(Col("a"), ConstI(-3)), Lt(Col("b"), ConstI(40)))

	plainStore := objstore.NewMem(objstore.Config{})
	plainTbl, _ := pushdownTable(t, plainStore, 400, 64, 0x9077)
	want := collectScan(t, plainTbl, ScanOptions{Filter: pred})

	for name, arm := range map[string]func(*faultinject.Plan){
		"always": func(p *faultinject.Plan) { p.Always(faultinject.ObjSelect) },
		"some":   func(p *faultinject.Plan) { p.Prob(faultinject.ObjSelect, 0.5) },
		"first":  func(p *faultinject.Plan) { p.FailNext(faultinject.ObjSelect, 1) },
	} {
		plan := faultinject.New(0xFA17)
		arm(plan)
		store := objstore.NewMem(objstore.Config{Faults: plan})
		tbl, _ := pushdownTable(t, store, 400, 64, 0x9077)
		got := collectScan(t, tbl, ScanOptions{Filter: pred, Pushdown: PushdownForce})
		if !sameBatch(want, got) {
			t.Fatalf("%s: faulted pushdown scan diverged (%d vs %d rows)", name, got.Rows(), want.Rows())
		}
		if plan.Calls(faultinject.ObjSelect) == 0 {
			t.Fatalf("%s: fault site never consulted", name)
		}
	}
}

// TestScanAllPrunedTypedEmpty pins the satellite bugfix: a scan whose every
// segment is zone-pruned must produce the same typed empty batch as a scan
// whose filter removed every row — not a schemaless one that downstream
// operators cannot type.
func TestScanAllPrunedTypedEmpty(t *testing.T) {
	store := objstore.NewMem(objstore.Config{})
	tbl, _ := pushdownTable(t, store, 300, 64, 0x90AA)

	// a is drawn from [-10, 10]; the zone maps prune every segment.
	prunes := Ge(Col("a"), ConstI(1000))
	// The reference reads everything and filters every row out (zone maps
	// do not see through the addition).
	filters := Eq(Add(Col("a"), ConstI(0)), ConstI(99999))
	if src, err := Scan(tbl, diffCols, ScanOptions{Filter: filters}); err != nil || len(src.(*scanSource).segs) != tbl.Segments() {
		t.Fatalf("reference scan pruned segments (%v)", err)
	}
	pruned := collectScan(t, tbl, ScanOptions{Filter: prunes})
	filtered := collectScan(t, tbl, ScanOptions{Filter: filters})

	if pruned.Rows() != 0 || filtered.Rows() != 0 {
		t.Fatalf("rows = %d / %d, want 0", pruned.Rows(), filtered.Rows())
	}
	if len(pruned.Schema.Cols) == 0 {
		t.Fatal("all-pruned scan lost its schema")
	}
	if !sameBatch(pruned, filtered) {
		t.Fatalf("all-pruned scan diverged from all-filtered scan: %+v vs %+v",
			pruned.Schema, filtered.Schema)
	}

	// Aggregating over the pruned scan must produce the same zero-count
	// global group as the naive all-filtered reference — same types, same
	// values.
	aggs := []Agg{
		{Func: Count, As: "n"},
		{Func: Sum, Expr: Col("a"), As: "suma"},
	}
	refSrc, err := Scan(tbl, diffCols, ScanOptions{Filter: filters, Prefetch: -1})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := HashAgg(ctxb(), refSrc, nil, aggs)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []PushdownMode{PushdownOff, PushdownForce} {
		src, err := Scan(tbl, diffCols, ScanOptions{Filter: prunes, Prefetch: -1, Pushdown: mode})
		if err != nil {
			t.Fatal(err)
		}
		out, err := HashAgg(ctxb(), src, nil, aggs)
		if err != nil {
			t.Fatal(err)
		}
		if out.Rows() != 1 || out.Col("n").I64[0] != 0 {
			t.Fatalf("mode %d: empty aggregate = %+v", mode, out)
		}
		if !sameBatch(ref, out) {
			t.Fatalf("mode %d: pruned aggregate %+v diverged from reference %+v",
				mode, out.Schema, ref.Schema)
		}
	}
}

// TestScanAggDifferential checks pushed partial aggregation against HashAgg
// over a plain scan. Counts, min/max and integer sums must match exactly;
// float sums are compared with a relative epsilon (partitioned summation
// regroups the additions). Every read-ahead window must then give the
// synchronous result bit for bit, float sums included — on a store that
// answers every select, on one without Select, and on one where injected
// obj.select faults send a fixed half of the segments to the plain read.
func TestScanAggDifferential(t *testing.T) {
	store := objstore.NewMem(objstore.Config{})
	tbl, _ := pushdownTable(t, store, 500, 64, 0x90BB)
	fallback, _ := pushdownTable(t, selectless{objstore.NewMem(objstore.Config{})}, 500, 64, 0x90BB)
	faults := faultinject.New(0x90BD)
	faulted, _ := pushdownTable(t, objstore.NewMem(objstore.Config{Faults: faults}), 500, 64, 0x90BB)
	// A probabilistic pass picks the segments whose selects fail; each is
	// then failed by its key, so read-ahead's call order does not move them.
	faults.Prob(faultinject.ObjSelect, 0.5)
	if _, err := ScanAgg(ctxb(), faulted, diffCols, ScanOptions{Prefetch: -1, Pushdown: PushdownForce}, []Agg{{Func: Count, As: "n"}}); err != nil {
		t.Fatal(err)
	}
	faults.Clear(faultinject.ObjSelect)
	failed := faults.Events()
	if len(failed) == 0 || len(failed) == faulted.Segments() {
		t.Fatalf("%d of %d segments' selects failed; want some", len(failed), faulted.Segments())
	}
	for _, ev := range failed {
		faults.Always(faultinject.ObjSelect.With(ev.Detail))
	}
	rng := mt.New(0x90BC)
	g := &diffGen{rng: rng}
	trials := diffTrials(t) / 5
	for trial := 0; trial < trials; trial++ {
		pred := g.boolExpr(2)
		e := g.numExpr(2)
		aggs := []Agg{
			{Func: Count, As: "n"},
			{Func: Sum, Expr: e.expr(), As: "sum"},
			{Func: Min, Expr: e.expr(), As: "min"},
			{Func: Max, Expr: e.expr(), As: "max"},
		}
		opts := ScanOptions{Filter: pred.expr(), Prefetch: -1}
		src, err := Scan(tbl, diffCols, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := HashAgg(ctxb(), src, nil, aggs)
		if err != nil {
			t.Fatal(err)
		}
		opts.Pushdown = PushdownForce
		for _, tc := range []struct {
			name string
			tbl  *table.Table
		}{{"selects answered", tbl}, {"store without Select", fallback}, {"injected select faults", faulted}} {
			var sync *table.Batch
			for _, w := range readAheadWindows {
				opts.Prefetch = w
				got, err := ScanAgg(ctxb(), tc.tbl, diffCols, opts, aggs)
				if err != nil {
					t.Fatal(err)
				}
				if w >= 0 {
					if !sameBatch(got, sync) {
						t.Fatalf("trial %d: %s / %s, %s: window %d gave %v, synchronous %v",
							trial, pred, e, tc.name, w, got.Vecs, sync.Vecs)
					}
					continue
				}
				sync = got
				if got.Rows() != 1 || want.Rows() != 1 {
					t.Fatalf("trial %d: rows = %d / %d", trial, got.Rows(), want.Rows())
				}
				for i, c := range want.Schema.Cols {
					if got.Schema.Cols[i] != c {
						t.Fatalf("trial %d: %s / %s, %s: column %d typed %+v, want %+v",
							trial, pred, e, tc.name, i, got.Schema.Cols[i], c)
					}
					switch c.Typ {
					case column.Int64:
						if got.Vecs[i].I64[0] != want.Vecs[i].I64[0] {
							t.Fatalf("trial %d: %s / %s, %s: %s = %d, want %d",
								trial, pred, e, tc.name, c.Name, got.Vecs[i].I64[0], want.Vecs[i].I64[0])
						}
					case column.Float64:
						gv, wv := got.Vecs[i].F64[0], want.Vecs[i].F64[0]
						if c.Name == "sum" {
							if diff := math.Abs(gv - wv); diff > 1e-9*math.Max(1, math.Abs(wv)) {
								t.Fatalf("trial %d: %s / %s, %s: sum = %v, want %v",
									trial, pred, e, tc.name, gv, wv)
							}
						} else if gv != wv && !(math.IsNaN(gv) && math.IsNaN(wv)) {
							t.Fatalf("trial %d: %s / %s, %s: %s = %v, want %v",
								trial, pred, e, tc.name, c.Name, gv, wv)
						}
					}
				}
			}
		}
	}
	if store.Metrics().Selects() == 0 {
		t.Fatal("no aggregate pushdown ever reached the store")
	}
	if faults.Injected() <= len(failed) {
		t.Fatal("no injected select fault sent a trial's segment to the plain read")
	}
}

// TestPushdownByteAsymmetry pins the economics: a selective pushed-down scan
// must move an order of magnitude fewer bytes out of the store than the same
// scan shipping whole segments.
func TestPushdownByteAsymmetry(t *testing.T) {
	// Equality on `a` keeps roughly 1/21 of the rows.
	pred := Eq(Col("a"), ConstI(3))

	bytesFor := func(mode PushdownMode) int64 {
		store := objstore.NewMem(objstore.Config{})
		tbl, _ := pushdownTable(t, store, 2000, 128, 0x90CC)
		store.Metrics().Reset()
		out := collectScan(t, tbl, ScanOptions{Filter: pred, Pushdown: mode})
		if out.Rows() == 0 {
			t.Fatal("selective filter matched nothing; test data wrong")
		}
		return store.Metrics().BytesOut()
	}

	plain := bytesFor(PushdownOff)
	pushed := bytesFor(PushdownForce)
	if pushed*5 > plain {
		t.Fatalf("pushdown moved %dB vs %dB plain; expected at least 5x reduction", pushed, plain)
	}
}

// TestEstimateSelectivity sanity-checks the zone-map heuristic on known
// ranges.
func TestEstimateSelectivity(t *testing.T) {
	sch := table.Schema{Cols: []table.ColumnDef{intCol("a"), fltCol("f")}}
	zones := []column.ZoneMap{
		column.BuildZoneMap(&column.Vector{Typ: column.Int64, I64: []int64{0, 99}}),
		column.BuildZoneMap(&column.Vector{Typ: column.Float64, F64: []float64{0, 10}}),
	}
	cases := []struct {
		e        Expr
		lo, hi   float64
		wantPush bool
	}{
		{Eq(Col("a"), ConstI(5)), 0, 0.05, true},
		{Lt(Col("a"), ConstI(10)), 0.05, 0.15, true},
		{Ge(Col("a"), ConstI(10)), 0.85, 0.95, false},
		{Le(Col("f"), ConstF(2.5)), 0.2, 0.3, true},
		{ConstI(10), 0.4, 0.6, true}, // unknown shape answers 0.5
		{And(Lt(Col("a"), ConstI(50)), Le(Col("f"), ConstF(5))), 0.2, 0.3, true},
		{Gt(ConstI(10), Col("a")), 0.05, 0.15, true}, // mirrored form flips
	}
	for i, c := range cases {
		sel := estimateSelectivity(c.e, sch, zones)
		if sel < c.lo || sel > c.hi {
			t.Errorf("case %d: selectivity %v outside [%v, %v]", i, sel, c.lo, c.hi)
		}
		if (sel <= autoPushThreshold) != c.wantPush {
			t.Errorf("case %d: push decision %v, want %v", i, sel <= autoPushThreshold, c.wantPush)
		}
	}
	// Inverted (empty-segment) bounds estimate zero rows.
	empty := []column.ZoneMap{column.BuildZoneMap(&column.Vector{Typ: column.Int64})}
	if sel := estimateSelectivity(Eq(Col("a"), ConstI(1)), table.Schema{Cols: []table.ColumnDef{intCol("a")}}, empty); sel != 0 {
		t.Errorf("empty segment selectivity = %v", sel)
	}
}

// TestPushdownCompactFloats: under FlateCodec the exact-cent float pages are
// stored as n-bit integers (column.Compact), and the store-side select
// decodes that form itself. A Q6-shaped forced scan is answered by Select on
// every segment it keeps and returns exactly the plain scan's rows, and its
// aggregates match HashAgg over the plain scan. One segment's l_discount
// holds a value no scale makes exact: that page is stored plain-float and
// pushes down the same.
func TestPushdownCompactFloats(t *testing.T) {
	const rows, segRows = 2000, 256
	cols := []string{"l_shipdate", "l_discount", "l_quantity", "l_extendedprice"}
	b := table.NewBatch(table.Schema{Cols: []table.ColumnDef{
		intCol("l_shipdate"), fltCol("l_discount"), fltCol("l_quantity"), fltCol("l_extendedprice")}})
	rng := mt.New(0x6006)
	first := column.DateToDays(1992, 1, 2)
	lo, hi := column.DateToDays(1994, 1, 1), column.DateToDays(1995, 1, 1)
	for i := 0; i < rows; i++ {
		b.Vecs[0].AppendInt(first + int64(rng.Uint64()%2526))
		b.Vecs[1].AppendFloat(float64(rng.Uint64()%11) / 100)
		b.Vecs[2].AppendFloat(float64(rng.Uint64()%50 + 1))
		b.Vecs[3].AppendFloat(float64(rng.Uint64()%9_000_000+90_000) / 100)
	}
	odd := segRows + 7 // a row of segment 1 the filter keeps
	b.Vecs[0].I64[odd], b.Vecs[1].F64[odd], b.Vecs[2].F64[odd] = lo, 0.06+1e-9, 1
	store := objstore.NewMem(objstore.Config{})
	ds := cloudDbspace(store)
	bm, err := core.NewBlockmap(ds, 16)
	if err != nil {
		t.Fatal(err)
	}
	pool := buffer.NewPool(buffer.Config{Capacity: 4096})
	obj := pool.OpenObject(ds, bm, core.LockedSink(core.BitmapSink{RB: &rfrb.Bitmap{}, RF: &rfrb.Bitmap{}}))
	tbl, err := table.Create("lineitem", obj, b.Schema, table.Options{SegRows: segRows})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Append(ctxb(), b); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}

	// The stored forms: three float pages a segment, all compact but one.
	encs := map[column.Encoding]int{}
	for _, key := range store.AllKeys() {
		img, err := store.Get(ctxb(), key)
		if err != nil {
			t.Fatal(err)
		}
		if page, err := deflate.Decompress(img); err == nil && len(page) > 1 && column.Type(page[0]) == column.Float64 {
			encs[column.Encoding(page[1])]++
		}
	}
	segs := tbl.Segments()
	if encs[column.EncDecimalFloat] != 3*segs-1 || encs[column.EncPlainFloat] != 1 {
		t.Fatalf("stored float pages by encoding: %v, want %d decimal-float and 1 plain-float", encs, 3*segs-1)
	}

	filter := And(
		And(Ge(Col("l_shipdate"), ConstI(lo)), Lt(Col("l_shipdate"), ConstI(hi))),
		And(And(Ge(Col("l_discount"), ConstF(0.05)), Le(Col("l_discount"), ConstF(0.07))), Lt(Col("l_quantity"), ConstF(24))))
	scan := func(opts ScanOptions) *table.Batch {
		t.Helper()
		opts.Filter, opts.Prefetch = filter, -1
		src, err := Scan(tbl, cols, opts)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Collect(ctxb(), src)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	m := store.Metrics()
	plain := scan(ScanOptions{})
	selects, gets := m.Selects(), m.Gets()
	forced := scan(ScanOptions{Pushdown: PushdownForce})
	if s, g := m.Selects()-selects, m.Gets()-gets; s != int64(segs) || g != 0 {
		t.Fatalf("forced scan made %d selects over %d segments and %d GETs: a segment fell back", s, segs, g)
	}
	if plain.Rows() == 0 || !sameBatch(plain, forced) {
		t.Fatalf("forced pushdown returned %d rows, plain scan %d, or other bits", forced.Rows(), plain.Rows())
	}
	if !slices.Contains(plain.Col("l_discount").F64, 0.06+1e-9) {
		t.Fatal("the plain-float page's odd value did not pass the filter")
	}

	revenue := Mul(Col("l_extendedprice"), Col("l_discount"))
	aggs := []Agg{{Func: Count, As: "n"}, {Func: Min, Expr: revenue, As: "min"}, {Func: Max, Expr: revenue, As: "max"},
		{Func: Sum, Expr: revenue, As: "revenue"}}
	src, err := Scan(tbl, cols, ScanOptions{Filter: filter, Prefetch: -1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := HashAgg(ctxb(), src, nil, aggs)
	if err != nil {
		t.Fatal(err)
	}
	selects, gets = m.Selects(), m.Gets()
	got, err := ScanAgg(ctxb(), tbl, cols, ScanOptions{Filter: filter, Prefetch: -1, Pushdown: PushdownForce}, aggs)
	if err != nil {
		t.Fatal(err)
	}
	if s, g := m.Selects()-selects, m.Gets()-gets; s != int64(segs) || g != 0 {
		t.Fatalf("aggregate pushdown made %d selects over %d segments and %d GETs", s, segs, g)
	}
	if got.Vecs[0].I64[0] != want.Vecs[0].I64[0] || got.Vecs[1].F64[0] != want.Vecs[1].F64[0] || got.Vecs[2].F64[0] != want.Vecs[2].F64[0] {
		t.Fatalf("pushed count/min/max %v %v %v, plain %v %v %v", got.Vecs[0].I64, got.Vecs[1].F64, got.Vecs[2].F64,
			want.Vecs[0].I64, want.Vecs[1].F64, want.Vecs[2].F64)
	}
	if g, w := got.Vecs[3].F64[0], want.Vecs[3].F64[0]; math.Abs(g-w) > 1e-9*math.Abs(w) {
		t.Fatalf("pushed revenue %v, plain %v", g, w)
	}
}
