package exec

// Tests of the scan's filter-first read path: the predicate runs over the
// columns it names, and every other column is decoded only at the rows that
// survived. The oracle is the unfiltered scan plus a row-at-a-time reference
// loop that shares nothing with the kernel.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"cloudiq/internal/buffer"
	"cloudiq/internal/column"
	"cloudiq/internal/core"
	"cloudiq/internal/expr"
	"cloudiq/internal/faultinject"
	"cloudiq/internal/keygen"
	"cloudiq/internal/mt"
	"cloudiq/internal/objstore"
	"cloudiq/internal/rfrb"
	"cloudiq/internal/table"
)

// scanRow is one row of the scan-test table: the differential columns
// (n-bit ints, plain floats, dictionary strings) plus a column for each of
// the other encodings and a date.
type scanRow struct {
	diffRow
	r int64  // long runs: RLE
	w int64  // full-width noise: plain int
	d int64  // days, 1992–1998: n-bit
	u string // nearly unique text: plain string
}

var (
	scanCols = []string{"a", "b", "f", "g", "s", "t", "r", "w", "d", "u"}
	scanEncs = []column.Encoding{column.EncBitPackedInt, column.EncBitPackedInt, column.EncPlainFloat, column.EncPlainFloat,
		column.EncDictString, column.EncDictString, column.EncRLEInt, column.EncPlainInt, column.EncBitPackedInt, column.EncPlainString}
	scanWords = []string{"special", "requests", "green", "forest", "Customer", "Complaints", "BRASS", "final", "deposits"}
)

// newTableObject opens an empty table object on store, behind a pool of its own.
func newTableObject(t testing.TB, store objstore.Store, poolBytes int64) *buffer.Object {
	t.Helper()
	gen := keygen.NewGenerator(nil)
	client := keygen.NewClient(func(ctx context.Context, n uint64) (rfrb.Range, error) {
		return gen.Allocate(ctx, "n", n)
	})
	ds := core.NewCloud(core.CloudConfig{Name: "user", Store: store, Keys: client})
	bm, err := core.NewBlockmap(ds, 16)
	if err != nil {
		t.Fatal(err)
	}
	pool := buffer.NewPool(buffer.Config{Capacity: poolBytes})
	return pool.OpenObject(ds, bm, core.LockedSink(core.BitmapSink{RB: &rfrb.Bitmap{}, RF: &rfrb.Bitmap{}}), nil)
}

// scanBatch draws rows of the scan-test schema, NaNs and both zeros among
// the floats.
func scanBatch(rng *mt.Source, n int) (*table.Batch, []scanRow) {
	diff, base := diffBatch(rng, n)
	diffEdgeFloats(rng, diff, base)
	b := table.NewBatch(table.Schema{Cols: append(diff.Schema.Cols, intCol("r"), intCol("w"), intCol("d"), strCol("u"))})
	copy(b.Vecs, diff.Vecs)
	rows := make([]scanRow, n)
	first := column.DateToDays(1992, 1, 1)
	for i := range rows {
		r := scanRow{diffRow: base[i], r: int64(i / 40), w: int64(rng.Uint64()),
			d: first + int64(rng.Uint64()%2500),
			u: fmt.Sprintf("%s %s %d", scanWords[rng.Uint64()%9], scanWords[rng.Uint64()%9], rng.Uint64()%1000)}
		rows[i] = r
		b.Vecs[6].AppendInt(r.r)
		b.Vecs[7].AppendInt(r.w)
		b.Vecs[8].AppendInt(r.d)
		b.Vecs[9].AppendStr(r.u)
	}
	return b, rows
}

// scanTable stores n rows in segments of segRows on store. sealed, if not
// nil, runs after the segments are written and before the commit, with the
// object they were written to: tests overwrite pages through it.
func scanTable(t *testing.T, store objstore.Store, n, segRows int, seed uint64, sealed func(obj *buffer.Object)) (*table.Table, []scanRow) {
	t.Helper()
	obj := newTableObject(t, store, 1<<20)
	b, rows := scanBatch(mt.New(seed), n)
	tbl, err := table.Create("t", obj, b.Schema, table.Options{SegRows: segRows})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Append(ctxb(), b); err != nil {
		t.Fatal(err)
	}
	if sealed != nil {
		sealed(obj)
	}
	if _, err := tbl.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	return tbl, rows
}

// pageOf is the logical page of (segment, column) in a table of the
// scan-test schema: page 0 is the meta page, the data pages follow densely.
func pageOf(seg, col int) uint64 { return 1 + uint64(seg*len(scanCols)+col) }

func scanAll(t *testing.T, tbl *table.Table, cols []string, opts ScanOptions) *table.Batch {
	t.Helper()
	opts.Prefetch = -1
	src, err := Scan(tbl, cols, opts)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(ctxb(), src)
	if err != nil {
		t.Fatalf("scan of %v: %v", cols, err)
	}
	return out
}

// refYear is the reference's calendar: civil-from-days arithmetic by way of
// Unix seconds, not the engine's Epoch.Add.
func refYear(days int64) int64 { return int64(time.Unix(days*86400, 0).UTC().Year()) }

func between(x, lo, hi int64) bool { return x >= lo && x < hi }

// nanLe and nanGe are the engine's three-way rule: neither less nor greater
// is equal, NaN included.
func nanLe(x, y float64) bool { return !(x > y) }
func nanGe(x, y float64) bool { return !(x < y) }

// planFilters are the shapes of every ScanOptions.Filter the 22 TPC-H plans
// pass (tpch/queries*.go), over this table's columns — d for the dates, f and
// g for discount and quantity, s and t for the flag and mode columns, u for
// the comment and name columns, a and b for the small integers — each with
// its row-at-a-time meaning, followed by shapes the plans do not use.
func planFilters() []struct {
	name string
	e    Expr
	ref  func(r scanRow) bool
} {
	day := func(y, m, d int) int64 { return column.DateToDays(y, time.Month(m), d) }
	lo, hi := day(1994, 1, 1), day(1995, 1, 1)
	sizes := Eq(Col("b"), ConstI(49))
	for _, s := range []int64{14, 23, 45, 19, 3, 36, 9} {
		sizes = Or(sizes, Eq(Col("b"), ConstI(s)))
	}
	inSizes := func(b int64) bool { return strings.Contains(" 49 14 23 45 19 3 36 9 ", fmt.Sprintf(" %d ", b)) }
	return []struct {
		name string
		e    Expr
		ref  func(r scanRow) bool
	}{
		{"q1 date le", Le(Col("d"), ConstI(day(1998, 9, 2))), func(r scanRow) bool { return r.d <= day(1998, 9, 2) }},
		{"q2 q5 q11 q20 q21 name eq", Eq(Col("s"), ConstS("gamma")), func(r scanRow) bool { return r.s == "gamma" }},
		{"q2 size and type suffix", And(Eq(Col("a"), ConstI(5)), Like(Col("u"), "%9")),
			func(r scanRow) bool { return r.a == 5 && strings.HasSuffix(r.u, "9") }},
		{"q3 date lt", Lt(Col("d"), ConstI(lo)), func(r scanRow) bool { return r.d < lo }},
		{"q3 date gt", Gt(Col("d"), ConstI(lo)), func(r scanRow) bool { return r.d > lo }},
		{"q4 column lt column", Lt(Col("a"), Col("b")), func(r scanRow) bool { return r.a < r.b }},
		{"q4 q5 q10 q14 q15 q20 date range", And(Ge(Col("d"), ConstI(lo)), Lt(Col("d"), ConstI(hi))),
			func(r scanRow) bool { return between(r.d, lo, hi) }},
		{"q6", And(And(Ge(Col("d"), ConstI(lo)), Lt(Col("d"), ConstI(hi))),
			And(And(Ge(Col("f"), ConstF(-20)), Le(Col("f"), ConstF(60))), Lt(Col("g"), ConstF(24)))),
			func(r scanRow) bool { return between(r.d, lo, hi) && nanGe(r.f, -20) && nanLe(r.f, 60) && r.g < 24 }},
		{"q7 name or name", Or(Eq(Col("s"), ConstS("alpha")), Eq(Col("s"), ConstS("beta"))),
			func(r scanRow) bool { return r.s == "alpha" || r.s == "beta" }},
		{"q7 q8 closed date range", And(Ge(Col("d"), ConstI(lo)), Le(Col("d"), ConstI(hi))),
			func(r scanRow) bool { return r.d >= lo && r.d <= hi }},
		{"q9 infix", Like(Col("u"), "%green%"), func(r scanRow) bool { return strings.Contains(r.u, "green") }},
		{"q12", And(
			And(Or(Eq(Col("s"), ConstS("alpha")), Eq(Col("s"), ConstS("delta"))), Lt(Col("a"), Col("b"))),
			And(Lt(Col("d"), Col("w")), And(Ge(Col("d"), ConstI(lo)), Lt(Col("d"), ConstI(hi))))),
			func(r scanRow) bool {
				return (r.s == "alpha" || r.s == "delta") && r.a < r.b && r.d < r.w && between(r.d, lo, hi)
			}},
		{"q13 not like two infixes", NotLike(Col("u"), "%special%requests%"), func(r scanRow) bool {
			i := strings.Index(r.u, "special")
			return i < 0 || !strings.Contains(r.u[i+len("special"):], "requests")
		}},
		{"q16", And(And(Ne(Col("s"), ConstS("beta")), NotLike(Col("u"), "forest%")), sizes),
			func(r scanRow) bool { return r.s != "beta" && !strings.HasPrefix(r.u, "forest") && inSizes(r.b) }},
		{"q16 two infixes", Like(Col("u"), "%Customer%Complaints%"), func(r scanRow) bool {
			i := strings.Index(r.u, "Customer")
			return i >= 0 && strings.Contains(r.u[i+len("Customer"):], "Complaints")
		}},
		{"q17 two string eq", And(Eq(Col("s"), ConstS("alp")), Eq(Col("t"), ConstS(""))),
			func(r scanRow) bool { return r.s == "alp" && r.t == "" }},
		{"q19", And(Or(Eq(Col("s"), ConstS("epsilon")), Eq(Col("s"), ConstS("betamax"))), Eq(Col("t"), ConstS("delta"))),
			func(r scanRow) bool { return (r.s == "epsilon" || r.s == "betamax") && r.t == "delta" }},
		{"q20 prefix", Like(Col("u"), "forest%"), func(r scanRow) bool { return strings.HasPrefix(r.u, "forest") }},

		{"literal on the left", Gt(ConstI(3), Col("a")), func(r scanRow) bool { return r.a < 3 }},
		{"float literal on the left, nan data", Le(ConstF(0), Col("f")), func(r scanRow) bool { return nanLe(0, r.f) }},
		{"float column, int literal", Lt(Col("g"), ConstI(10)), func(r scanRow) bool { return r.g < 10 }},
		{"int column, float literal", Ge(Col("a"), ConstF(2.5)), func(r scanRow) bool { return float64(r.a) >= 2.5 }},
		{"float ne float, nan equal to all", Ne(Col("f"), Col("g")), func(r scanRow) bool { return r.f < r.g || r.f > r.g }},
		{"nan literal", Eq(Col("b"), ConstF(math.NaN())), func(r scanRow) bool { return true }},
		{"string ranges", And(Ge(Col("u"), ConstS("f")), Lt(Col("s"), Col("t"))), func(r scanRow) bool { return r.u >= "f" && r.s < r.t }},
		{"rle and plain-int filter columns", And(Ge(Col("r"), ConstI(3)), Gt(Col("w"), ConstI(0))),
			func(r scanRow) bool { return r.r >= 3 && r.w > 0 }},
		{"not", Not(Or(Lt(Col("a"), ConstI(0)), Eq(Col("s"), ConstS("")))), func(r scanRow) bool { return !(r.a < 0 || r.s == "") }},
		{"in", InS(Col("t"), "gamma", "alp", "nowhere"), func(r scanRow) bool { return r.t == "gamma" || r.t == "alp" }},
		{"substr", Eq(Substr(Col("u"), 1, 5), ConstS("green")), func(r scanRow) bool { return strings.HasPrefix(r.u, "green") }},
		{"year", Eq(Year(Col("d")), ConstI(1995)), func(r scanRow) bool { return refYear(r.d) == 1995 }},
		{"case", Gt(Case(Lt(Col("a"), ConstI(0)), Col("b"), Col("g")), ConstI(20)), func(r scanRow) bool {
			if r.a < 0 {
				return r.b > 20
			}
			return r.g > 20
		}},
		{"nothing passes anywhere", Gt(Add(Col("a"), ConstI(0)), ConstI(99)), func(r scanRow) bool { return false }},
		{"everything passes", Ge(Add(Col("a"), ConstI(0)), ConstI(-99)), func(r scanRow) bool { return true }},
		{"integer predicate, not boolean", Col("a"), func(r scanRow) bool { return r.a != 0 }},
	}
}

// TestScanFilterFirst: over a table holding all six encodings and a partial
// last segment, a filtered scan returns — value for value, in order — the
// rows of the unfiltered scan that a row-at-a-time reference keeps, for every
// plan-shaped filter, for seeded random predicates, and whichever columns are
// projected around the ones the filter reads.
func TestScanFilterFirst(t *testing.T) {
	const n, segRows = 500, 64 // 7 full segments and one of 52 rows
	tbl, rows := scanTable(t, objstore.NewMem(objstore.Config{}), n, segRows, 0x5CA9, nil)
	pages, last, err := tbl.ReadSegmentPages(ctxb(), tbl.Segments()-1, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if err != nil || last != n%segRows {
		t.Fatalf("last segment: %d rows, %v", last, err)
	}
	for i, p := range pages {
		if got := column.Encoding(p[1]); got != scanEncs[i] {
			t.Fatalf("column %s is stored as %v, want %v", scanCols[i], got, scanEncs[i])
		}
	}
	all := scanAll(t, tbl, scanCols, ScanOptions{})
	if all.Rows() != n {
		t.Fatalf("unfiltered scan: %d rows", all.Rows())
	}
	projections := [][]string{
		scanCols,
		{"u", "w", "r", "g", "t", "b", "d", "s", "f", "a"},
		{"w", "u", "a", "b", "f", "g", "s", "t", "r", "d"},
	}
	check := func(name string, e Expr, keeps func(i int) bool) {
		t.Helper()
		var want []int32
		for i := range rows {
			if keeps(i) {
				want = append(want, int32(i))
			}
		}
		for _, cols := range projections {
			ref := &table.Batch{}
			for _, c := range cols {
				ref.Schema.Cols = append(ref.Schema.Cols, all.Schema.Cols[all.Schema.ColIndex(c)])
				ref.Vecs = append(ref.Vecs, all.Col(c))
			}
			got := scanAll(t, tbl, cols, ScanOptions{Filter: e})
			if !sameBatch(got, gatherBatch(ref, want)) {
				t.Fatalf("%s, projection %v: scan kept %d rows, reference %d — or their values differ",
					name, cols, got.Rows(), len(want))
			}
		}
	}
	for _, f := range planFilters() {
		check(f.name, f.e, func(i int) bool { return f.ref(rows[i]) })
	}
	g := &diffGen{rng: mt.New(0x5CAA)}
	for trial := 0; trial < diffTrials(t); trial++ {
		pred := g.boolExpr(4)
		check(fmt.Sprintf("trial %d: %s", trial, pred), pred.expr(), func(i int) bool { return pred.evalBool(rows[i].diffRow) })
	}
}

// TestScanFilterFirstEdges pins the scan's corner behaviour.
func TestScanFilterFirstEdges(t *testing.T) {
	const n, segRows = 200, 64
	junk := func(typ column.Type, enc column.Encoding, rows int) []byte {
		// A well-formed header over a payload no decoder accepts.
		hdr := []byte{byte(typ), byte(enc), byte(rows), 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F}
		return append(hdr, make([]byte, 8*rows)...)
	}

	// None pass: a typed empty batch per segment, and no column outside the
	// filter is decoded — segment 1's u page would fail to (its strings run
	// past the payload), and does as soon as one row survives.
	tbl, rows := scanTable(t, objstore.NewMem(objstore.Config{}), n, segRows, 0xED6E, func(obj *buffer.Object) {
		if err := obj.Write(ctxb(), pageOf(1, 9), junk(column.String, column.EncPlainString, segRows)); err != nil {
			t.Fatal(err)
		}
	})
	// Zone maps do not see through the addition, so segment 1 is read.
	none := And(Ge(Col("r"), ConstI(1)), And(Le(Col("r"), ConstI(2)), Gt(Add(Col("a"), ConstI(0)), ConstI(50))))
	src, err := Scan(tbl, scanCols, ScanOptions{Filter: none, Prefetch: -1})
	if err != nil {
		t.Fatal(err)
	}
	batches := 0
	for {
		b, err := src.Next(ctxb())
		if err != nil {
			t.Fatalf("no row passes, yet a payload column was decoded: %v", err)
		}
		if b == nil {
			break
		}
		batches++
		if b.Rows() != 0 || len(b.Vecs) != len(scanCols) || b.Vecs[9].Typ != column.String || b.Schema.Cols[9].Name != "u" {
			t.Fatalf("batch %d of a scan no row passes: %d rows, schema %v", batches, b.Rows(), b.Schema)
		}
	}
	if batches == 0 {
		t.Fatal("every segment was pruned: the test reads nothing")
	}
	some := And(Ge(Col("r"), ConstI(1)), Le(Col("r"), ConstI(2)))
	src, _ = Scan(tbl, scanCols, ScanOptions{Filter: some, Prefetch: -1})
	if _, err = Collect(ctxb(), src); err == nil || !strings.Contains(err.Error(), `segment 1 column "u"`) {
		t.Fatalf("scan over the unreadable page: %v", err)
	}
	// Leave the page out of the projection and the same scan succeeds.
	got := scanAll(t, tbl, scanCols[:9], ScanOptions{Filter: some})
	want := 0
	for _, r := range rows {
		if r.r >= 1 && r.r <= 2 {
			want++
		}
	}
	if got.Rows() != want {
		t.Fatalf("scan around the unreadable page: %d rows, want %d", got.Rows(), want)
	}

	// A page whose header disagrees with the table — a count that is not the
	// segment's, a type that is not the column's — fails the scan by name
	// even when no row would have survived to touch it, not as an index out
	// of range inside an operator.
	for name, bad := range map[string][]byte{
		"holds 63 string values, want 64 string": junk(column.String, column.EncPlainString, segRows-1),
		"holds 64 int64 values, want 64 string":  junk(column.Int64, column.EncPlainInt, segRows),
	} {
		ragged, _ := scanTable(t, objstore.NewMem(objstore.Config{}), n, segRows, 0xED6E, func(obj *buffer.Object) {
			if err := obj.Write(ctxb(), pageOf(1, 9), bad); err != nil {
				t.Fatal(err)
			}
		})
		for _, f := range []Expr{nil, none, some} {
			src, _ := Scan(ragged, []string{"r", "a", "u"}, ScanOptions{Filter: f, Prefetch: -1})
			_, err := Collect(ctxb(), src)
			if err == nil || !strings.Contains(err.Error(), `table t: segment 1 column "u": page `+name) {
				t.Fatalf("ragged segment: %v, want %q", err, name)
			}
		}
		if _, err := ragged.ReadSegment(ctxb(), 1, []int{9}); err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("ReadSegment of the ragged page: %v", err)
		}
	}

	// A filter over a column outside the projection fails as it always has.
	clean, rows := scanTable(t, objstore.NewMem(objstore.Config{}), n, segRows, 0xED6F, nil)
	src, err = Scan(clean, []string{"a", "u"}, ScanOptions{Filter: Lt(Col("b"), ConstI(0)), Prefetch: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Next(ctxb()); !errors.Is(err, expr.ErrInvalid) || !strings.Contains(err.Error(), `exec: filter: `) || !strings.Contains(err.Error(), `no column "b"`) {
		t.Fatalf("filter outside the projection: %v", err)
	}

	// Delta rows are merged after the segments, through the same filter.
	extra, extraRows := scanBatch(mt.New(0xED70), 41)
	clean.AttachDelta(staticDelta{b: extra})
	pred := Or(Lt(Col("f"), ConstF(0)), Like(Col("u"), "%green%"))
	keep := func(r scanRow) bool { return r.f < 0 || strings.Contains(r.u, "green") }
	got = scanAll(t, clean, []string{"u", "f", "w"}, ScanOptions{Filter: pred, Pushdown: PushdownForce})
	var wantW []int64
	for _, r := range append(rows, extraRows...) {
		if keep(r) {
			wantW = append(wantW, r.w)
		}
	}
	if fmt.Sprint(got.Col("w").I64) != fmt.Sprint(wantW) {
		t.Fatalf("delta-merged scan: %d rows, want %d, or out of order", got.Rows(), len(wantW))
	}
	clean.AttachDelta(nil)

	// A pushdown the store refuses falls back, per segment, to this path.
	plan := faultinject.New(0xED71)
	plan.Always(faultinject.ObjSelect)
	faulted, _ := scanTable(t, objstore.NewMem(objstore.Config{Faults: plan}), n, segRows, 0xED6F, nil)
	if a, b := scanAll(t, clean, scanCols, ScanOptions{Filter: pred}), scanAll(t, faulted, scanCols, ScanOptions{Filter: pred, Pushdown: PushdownForce}); !sameBatch(a, b) || plan.Calls(faultinject.ObjSelect) == 0 {
		t.Fatalf("refused pushdown: %d rows, plain scan %d", b.Rows(), a.Rows())
	}

	// Every row passes: nothing is gathered. Over the unfiltered scan it costs
	// the selection and the environment, two allocations a segment (five under
	// the race detector); gathering its six columns would cost twelve.
	allocs := func(f Expr) float64 {
		return testing.AllocsPerRun(5, func() { scanAll(t, clean, scanCols, ScanOptions{Filter: f}) })
	}
	passing := And(And(Ge(Col("a"), ConstI(-1000)), Ge(Col("b"), ConstF(-1000))), And(And(Le(Col("f"), ConstI(1e9)), Le(Col("g"), ConstF(1e9))),
		And(Ge(Col("s"), ConstS("")), Ge(Col("u"), ConstS("")))))
	if got := scanAll(t, clean, scanCols, ScanOptions{Filter: passing}); got.Rows() != n {
		t.Fatalf("%d of %d rows pass", got.Rows(), n)
	}
	if plain, filtered := allocs(nil), allocs(passing); filtered-plain > float64(6*clean.Segments()) {
		t.Fatalf("a filter every row passes costs %.0f allocations, the unfiltered scan %.0f: is it gathering?", filtered, plain)
	}
}

// --- the Q6-shaped scan: micro-benchmark and allocation gate ---------------

const scanBenchRows, scanBenchSegRows = 120_000, 512 // lineitem at the repository benchmark's scale and segment size

var q6ScanCols = []string{"l_shipdate", "l_discount", "l_quantity", "l_extendedprice"}

// q6Table is a lineitem of Q6's four columns, dbgen's value ranges, in a pool
// that holds all of it: after the load every page is a hit.
func q6Table(t testing.TB) (*table.Table, Expr, int) {
	t.Helper()
	b := table.NewBatch(table.Schema{Cols: []table.ColumnDef{
		intCol("l_shipdate"), fltCol("l_discount"), fltCol("l_quantity"), fltCol("l_extendedprice")}})
	rng := mt.New(0x06)
	first := column.DateToDays(1992, 1, 2)
	lo, hi := column.DateToDays(1994, 1, 1), column.DateToDays(1995, 1, 1)
	pass := 0
	for i := 0; i < scanBenchRows; i++ {
		d, disc, qty := first+int64(rng.Uint64()%2526), float64(rng.Uint64()%11)/100, float64(rng.Uint64()%50+1)
		b.Vecs[0].AppendInt(d)
		b.Vecs[1].AppendFloat(disc)
		b.Vecs[2].AppendFloat(qty)
		b.Vecs[3].AppendFloat(float64(rng.Uint64()%9_000_000)/100 + 900)
		if d >= lo && d < hi && disc >= 0.05 && disc <= 0.07 && qty < 24 {
			pass++
		}
	}
	tbl, err := table.Create("lineitem", newTableObject(t, objstore.NewMem(objstore.Config{}), 64<<20), b.Schema,
		table.Options{SegRows: scanBenchSegRows})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Append(ctxb(), b); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	filter := And(
		And(Ge(Col("l_shipdate"), ConstI(lo)), Lt(Col("l_shipdate"), ConstI(hi))),
		And(And(Ge(Col("l_discount"), ConstF(0.05)), Le(Col("l_discount"), ConstF(0.07))), Lt(Col("l_quantity"), ConstF(24))))
	return tbl, filter, pass
}

func q6Scan(tbl *table.Table, filter Expr) (*table.Batch, error) {
	src, err := Scan(tbl, q6ScanCols, ScanOptions{Filter: filter})
	if err != nil {
		return nil, err
	}
	return Collect(ctxb(), src)
}

func BenchmarkScanFiltered(b *testing.B) {
	tbl, filter, pass := q6Table(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := q6Scan(tbl, filter)
		if err != nil || out.Rows() != pass {
			b.Fatalf("scan = %v rows, %v; want %d", out.Rows(), err, pass)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/scanBenchRows, "ns/row")
}

// TestScanFilteredAllocs is the deterministic half of BenchmarkScanFiltered.
// A filtered scan allocates per segment read and per surviving column, never
// per row: a segment's page list and images, its batch, one vector per filter
// column, the selection, and — only where a row survived — one vector per
// column again: 6,360 here, 27 a segment (14,351 when every column was decoded
// whole, filtered by a 0/1 vector per node and then gathered). The limit is
// that count plus 18 %, which admits the 7,405 the race detector makes of it.
func TestScanFilteredAllocs(t *testing.T) {
	tbl, filter, pass := q6Table(t)
	var out *table.Batch
	var err error
	got := testing.AllocsPerRun(3, func() { out, err = q6Scan(tbl, filter) })
	if err != nil || out.Rows() != pass {
		t.Fatalf("scan = %v rows, %v; want %d", out.Rows(), err, pass)
	}
	segs := tbl.Segments()
	t.Logf("%.0f allocations for %d rows in %d segments (%.1f a segment), %d rows pass",
		got, scanBenchRows, segs, got/float64(segs), pass)
	if limit := 7500.0; got > limit {
		t.Errorf("filtered scan of %d rows: %.0f allocations, limit %.0f — is something allocating per row again?",
			scanBenchRows, got, limit)
	}
}
