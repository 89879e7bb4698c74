package exec

import (
	"runtime"
	"testing"

	"cloudiq/internal/table"
)

// The shapes the power workload spends its operator time in, at its scale
// (SF 0.02: 30 k orders, 120 k lineitems, 512-row scan batches).
const (
	benchBuildRows = 30_000
	benchProbeRows = 120_000
	benchBatchRows = 512
)

// Key spacings: denseKeys keeps a one-column int key inside the hash table's
// direct form, as TPC-H's keys are; sparseKeys spreads it past that form's
// bound, so the slot array is measured too.
const (
	denseKeys  = 4
	sparseKeys = 1 << 12
)

// joinSides builds an orders-like build side (unique int key, spaced by
// stride, + 1 payload column) and a lineitem-like probe side (foreign key + 3
// payload columns) whose every row finds its one match.
func joinSides(build, probe int, stride int64) (*table.Batch, *table.Batch) {
	b := batchOf(nil, []table.ColumnDef{intCol("o_key"), strCol("o_status")}, func(b *table.Batch) {
		for i := 0; i < build; i++ {
			b.Vecs[0].AppendInt(int64(i)*stride + 1)
			b.Vecs[1].AppendStr("OFP"[i%3 : i%3+1])
		}
	})
	p := batchOf(nil, []table.ColumnDef{intCol("l_key"), intCol("l_supp"), fltCol("l_price"), strCol("l_flag")}, func(b *table.Batch) {
		for i := 0; i < probe; i++ {
			b.Vecs[0].AppendInt(int64(i*7%build)*stride + 1)
			b.Vecs[1].AppendInt(int64(i % 200))
			b.Vecs[2].AppendFloat(float64(i%1000) / 8)
			b.Vecs[3].AppendStr("ANR"[i%3 : i%3+1])
		}
	})
	return b, p
}

// aggInput is a lineitem-like batch: two one-letter string columns (Q1's
// keys), an int column with the given number of distinct values in clusters
// of four rows (Q21's order key), a low-cardinality int, two floats, and the
// order key again spaced by sparseKeys.
func aggInput(rows, groups int) *table.Batch {
	return batchOf(nil, []table.ColumnDef{strCol("flag"), strCol("status"), intCol("okey"), intCol("supp"), fltCol("qty"), fltCol("price"), intCol("skey")}, func(b *table.Batch) {
		for i := 0; i < rows; i++ {
			b.Vecs[0].AppendStr("ANR"[i%3 : i%3+1])
			b.Vecs[1].AppendStr("OF"[i%2 : i%2+1])
			b.Vecs[2].AppendInt(int64(i / 4 % groups))
			b.Vecs[3].AppendInt(int64(i * 31 % 200))
			b.Vecs[4].AppendFloat(float64(i%50) + 1)
			b.Vecs[5].AppendFloat(float64(i%1000) / 8)
			b.Vecs[6].AppendInt(int64(i/4%groups) * sparseKeys)
		}
	})
}

var q1Aggs = []Agg{
	{Func: Sum, Expr: Col("qty"), As: "sum_qty"},
	{Func: Sum, Expr: Mul(Col("price"), Sub(ConstF(1), Col("qty"))), As: "sum_disc"},
	{Func: Avg, Expr: Col("price"), As: "avg_price"},
	{Func: Count, As: "n"},
}

var q21Aggs = []Agg{{Func: CountDistinct, Expr: Col("supp"), As: "nsupp"}}

// q18Aggs is Q18's inner aggregate: a float sum per order key.
var q18Aggs = []Agg{{Func: Sum, Expr: Col("qty"), As: "sum_qty"}}

// scanBatches cuts b into scan-sized views.
func scanBatches(b *table.Batch) []*table.Batch {
	var out []*table.Batch
	for lo := 0; lo < b.Rows(); lo += benchBatchRows {
		out = append(out, rowsOf(b, lo, min(lo+benchBatchRows, b.Rows())))
	}
	return out
}

func BenchmarkHashJoin(b *testing.B) {
	for _, c := range []struct {
		name   string
		stride int64
	}{{"Dense", denseKeys}, {"Sparse", sparseKeys}} {
		build, probe := joinSides(benchBuildRows, benchProbeRows, c.stride)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := HashJoin(ctxb(), SliceSource(build), []string{"o_key"}, SliceSource(probe), []string{"l_key"}, Inner)
				if err != nil || out.Rows() != benchProbeRows {
					b.Fatalf("join = %v rows, %v", out.Rows(), err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchProbeRows, "ns/row")
		})
	}
}

func BenchmarkHashAgg(b *testing.B) {
	in := aggInput(benchProbeRows, benchBuildRows)
	whole, parts := []*table.Batch{in}, scanBatches(in)
	for _, c := range []struct {
		name   string
		src    []*table.Batch
		keys   []string
		aggs   []Agg
		groups int
	}{
		{"Q1", whole, []string{"flag", "status"}, q1Aggs, 6},
		{"Q21", whole, []string{"okey"}, q21Aggs, benchBuildRows},
		{"Q21Sparse", whole, []string{"skey"}, q21Aggs, benchBuildRows},
		// count(distinct) at its worst: many rows and 200 values per group,
		// in one group and in six.
		{"LowCard", whole, nil, q21Aggs, 1},
		{"Flag", whole, []string{"flag", "status"}, q21Aggs, 6},
		// Q18's inner group-by: ≈30 k dense groups and a float sum, fed
		// in scan-sized batches, so the state grows batch by batch.
		{"ManyGroups", parts, []string{"okey"}, q18Aggs, benchBuildRows},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := HashAgg(ctxb(), SliceSource(c.src...), c.keys, c.aggs)
				if err != nil || out.Rows() != c.groups {
					b.Fatalf("agg = %v groups, %v", out.Rows(), err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchProbeRows, "ns/row")
		})
	}
}

func BenchmarkCollect(b *testing.B) {
	_, probe := joinSides(benchBuildRows, benchProbeRows, denseKeys)
	parts := scanBatches(probe)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := Collect(ctxb(), SliceSource(parts...))
		if err != nil || out.Rows() != benchProbeRows {
			b.Fatalf("collect = %v rows, %v", out.Rows(), err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchProbeRows, "ns/row")
}

// TestHashOperatorAllocs is the deterministic half of the benchmarks above:
// a join or an aggregation allocates its tables, its scratch and its output
// columns — a count that depends on how many doublings they go through, not
// on how many rows pass. (Both used to allocate per row: a map entry and a
// key string per build row and group, boxed key values, a state per
// aggregate per group, a map per count-distinct group.)
func TestHashOperatorAllocs(t *testing.T) {
	const rows, groups = 64 << 10, 16 << 10
	build, probe := joinSides(groups, rows, denseKeys)
	sbuild, sprobe := joinSides(groups, rows, sparseKeys)
	in := aggInput(rows, groups)
	join := func(build, probe *table.Batch) func() (*table.Batch, error) {
		return func() (*table.Batch, error) {
			return HashJoin(ctxb(), SliceSource(build), []string{"o_key"}, SliceSource(probe), []string{"l_key"}, Inner)
		}
	}
	agg := func(key string) func() (*table.Batch, error) {
		return func() (*table.Batch, error) {
			return HashAgg(ctxb(), SliceSource(in), []string{key}, append([]Agg{q21Aggs[0]}, q1Aggs...))
		}
	}
	for _, c := range []struct {
		name  string
		limit float64
		run   func() (*table.Batch, error)
	}{
		{"join", 45, join(build, probe)},
		{"agg", 85, agg("okey")},
		{"join_sparse", 50, join(sbuild, sprobe)},
		{"agg_sparse", 100, agg("skey")},
	} {
		var err error
		got := testing.AllocsPerRun(5, func() { _, err = c.run() })
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %.0f allocations for %d rows", c.name, got, rows)
		if got > c.limit {
			t.Errorf("%s of %d rows: %.0f allocations, limit %.0f — is something allocating per row or per group again?",
				c.name, rows, got, c.limit)
		}
	}
}

// TestHashAggManyGroupsAllocs gates the bytes BenchmarkHashAgg/ManyGroups
// allocates per group: the group key column, the hash table's arrays and one
// float64 sum per group, each grown by doubling — ≈70 bytes. (A 104-byte
// state per group per aggregate, regrown by append's 1.25× once large, cost
// ≈570.)
func TestHashAggManyGroupsAllocs(t *testing.T) {
	const manyGroupsBytesLimit = 120
	parts := scanBatches(aggInput(benchProbeRows, benchBuildRows))
	run := func() {
		if _, err := HashAgg(ctxb(), SliceSource(parts...), []string{"okey"}, q18Aggs); err != nil {
			t.Fatal(err)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	perGroup := float64(after.TotalAlloc-before.TotalAlloc) / benchBuildRows
	t.Logf("%.0f bytes allocated per group", perGroup)
	if perGroup > manyGroupsBytesLimit {
		t.Errorf("%.0f bytes allocated per group, limit %d — is the aggregate state a struct per group again?", perGroup, manyGroupsBytesLimit)
	}
}
