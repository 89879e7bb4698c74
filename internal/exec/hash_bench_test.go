package exec

import (
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

// joinSides builds an orders-like build side (unique int key + 1 payload
// column) and a lineitem-like probe side (foreign key + 3 payload columns)
// whose every row finds its one match.
func joinSides(build, probe int) (*table.Batch, *table.Batch) {
	b := batchOf(nil, []table.ColumnDef{intCol("o_key"), strCol("o_status")}, func(b *table.Batch) {
		for i := 0; i < build; i++ {
			b.Vecs[0].AppendInt(int64(i)*4 + 1)
			b.Vecs[1].AppendStr("OFP"[i%3 : i%3+1])
		}
	})
	p := batchOf(nil, []table.ColumnDef{intCol("l_key"), intCol("l_supp"), fltCol("l_price"), strCol("l_flag")}, func(b *table.Batch) {
		for i := 0; i < probe; i++ {
			b.Vecs[0].AppendInt(int64(i*7%build)*4 + 1)
			b.Vecs[1].AppendInt(int64(i % 200))
			b.Vecs[2].AppendFloat(float64(i%1000) / 8)
			b.Vecs[3].AppendStr("ANR"[i%3 : i%3+1])
		}
	})
	return b, p
}

// aggInput is a lineitem-like batch: two one-letter string columns (Q1's
// keys), an int column with the given number of distinct values in clusters
// of four rows (Q21's order key), a low-cardinality int and two floats.
func aggInput(rows, groups int) *table.Batch {
	return batchOf(nil, []table.ColumnDef{strCol("flag"), strCol("status"), intCol("okey"), intCol("supp"), fltCol("qty"), fltCol("price")}, func(b *table.Batch) {
		for i := 0; i < rows; i++ {
			b.Vecs[0].AppendStr("ANR"[i%3 : i%3+1])
			b.Vecs[1].AppendStr("OF"[i%2 : i%2+1])
			b.Vecs[2].AppendInt(int64(i / 4 % groups))
			b.Vecs[3].AppendInt(int64(i * 31 % 200))
			b.Vecs[4].AppendFloat(float64(i%50) + 1)
			b.Vecs[5].AppendFloat(float64(i%1000) / 8)
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

// scanBatches cuts b into scan-sized views.
func scanBatches(b *table.Batch) []*table.Batch {
	var out []*table.Batch
	for lo := 0; lo < b.Rows(); lo += benchBatchRows {
		out = append(out, rowsOf(b, lo, min(lo+benchBatchRows, b.Rows())))
	}
	return out
}

func BenchmarkHashJoin(b *testing.B) {
	build, probe := joinSides(benchBuildRows, benchProbeRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := HashJoin(ctxb(), SliceSource(build), []string{"o_key"}, SliceSource(probe), []string{"l_key"}, Inner)
		if err != nil || out.Rows() != benchProbeRows {
			b.Fatalf("join = %v rows, %v", out.Rows(), err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchProbeRows, "ns/row")
}

func BenchmarkHashAgg(b *testing.B) {
	in := aggInput(benchProbeRows, benchBuildRows)
	for _, c := range []struct {
		name   string
		keys   []string
		aggs   []Agg
		groups int
	}{
		{"Q1", []string{"flag", "status"}, q1Aggs, 6},
		{"Q21", []string{"okey"}, q21Aggs, benchBuildRows},
		// count(distinct) at its worst: many rows and 200 values per group,
		// in one group and in six.
		{"LowCard", nil, q21Aggs, 1},
		{"Flag", []string{"flag", "status"}, q21Aggs, 6},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := HashAgg(ctxb(), SliceSource(in), c.keys, c.aggs)
				if err != nil || out.Rows() != c.groups {
					b.Fatalf("agg = %v groups, %v", out.Rows(), err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchProbeRows, "ns/row")
		})
	}
}

func BenchmarkCollect(b *testing.B) {
	_, probe := joinSides(benchBuildRows, benchProbeRows)
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
	build, probe := joinSides(groups, rows)
	in := aggInput(rows, groups)
	for _, c := range []struct {
		name  string
		limit float64
		run   func() (*table.Batch, error)
	}{
		{"join", 60, func() (*table.Batch, error) {
			return HashJoin(ctxb(), SliceSource(build), []string{"o_key"}, SliceSource(probe), []string{"l_key"}, Inner)
		}},
		{"agg", 120, func() (*table.Batch, error) {
			return HashAgg(ctxb(), SliceSource(in), []string{"okey"}, append([]Agg{q21Aggs[0]}, q1Aggs...))
		}},
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
