package cloudiq_test

// Benchmark harness: one sub-benchmark per row of bench.Experiments — every
// table and figure in the paper's evaluation (§6), the ablations for the
// design choices DESIGN.md calls out, and the repo's own experiments. Each
// executes the experiment at a reduced scale factor and logs its tables; the
// numbers are simulated seconds, while ns/op includes real sleeps at the
// configured time scale. Run a single experiment with e.g.
//
//	go test -bench 'BenchmarkPaper/table2$' -benchtime 1x
//
// or the whole suite (the cmd/iqbench binary prints the full tables and
// writes the JSON report).

import (
	"context"
	"testing"

	"cloudiq"
	"cloudiq/internal/bench"
)

// BenchmarkPaper runs every experiment of the table, deliberately small so
// `go test -bench .` completes in minutes; cmd/iqbench uses larger defaults
// for the printed tables.
func BenchmarkPaper(b *testing.B) {
	opts := bench.Options{SF: 0.004, FilesPerTable: 4}
	for _, e := range bench.Experiments {
		b.Run(e.Name, func(b *testing.B) {
			var entry bench.ExperimentReport
			for i := 0; i < b.N; i++ {
				var err error
				if entry, err = e.Report(context.Background(), opts); err != nil {
					b.Fatal(err)
				}
			}
			b.Logf("%s\n%s", e.Title, entry.Result.Table())
		})
	}
}

// --- micro-benchmarks of the engine fast paths ---

// BenchmarkEnginePageWriteCloud measures the cloud page write path (key
// allocation, hashed naming, store PUT) without simulated latency.
func BenchmarkEnginePageWriteCloud(b *testing.B) {
	ctx := context.Background()
	store := cloudiq.NewMemObjectStore(cloudiq.ObjectStoreConfig{})
	db, err := cloudiq.Open(ctx, cloudiq.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if err := db.AttachCloudDbspace("user", store, cloudiq.CloudOptions{}); err != nil {
		b.Fatal(err)
	}
	tx := db.Begin()
	tbl, err := tx.CreateTable(ctx, "user", "t", cloudiq.Schema{
		Cols: []cloudiq.ColumnDef{{Name: "x", Typ: cloudiq.Int64}},
	}, cloudiq.TableOptions{SegRows: 128})
	if err != nil {
		b.Fatal(err)
	}
	batch := cloudiq.NewBatch(tbl.Schema())
	for i := 0; i < 128; i++ {
		batch.Vecs[0].AppendInt(int64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tbl.Append(ctx, batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := tx.Commit(ctx); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineScan measures the vectorized scan+filter path over cached
// pages.
func BenchmarkEngineScan(b *testing.B) {
	ctx := context.Background()
	store := cloudiq.NewMemObjectStore(cloudiq.ObjectStoreConfig{})
	db, err := cloudiq.Open(ctx, cloudiq.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if err := db.AttachCloudDbspace("user", store, cloudiq.CloudOptions{}); err != nil {
		b.Fatal(err)
	}
	tx := db.Begin()
	tbl, _ := tx.CreateTable(ctx, "user", "t", cloudiq.Schema{
		Cols: []cloudiq.ColumnDef{{Name: "x", Typ: cloudiq.Int64}, {Name: "y", Typ: cloudiq.Float64}},
	}, cloudiq.TableOptions{SegRows: 4096})
	batch := cloudiq.NewBatch(tbl.Schema())
	for i := 0; i < 100_000; i++ {
		batch.Vecs[0].AppendInt(int64(i))
		batch.Vecs[1].AppendFloat(float64(i) * 0.5)
	}
	if err := tbl.Append(ctx, batch); err != nil {
		b.Fatal(err)
	}
	if err := tx.Commit(ctx); err != nil {
		b.Fatal(err)
	}
	reader := db.Begin()
	rt, err := reader.Table(ctx, "user", "t")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := cloudiq.Scan(rt, []string{"x", "y"}, cloudiq.ScanOptions{Filter: cloudiq.Gt(cloudiq.Col("x"), cloudiq.ConstI(50_000))})
		if err != nil {
			b.Fatal(err)
		}
		out, err := cloudiq.Collect(ctx, src)
		if err != nil || out.Rows() != 49_999 {
			b.Fatalf("rows = %d, %v", out.Rows(), err)
		}
	}
}
