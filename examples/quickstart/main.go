// Quickstart: create a database whose user dbspace lives on an (eventually
// consistent, simulated) object store, load a table, and run an analytical
// query — the cloudiq equivalent of
//
//	CREATE DBSPACE user USING OBJECT STORE 's3://bucket';
//	CREATE TABLE trips (...) IN user;
//	LOAD TABLE trips ...;
//	SELECT city, count(*), sum(fare) FROM trips WHERE ... GROUP BY city;
package main

import (
	"context"
	"fmt"
	"log"

	"cloudiq"
)

func main() {
	ctx := context.Background()

	// A simulated S3 bucket exhibiting 2020-era eventual consistency: a
	// freshly written object 404s on its first read. The engine's
	// never-write-twice policy plus bounded retries make this invisible.
	bucket := cloudiq.NewMemObjectStore(cloudiq.ObjectStoreConfig{
		Consistency: cloudiq.ObjectStoreConsistency{NewKeyMissReads: 1},
	})

	db, err := cloudiq.Open(ctx, cloudiq.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	if err := db.AttachCloudDbspace("user", bucket, cloudiq.CloudOptions{}); err != nil {
		log.Fatal(err)
	}

	// Create and load a table inside one transaction.
	schema := cloudiq.Schema{Cols: []cloudiq.ColumnDef{
		{Name: "city", Typ: cloudiq.String},
		{Name: "fare", Typ: cloudiq.Float64},
		{Name: "day", Typ: cloudiq.Int64, Date: true},
	}}
	tx := db.Begin()
	trips, err := tx.CreateTable(ctx, "user", "trips", schema, cloudiq.TableOptions{SegRows: 512})
	if err != nil {
		log.Fatal(err)
	}
	batch := cloudiq.NewBatch(schema)
	cities := []string{"Waterloo", "Toronto", "Berlin", "Shanghai"}
	for i := 0; i < 10_000; i++ {
		batch.Vecs[0].AppendStr(cities[i%len(cities)])
		batch.Vecs[1].AppendFloat(5 + float64(i%40))
		batch.Vecs[2].AppendInt(cloudiq.DateToDays(2021, 6, 1+i%24))
	}
	if err := trips.Append(ctx, batch); err != nil {
		log.Fatal(err)
	}
	if err := tx.Commit(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d rows into %d objects on the bucket\n", trips.Rows(), bucket.Len())

	// Query at a consistent snapshot.
	reader := db.Begin()
	rt, err := reader.Table(ctx, "user", "trips")
	if err != nil {
		log.Fatal(err)
	}
	src, err := cloudiq.Scan(rt, []string{"city", "fare", "day"}, cloudiq.ScanOptions{
		Filter: cloudiq.GeE(cloudiq.Col("day"), cloudiq.ConstI(cloudiq.DateToDays(2021, 6, 10))),
	})
	if err != nil {
		log.Fatal(err)
	}
	out, err := cloudiq.HashAgg(ctx, src, []string{"city"}, []cloudiq.Agg{
		{Func: cloudiq.Count, As: "trips"},
		{Func: cloudiq.Sum, Expr: cloudiq.Col("fare"), As: "total_fare"},
		{Func: cloudiq.Avg, Expr: cloudiq.Col("fare"), As: "avg_fare"},
	})
	if err != nil {
		log.Fatal(err)
	}
	out, err = cloudiq.SortBatch(out, []cloudiq.SortKey{{Col: "total_fare", Desc: true}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncity        trips   total_fare   avg_fare")
	for r := 0; r < out.Rows(); r++ {
		fmt.Printf("%-10s %6d   %10.2f   %8.2f\n",
			out.Col("city").Str[r], out.Col("trips").I64[r],
			out.Col("total_fare").F64[r], out.Col("avg_fare").F64[r])
	}
	if err := reader.Rollback(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbucket traffic: %s\n", bucket.Metrics())
}
