// TPC-H: the paper's evaluation workload end to end on a laptop — generate
// dbgen-style input files into a simulated S3 bucket, load the eight tables
// (range-partitioned) through the cloud-native storage stack with the Object
// Cache Manager enabled, and run the 22 benchmark queries in power mode.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"cloudiq"
	"cloudiq/tpch"
)

func main() {
	sf := flag.Float64("sf", 0.005, "TPC-H scale factor")
	flag.Parse()
	ctx := context.Background()

	input := cloudiq.NewMemObjectStore(cloudiq.ObjectStoreConfig{})
	gen, err := tpch.Generate(ctx, input, "tpch/", *sf, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d input files (%.1f MB): %d lineitems, %d orders\n",
		gen.Files, float64(gen.Bytes)/1e6, gen.Rows["lineitem"], gen.Rows["orders"])

	bucket := cloudiq.NewMemObjectStore(cloudiq.ObjectStoreConfig{
		Consistency: cloudiq.ObjectStoreConsistency{NewKeyMissReads: 1},
	})
	ssd := cloudiq.NewMemBlockDevice(cloudiq.BlockDeviceConfig{Capacity: 256 << 20})
	db, err := cloudiq.Open(ctx, cloudiq.Config{CacheBytes: 64 << 20})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	if err := db.AttachCloudDbspace("user", bucket, cloudiq.CloudOptions{CacheDevice: ssd}); err != nil {
		log.Fatal(err)
	}

	tx := db.Begin()
	rows, err := tpch.LoadAll(ctx, tx, "user", input, "tpch/", *sf, 8, 1024)
	if err != nil {
		log.Fatal(err)
	}
	if err := tx.Commit(ctx); err != nil {
		log.Fatal(err)
	}
	db.WaitIO()
	fmt.Printf("loaded %d rows; %d objects (%.1f MB compressed) on the bucket\n",
		rows, bucket.Len(), float64(bucket.StoredBytes())/1e6)

	conn, err := tpch.OpenConn(ctx, db.Begin(), "user")
	if err != nil {
		log.Fatal(err)
	}
	results, err := tpch.PowerRun(ctx, conn)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\npower run:")
	for _, r := range results {
		fmt.Printf("  Q%-2d  %8.2f ms  %6d rows\n", r.Query, float64(r.Elapsed.Microseconds())/1000, r.Rows)
	}
	fmt.Printf("geometric mean: %.2f ms\n", float64(tpch.GeoMean(results).Microseconds())/1000)

	for _, st := range db.OCMStats() {
		fmt.Printf("OCM: hits=%d misses=%d (%.1f%% hit rate) — %d S3 GETs averted\n",
			st.Hits, st.Misses, st.HitRate()*100, st.Hits)
	}
}
