package bench

import (
	"context"
	"fmt"
	"time"

	"cloudiq"
	"cloudiq/internal/iomodel"
	"cloudiq/internal/mt"
	"cloudiq/tpch"
)

// The ingest experiment measures the real-time ingest lane: rows trickled
// into lineitem through the WAL-fed delta store, and how fast the
// background compactor drains the backlog into column pages. What a live
// delta adds to a scan (the MVCC merge of delta rows with encoded segments)
// is CPU work, which the modelled-I/O clock does not count; the frozen
// benchmark's delta.scan_slowdown measures it in wall time. Crash safety of the lane is not measured here: delta_test.go
// and `iqsim -delta` doom drains and commit records at all three compaction
// fault sites and audit the recovered rows.

// IngestPoint is one trickle-rate cell: rows inserted in commit batches of
// Batch, then drained.
type IngestPoint struct {
	// Batch is the rows per trickle commit.
	Batch int `json:"batch_rows"`
	// Rows is the total rows trickled at this point.
	Rows int `json:"rows"`
	// IngestSim is the simulated seconds spent inserting and committing.
	IngestSim float64 `json:"ingest_sim_s"`
	// Rate is rows per simulated second.
	Rate float64 `json:"rows_per_sim_s"`
	// DeltaRows is the live delta backlog before the drain.
	DeltaRows int `json:"delta_rows"`
	// DrainSim is the simulated seconds one compactor cycle took to drain
	// the backlog into encoded segments; DrainedRows is what it moved.
	DrainSim    float64 `json:"drain_sim_s"`
	DrainedRows int     `json:"drained_rows"`
}

// IngestReport is the result of the ingest experiment.
type IngestReport struct {
	Points []IngestPoint `json:"points"`
}

// lineitemBatch synthesizes n lineitem-shaped rows with Q6-relevant value
// ranges (shipdates spanning 1992–1998, discounts 0..0.10, quantities
// 1..50) so trickled rows exercise the same filter paths loaded rows do.
func lineitemBatch(rng *mt.Source, n int) *cloudiq.Batch {
	b := cloudiq.NewBatch(tpch.Schemas()["lineitem"])
	epoch := cloudiq.DateToDays(1992, time.January, 1)
	for i := 0; i < n; i++ {
		ship := epoch + int64(rng.Uint64()%2400)
		b.Vecs[0].AppendInt(int64(rng.Uint64() % 1500000))       // l_orderkey
		b.Vecs[1].AppendInt(int64(rng.Uint64() % 200000))        // l_partkey
		b.Vecs[2].AppendInt(int64(rng.Uint64() % 10000))         // l_suppkey
		b.Vecs[3].AppendInt(int64(i%7) + 1)                      // l_linenumber
		b.Vecs[4].AppendFloat(float64(rng.Uint64()%50 + 1))      // l_quantity
		b.Vecs[5].AppendFloat(float64(rng.Uint64()%90000) / 100) // l_extendedprice
		b.Vecs[6].AppendFloat(float64(rng.Uint64()%11) / 100)    // l_discount
		b.Vecs[7].AppendFloat(float64(rng.Uint64()%9) / 100)     // l_tax
		b.Vecs[8].AppendStr("N")                                 // l_returnflag
		b.Vecs[9].AppendStr("O")                                 // l_linestatus
		b.Vecs[10].AppendInt(ship)                               // l_shipdate
		b.Vecs[11].AppendInt(ship + 30)                          // l_commitdate
		b.Vecs[12].AppendInt(ship + 7)                           // l_receiptdate
		b.Vecs[13].AppendStr("DELIVER IN PERSON")                // l_shipinstruct
		b.Vecs[14].AppendStr("TRUCK")                            // l_shipmode
		b.Vecs[15].AppendStr("trickle row")                      // l_comment
	}
	return b
}

// countRows counts a table's rows at a fresh snapshot (delta rows included).
func countRows(ctx context.Context, db *cloudiq.Database, space, name string) (int64, error) {
	tx := db.Begin()
	defer tx.Rollback(ctx)
	tbl, err := tx.Table(ctx, space, name)
	if err != nil {
		return 0, err
	}
	out, err := cloudiq.ScanAgg(ctx, tbl, []string{tbl.Schema().Cols[0].Name},
		cloudiq.ScanOptions{Pushdown: cloudiq.PushdownOff},
		[]cloudiq.Agg{{Func: cloudiq.Count, As: "n"}})
	if err != nil {
		return 0, err
	}
	return out.Vecs[0].I64[0], nil
}

// RunIngest runs the trickle-rate points against a loaded environment and
// cross-checks row counts after every drain.
func RunIngest(ctx context.Context, base Options) (*IngestReport, error) {
	opts := base
	opts.Volume = "s3"
	e, ctx, err := Setup(ctx, opts)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	rep := &IngestReport{}
	rng := mt.New(uint64(opts.Seed)*0x9e3779b9 + 1)

	total, err := countRows(ctx, e.DB, "user", "lineitem")
	if err != nil {
		return nil, err
	}
	for _, p := range []IngestPoint{
		{Batch: 64, Rows: 1024},
		{Batch: 256, Rows: 4096},
	} {
		start := iomodel.Now(ctx)
		for done := 0; done < p.Rows; done += p.Batch {
			tx := e.DB.Begin()
			if err := tx.Insert(ctx, "lineitem", lineitemBatch(rng, p.Batch)); err != nil {
				return nil, err
			}
			if err := tx.Commit(ctx); err != nil {
				return nil, err
			}
		}
		p.IngestSim = since(ctx, start)
		if p.IngestSim > 0 {
			p.Rate = float64(p.Rows) / p.IngestSim
		}
		total += int64(p.Rows)
		p.DeltaRows = e.DB.DeltaLiveRows("lineitem")

		e.DB.FreezeDelta()
		start = iomodel.Now(ctx)
		n, err := e.DB.CompactDelta(ctx, "user")
		if err != nil {
			return nil, err
		}
		// A freeze watermark can leave post-freeze commits for a second
		// cycle; drain to empty so the next point starts clean.
		for e.DB.DeltaLiveRows("lineitem") > 0 {
			k, err := e.DB.CompactDelta(ctx, "user")
			if err != nil {
				return nil, err
			}
			n += k
		}
		p.DrainSim = since(ctx, start)
		p.DrainedRows = n

		got, err := countRows(ctx, e.DB, "user", "lineitem")
		if err != nil {
			return nil, err
		}
		if got != total {
			return nil, fmt.Errorf("bench: ingest drain: %d rows, want %d (lost or duplicated)", got, total)
		}
		rep.Points = append(rep.Points, p)
	}
	return rep, nil
}

// Table renders the ingest experiment report.
func (rep *IngestReport) Table() string {
	var rows [][]string
	for _, p := range rep.Points {
		rows = append(rows, []string{
			fmt.Sprint(p.Batch), fmt.Sprint(p.Rows),
			fmt.Sprintf("%.4f", p.IngestSim),
			fmt.Sprintf("%.0f", p.Rate),
			fmt.Sprint(p.DeltaRows),
			fmt.Sprintf("%.4f", p.DrainSim),
			fmt.Sprint(p.DrainedRows),
		})
	}
	return FormatTable([]string{"batch", "rows", "ingest (s)", "rows/sim-s",
		"delta rows", "drain (s)", "drained"}, rows)
}
