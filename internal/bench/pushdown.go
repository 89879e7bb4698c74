package bench

import (
	"context"
	"fmt"
	"time"

	"cloudiq"
	"cloudiq/internal/cloudcost"
	"cloudiq/tpch"
)

// The pushdown experiment measures what evaluating filters and partial
// aggregates inside the object store buys: the store scans its own (cheap,
// local) bytes and ships back only qualifying rows or 64-byte aggregate
// states, so the bytes crossing the simulated network collapse. It runs
// Q1- and Q6-shaped lineitem scans with pushdown off and on against the
// same environment shape and reports per-query byte and cost deltas.
//
// The environment uses a deliberately tiny buffer cache: with the working
// set resident, the "off" arm would read nothing from the store and the
// comparison would be measuring the cache, not the network.

// PushdownQueryRun is one (query, mode) cell of the pushdown experiment.
type PushdownQueryRun struct {
	// Query names the scan shape ("q6-agg", "q6-rows", "q1-agg").
	Query string `json:"query"`
	// Mode is "off" (plain segment reads) or "auto" (per-segment pushdown).
	Mode string `json:"mode"`
	// Sim is the query's simulated seconds.
	Sim float64 `json:"sim_s"`
	// StoreBytes is the bytes that left the store across the simulated
	// network: full objects for plain reads, only qualifying rows or
	// aggregate states for pushdown.
	StoreBytes int64 `json:"net_bytes"`
	// Gets and Selects count the store requests the query issued.
	Gets    int64 `json:"gets"`
	Selects int64 `json:"selects"`
	// SelectScanned and SelectReturned are the select-billing inputs: bytes
	// the store examined locally vs bytes it sent back.
	SelectScanned  int64 `json:"select_scanned_bytes"`
	SelectReturned int64 `json:"select_returned_bytes"`
	// Cost is the S3 request + select charge for the query, in USD.
	Cost float64 `json:"cost_usd"`
}

// PushdownFactor summarizes one query's off/auto byte asymmetry.
type PushdownFactor struct {
	Query    string `json:"query"`
	BytesOff int64  `json:"bytes_off"`
	BytesOn  int64  `json:"bytes_on"`
	// Factor is BytesOff/BytesOn — how many times fewer bytes crossed the
	// network with pushdown on.
	Factor float64 `json:"reduction_ratio"`
}

// PushdownReport is the result of the pushdown experiment.
type PushdownReport struct {
	Runs    []PushdownQueryRun `json:"runs"`
	Factors []PushdownFactor   `json:"factors"`
}

// pushdownQuery is one scan shape the experiment drives in both modes.
type pushdownQuery struct {
	name string
	run  func(ctx context.Context, conn *tpch.Conn, mode cloudiq.PushdownMode) error
}

// q6Cols and q6Filter are Q6's scan: a highly selective conjunction over
// lineitem.
var q6Cols = []string{"l_shipdate", "l_discount", "l_quantity", "l_extendedprice"}

func q6Filter() cloudiq.Expr {
	q6lo := cloudiq.DateToDays(1994, time.January, 1)
	q6hi := cloudiq.DateToDays(1995, time.January, 1)
	return cloudiq.AndE(
		cloudiq.AndE(
			cloudiq.GeE(cloudiq.Col("l_shipdate"), cloudiq.ConstI(q6lo)),
			cloudiq.Lt(cloudiq.Col("l_shipdate"), cloudiq.ConstI(q6hi))),
		cloudiq.AndE(
			cloudiq.AndE(
				cloudiq.GeE(cloudiq.Col("l_discount"), cloudiq.ConstF(0.05)),
				cloudiq.Le(cloudiq.Col("l_discount"), cloudiq.ConstF(0.07))),
			cloudiq.Lt(cloudiq.Col("l_quantity"), cloudiq.ConstF(24))))
}

// q6Agg runs Q6's aggregate: one SUM over q6Filter. Pushdown returns one
// 64-byte partial state per segment.
func q6Agg(ctx context.Context, conn *tpch.Conn, mode cloudiq.PushdownMode) error {
	_, err := cloudiq.ScanAgg(ctx, conn.Table("lineitem"), q6Cols,
		cloudiq.ScanOptions{Filter: q6Filter(), Pushdown: mode},
		[]cloudiq.Agg{{Func: cloudiq.Sum,
			Expr: cloudiq.MulE(cloudiq.Col("l_extendedprice"), cloudiq.Col("l_discount")),
			As:   "revenue"}})
	return err
}

func pushdownQueries() []pushdownQuery {
	q1cut := cloudiq.DateToDays(1998, time.December, 1) - 90
	return []pushdownQuery{
		{name: "q6-agg", run: q6Agg},
		// The same scan materialized as rows: pushdown ships back only the
		// ~2% of rows that pass the filter, re-encoded.
		{name: "q6-rows", run: func(ctx context.Context, conn *tpch.Conn, mode cloudiq.PushdownMode) error {
			src, err := cloudiq.Scan(conn.Table("lineitem"), q6Cols,
				cloudiq.ScanOptions{
					Filter:   q6Filter(),
					Pushdown: mode,
				})
			if err != nil {
				return err
			}
			_, err = cloudiq.Collect(ctx, src)
			return err
		}},
		// Q1's shape: a barely selective filter (~98% of rows pass) under
		// ungrouped aggregates. Row pushdown would save nothing here — but
		// aggregate pushdown still collapses each segment to fixed-size
		// states, so the reduction survives even at high selectivity.
		{name: "q1-agg", run: func(ctx context.Context, conn *tpch.Conn, mode cloudiq.PushdownMode) error {
			_, err := cloudiq.ScanAgg(ctx, conn.Table("lineitem"),
				[]string{"l_shipdate", "l_quantity", "l_extendedprice", "l_discount"},
				cloudiq.ScanOptions{
					Filter:   cloudiq.Le(cloudiq.Col("l_shipdate"), cloudiq.ConstI(q1cut)),
					Pushdown: mode,
				},
				[]cloudiq.Agg{
					{Func: cloudiq.Count, As: "count_order"},
					{Func: cloudiq.Sum, Expr: cloudiq.Col("l_quantity"), As: "sum_qty"},
					{Func: cloudiq.Sum,
						Expr: cloudiq.MulE(cloudiq.Col("l_extendedprice"),
							cloudiq.SubE(cloudiq.ConstF(1), cloudiq.Col("l_discount"))),
						As: "sum_disc_price"},
				})
			return err
		}},
	}
}

// RunPushdown runs the Q1/Q6-shaped scans with pushdown off and on and
// reports the per-query byte and cost asymmetry.
func RunPushdown(ctx context.Context, base Options) (*PushdownReport, error) {
	prices := cloudcost.Default2020()
	rep := &PushdownReport{}
	byQuery := map[string]map[string]int64{}

	for _, mode := range []struct {
		name string
		mode cloudiq.PushdownMode
	}{
		{"off", cloudiq.PushdownOff},
		{"auto", cloudiq.PushdownAuto},
	} {
		opts := base
		opts.Volume = "s3"
		opts.OCM = false
		// Small enough that lineitem cannot stay resident between queries:
		// every plain segment read pays the store round trip.
		opts.CacheBytes = 256 << 10
		e, err := Setup(ctx, opts)
		if err != nil {
			return nil, err
		}
		m := e.Store.Metrics()
		for _, q := range pushdownQueries() {
			preBytes, preGets := m.BytesOut(), m.Gets()
			preSel, preScan, preRet := m.Selects(), m.SelectScannedBytes(), m.SelectReturnedBytes()
			start := time.Now()
			if err := q.run(ctx, e.Conn(), mode.mode); err != nil {
				e.Close()
				return nil, fmt.Errorf("bench: pushdown %s (%s): %w", q.name, mode.name, err)
			}
			run := PushdownQueryRun{
				Query:          q.name,
				Mode:           mode.name,
				Sim:            e.SimSeconds(time.Since(start)),
				StoreBytes:     m.BytesOut() - preBytes,
				Gets:           m.Gets() - preGets,
				Selects:        m.Selects() - preSel,
				SelectScanned:  m.SelectScannedBytes() - preScan,
				SelectReturned: m.SelectReturnedBytes() - preRet,
			}
			run.Cost = prices.Requests(0, run.Gets) + prices.Select(run.SelectScanned, run.SelectReturned)
			rep.Runs = append(rep.Runs, run)
			if byQuery[q.name] == nil {
				byQuery[q.name] = map[string]int64{}
			}
			byQuery[q.name][mode.name] = run.StoreBytes
		}
		if err := e.Close(); err != nil {
			return nil, err
		}
	}

	for _, q := range pushdownQueries() {
		f := PushdownFactor{Query: q.name, BytesOff: byQuery[q.name]["off"], BytesOn: byQuery[q.name]["auto"]}
		if f.BytesOn > 0 {
			f.Factor = float64(f.BytesOff) / float64(f.BytesOn)
		}
		rep.Factors = append(rep.Factors, f)
	}
	return rep, nil
}

// Table renders the pushdown experiment report.
func (rep *PushdownReport) Table() string {
	var rows [][]string
	for _, r := range rep.Runs {
		rows = append(rows, []string{
			r.Query, r.Mode,
			fmt.Sprintf("%.3f", r.Sim),
			fmt.Sprint(r.StoreBytes),
			fmt.Sprint(r.Gets),
			fmt.Sprint(r.Selects),
			fmt.Sprint(r.SelectScanned),
			fmt.Sprint(r.SelectReturned),
			fmt.Sprintf("%.6f", r.Cost),
		})
	}
	out := FormatTable([]string{"query", "pushdown", "sim (s)", "net bytes", "gets",
		"selects", "sel scanned", "sel returned", "cost (USD)"}, rows)
	var frows [][]string
	for _, f := range rep.Factors {
		frows = append(frows, []string{f.Query, fmt.Sprint(f.BytesOff), fmt.Sprint(f.BytesOn),
			fmt.Sprintf("%.1fx", f.Factor)})
	}
	return out + "\n" + FormatTable([]string{"query", "bytes off", "bytes on", "reduction"}, frows)
}
