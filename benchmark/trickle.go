package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"cloudiq"
	"cloudiq/internal/trace"
	"cloudiq/tpch"
)

// trickle_mixed schedule. The period and batch size fix the offered load at
// 50 commits/s and 3.2 k rows/s, far below what the engine sustains, so the
// insert latency is service time plus whatever stall compaction imposes.
const (
	tricklePeriod    = 20 * time.Millisecond
	trickleBatchRows = 64
	compactEvery     = time.Second
	// maxGenLagShare marks a run invalid when the sender itself ran
	// systematically late: median wake-up lag, over sends with no commit in
	// flight, as a share of the period. The tail of the lag is reported
	// (workload.gen_lag_p99_ms) but cannot invalidate a run: with two CPUs
	// shared between the sender, the scan thread and compaction's parallel
	// flush, a woken sender sometimes waits a scheduler quantum for a CPU,
	// and timing from the due time already charges that wait to the insert.
	maxGenLagShare = 0.20
	baselineScans  = 9
)

type trickle struct {
	args workloadArgs
	e    *env

	batches   []*cloudiq.Batch // pre-built in set-up: generator CPU is not in the timed path
	batchQ6   []float64        // each batch's contribution to the Q6-shaped revenue
	next      int              // first batch not yet committed
	baseRows  int64
	baseQ6    float64
	drainedMs float64 // Q6-shaped scan median on the drained table, from set-up
}

func (t *trickle) probeEnv() *env { return t.e }
func (t *trickle) close() error   { return t.e.close() }

func (t *trickle) setup(ctx context.Context) error {
	e, err := newEnv(ctx, envSpec{cacheBytes: trickleCacheBytes, ssdBytes: warmSSDBytes, seed: t.args.seed, traced: t.args.traced})
	if err != nil {
		return err
	}
	t.e = e
	if _, err := e.load(ctx, t.args.ds); err != nil {
		return err
	}
	t.baseRows = t.args.ds.gen.Rows["lineitem"]
	var scans []float64
	for i := 0; i < baselineScans; i++ {
		start := time.Now()
		rev, err := q6Scan(ctx, e.db)
		if err != nil {
			return err
		}
		scans = append(scans, msOf(time.Since(start)))
		t.baseQ6 = rev
	}
	if t.args.record == nil && !closeTo(t.baseQ6, t.args.golden.Q6Scan) {
		return fmt.Errorf("drained scan: revenue %v, golden %v", t.baseQ6, t.args.golden.Q6Scan)
	}
	t.drainedMs = median(scans[1:]) // the first scan fills the cache
	e.db.WaitIO()

	n := int(t.args.dur/tricklePeriod) + 1
	rng := rand.New(rand.NewSource(t.args.seed))
	t.batches, t.batchQ6 = make([]*cloudiq.Batch, n), make([]float64, n)
	for i := range t.batches {
		t.batches[i], t.batchQ6[i] = lineitemBatch(rng, trickleBatchRows)
	}
	return nil
}

// lineitemBatch synthesizes n lineitem rows in the loaded data's value
// ranges, and computes — independently of the engine — what they add to the
// Q6-shaped revenue.
func lineitemBatch(rng *rand.Rand, n int) (*cloudiq.Batch, float64) {
	b := cloudiq.NewBatch(tpch.Schemas()["lineitem"])
	epoch := cloudiq.DateToDays(1992, time.January, 1)
	var q6 float64
	for i := 0; i < n; i++ {
		ship := epoch + rng.Int63n(2400)
		qty := float64(rng.Intn(50) + 1)
		price := float64(rng.Intn(90000)) / 100
		disc := float64(rng.Intn(11)) / 100
		b.Vecs[0].AppendInt(rng.Int63n(1500000)) // l_orderkey
		b.Vecs[1].AppendInt(rng.Int63n(200000))  // l_partkey
		b.Vecs[2].AppendInt(rng.Int63n(10000))   // l_suppkey
		b.Vecs[3].AppendInt(int64(i%7) + 1)      // l_linenumber
		b.Vecs[4].AppendFloat(qty)               // l_quantity
		b.Vecs[5].AppendFloat(price)             // l_extendedprice
		b.Vecs[6].AppendFloat(disc)              // l_discount
		b.Vecs[7].AppendFloat(float64(rng.Intn(9)) / 100)
		b.Vecs[8].AppendStr("N")
		b.Vecs[9].AppendStr("O")
		b.Vecs[10].AppendInt(ship)
		b.Vecs[11].AppendInt(ship + 30)
		b.Vecs[12].AppendInt(ship + 7)
		b.Vecs[13].AppendStr("DELIVER IN PERSON")
		b.Vecs[14].AppendStr("TRUCK")
		b.Vecs[15].AppendStr("trickle row")
		if ship >= q6Lo && ship < q6Hi && disc >= q6DiscLo && disc <= q6DiscHi && qty < q6QtyBelow {
			q6 += price * disc
		}
	}
	return b, q6
}

func (t *trickle) timed(ctx context.Context, dur time.Duration, obs *observer) (*sample, error) {
	s := newSample()
	s.units = 1
	if obs != nil {
		obs.begin(t.e)
	}
	start := time.Now()
	deadline := start.Add(dur)
	first := t.next

	// Each thread fills its own sample; they are merged after both stop.
	ins, scan := newSample(), newSample()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		t.insertLoop(ctx, start, deadline, ins)
	}()
	go func() {
		defer wg.Done()
		t.scanLoop(ctx, start, deadline, scan, obs)
	}()
	wg.Wait()
	if obs != nil {
		obs.units++
		obs.end(t.e)
	}
	for _, part := range []*sample{ins, scan} {
		s.attempted += part.attempted
		s.failed += part.failed
		s.problems = append(s.problems, part.problems...)
		for k, v := range part.series {
			s.series[k] = v
		}
		for k, v := range part.counts {
			s.counts[k] = v
		}
	}
	if lag := median(s.series["lag"]); lag > maxGenLagShare*msOf(tricklePeriod) {
		s.fail("invalid run: median sender lag %.3f ms exceeds %.0f%% of the %v period", lag, 100*maxGenLagShare, tricklePeriod)
	}
	t.verify(ctx, s, first)
	return s, nil
}

// insertLoop is the open loop: batch i is due at start + i×period whatever
// happened to batch i-1, and its latency runs from that due time.
func (t *trickle) insertLoop(ctx context.Context, start, deadline time.Time, s *sample) {
	for ; t.next < len(t.batches); t.next++ {
		due := start.Add(time.Duration(t.next) * tricklePeriod)
		if !due.Before(deadline) {
			return
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
			// Only a sender that was idle can measure its own lateness.
			s.add("lag", time.Since(due))
		}
		s.attempted++
		ictx, root := trace.Root(ctx, t.e.tracer, "bench.insert")
		tx := t.e.db.Begin()
		t0 := time.Now()
		err := tx.Insert(ictx, "lineitem", t.batches[t.next])
		t1 := time.Now()
		if err == nil {
			err = tx.Commit(ictx)
		}
		t2 := time.Now()
		root.End()
		if err != nil {
			s.fail("insert %d: %v", t.next, err)
			t.batchQ6[t.next] = 0
			t.batches[t.next] = nil
			continue
		}
		s.add("insert", t2.Sub(due))
		s.add("insert_call", t1.Sub(t0))
		s.add("commit", t2.Sub(t1))
	}
}

// scanLoop is the closed loop beside it: Q6-shaped scans on fresh snapshots
// and, once per compactEvery, a Freeze+Compact cycle that is not counted in
// scan latency.
func (t *trickle) scanLoop(ctx context.Context, start, deadline time.Time, s *sample, obs *observer) {
	nextCompact := start.Add(compactEvery)
	prev := t.baseQ6
	for time.Now().Before(deadline) {
		s.attempted++
		sctx, root := trace.Root(ctx, t.e.tracer, "bench.scan")
		t0 := time.Now()
		rev, err := q6Scan(sctx, t.e.db)
		s.add("scan", time.Since(t0))
		root.End()
		s.add(hostKernelSeries, hostKernel())
		switch {
		case err != nil:
			s.fail("scan: %v", err)
		case rev < prev && !closeTo(rev, prev):
			// Every trickled row adds a non-negative term and snapshots
			// only move forward.
			s.fail("scan: revenue went down, %v after %v", rev, prev)
		default:
			prev = rev
		}
		if time.Now().Before(nextCompact) {
			continue
		}
		for !time.Now().Before(nextCompact) {
			nextCompact = nextCompact.Add(compactEvery)
		}
		s.attempted++
		s.counts["live_rows_max"] = max(s.counts["live_rows_max"], float64(t.e.db.DeltaLiveRows("lineitem")))
		cctx, croot := trace.Root(ctx, t.e.tracer, "bench.compact")
		t0 = time.Now()
		t.e.db.FreezeDelta()
		n, err := t.e.db.CompactDelta(cctx, dbspace)
		el := time.Since(t0)
		croot.End()
		switch {
		case errors.Is(err, cloudiq.ErrDeltaBusy):
			s.counts["busy_deferrals"]++
		case err != nil:
			s.fail("compact: %v", err)
		default:
			s.add("compact", el)
			s.counts["compact_cycles"]++
			s.counts["compacted_rows"] += float64(n)
		}
		// Let the commit's asynchronous OCM fills land before the next scan
		// opens the new table version. At the seed a read can overtake the
		// fill of the same key and see the device block before it is written
		// (the race internal/ocm's TestConcurrentMixedWorkload trips over);
		// here that shows as a blockmap page of zeros right after a drain.
		t.e.db.WaitIO()
		if obs != nil {
			obs.drain(t.e)
		}
	}
}

// maxDrainCycles bounds the final drain; one cycle normally empties the delta.
const maxDrainCycles = 16

// verify drains the delta and checks that exactly the committed rows are in
// the table, by count and by the Q6-shaped revenue.
func (t *trickle) verify(ctx context.Context, s *sample, first int) {
	for i := 0; t.e.db.DeltaLiveRows("lineitem") > 0; i++ {
		if i == maxDrainCycles {
			s.fail("delta not drained after %d cycles: %d rows live", maxDrainCycles, t.e.db.DeltaLiveRows("lineitem"))
			return
		}
		t.e.db.FreezeDelta()
		if _, err := t.e.db.CompactDelta(ctx, dbspace); err != nil {
			s.fail("final drain: %v", err)
			return
		}
	}
	for i := first; i < t.next; i++ {
		if t.batches[i] != nil {
			t.baseRows += int64(t.batches[i].Rows())
			t.baseQ6 += t.batchQ6[i]
		}
	}
	if n, err := countRows(ctx, t.e.db, "lineitem"); err != nil {
		s.fail("final count: %v", err)
	} else if n != t.baseRows {
		s.fail("lineitem has %d rows, want %d (loaded + committed)", n, t.baseRows)
	}
	if rev, err := q6Scan(ctx, t.e.db); err != nil {
		s.fail("final scan: %v", err)
	} else if !closeTo(rev, t.baseQ6) {
		s.fail("final scan: revenue %v, want %v", rev, t.baseQ6)
	}
}

func (t *trickle) roles(s *sample) roles {
	scans := s.quiet("scan")
	return roles{opP50: median(s.quiet("insert")), opSlow: percentile(scans, 90),
		query: median(scans), n: len(s.series["insert"])}
}

func (t *trickle) layerMetrics(plain, traced *sample) map[string]float64 {
	m := map[string]float64{
		"workload.insert_commit_p50_ms": median(plain.quiet("insert")),
		"workload.insert_commit_p99_ms": percentile(plain.quiet("insert"), 99),
		"workload.scan_p50_ms":          median(plain.quiet("scan")),
		"workload.scan_p95_ms":          percentile(plain.quiet("scan"), 95),
		"workload.gen_lag_p99_ms":       percentile(plain.series["lag"], 99),
		"txn.commit_ms":                 median(traced.series["commit"]),
		"delta.insert_us_per_row":       median(traced.series["insert_call"]) * 1000 / trickleBatchRows,
		"delta.live_rows_max":           traced.counts["live_rows_max"],
		"delta.compact_ms":              median(traced.series["compact"]),
		"delta.compact_cycles":          traced.counts["compact_cycles"],
		"delta.busy_deferrals":          traced.counts["busy_deferrals"],
	}
	if rows := traced.counts["compacted_rows"]; rows > 0 {
		var total float64
		for _, ms := range traced.series["compact"] {
			total += ms
		}
		m["delta.compact_us_per_row"] = total * 1000 / rows
	}
	if t.drainedMs > 0 {
		m["delta.scan_slowdown"] = median(traced.series["scan"]) / t.drainedMs
	}
	return m
}
