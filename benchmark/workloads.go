package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"cloudiq"
	"cloudiq/internal/trace"
	"cloudiq/tpch"
)

// workloadDef names a workload and records why it exists; later issues cite
// these names.
type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{"power_warm", "closed loop, 1 client, Q1-Q22 in seeded order, everything cached: the CPU-bound decode/exec/buffer-hit path; objstore, ocm and the pageio miss path do nothing (asserted)"},
	{"power_cold", "same queries, buffer 1/6 of the data and an OCM smaller than it: adds the miss path (buffer fill + inflate, pageio chain, ocm, objstore); caching or coalescing changes move it, power_warm stays flat"},
	{"bulk_load", "closed loop of fresh database + LoadAll + Commit + WaitIO: the write side of the same layers (parse, encode, compress, WriteBatch, OCM upload, PUT, keygen, wal, txn), where a read-path gain can cost"},
	{"trickle_mixed", "open-loop 64-row Insert+Commit every 20 ms timed from its due time, beside closed-loop delta-merged Q6 scans and a compaction every second: wal/txn/delta and the stall compaction imposes on inserts"},
}

// sample is what one timed phase measured.
type sample struct {
	units     int                  // passes, loads, or 1 for a trickle run
	series    map[string][]float64 // wall samples by name, in ms unless the name says otherwise
	counts    map[string]float64
	attempted int
	failed    int
	problems  []string
}

func newSample() *sample {
	return &sample{series: make(map[string][]float64), counts: make(map[string]float64)}
}

func (s *sample) add(name string, d time.Duration) {
	s.series[name] = append(s.series[name], msOf(d))
}

// hostKernelSeries holds the reference-kernel time beside each unit of work.
const hostKernelSeries = "host_kernel"

// quiet returns the named series scaled to the quiet host (see hostclock.go):
// entry by entry when there is one kernel sample per entry, otherwise by the
// median kernel sample of the phase.
func (s *sample) quiet(name string) []float64 {
	xs, kernels := s.series[name], s.series[hostKernelSeries]
	if len(kernels) == 0 {
		return xs
	}
	out := make([]float64, len(xs))
	ref, med := msOf(hostKernelRef), median(kernels)
	for i, x := range xs {
		k := med
		if len(kernels) == len(xs) {
			k = kernels[i]
		}
		out[i] = x * ref / k
	}
	return out
}

const maxProblems = 8

// fail counts one failed, wrong or refused operation.
func (s *sample) fail(format string, args ...any) {
	s.failed++
	if len(s.problems) < maxProblems {
		s.problems = append(s.problems, fmt.Sprintf(format, args...))
	}
}

// roles are the three workload-defined end-to-end figures with the sample
// count behind the first.
type roles struct {
	opP50, opSlow, query float64
	n                    int
}

// workload is one benchmark workload bound to one dataset, seed and env kind.
type workload interface {
	// setup does everything before the first timed op.
	setup(ctx context.Context) error
	// timed measures for at least dur. A non-nil obs (traced envs only)
	// receives the phase's per-layer observations.
	timed(ctx context.Context, dur time.Duration, obs *observer) (*sample, error)
	roles(s *sample) roles
	// layerMetrics are the workload's own per-layer figures: plain is the
	// untraced half of a traced run, traced the traced half.
	layerMetrics(plain, traced *sample) map[string]float64
	// probeEnv is an env with the TPC-H tables loaded, for kernel probes.
	probeEnv() *env
	close() error
}

type workloadArgs struct {
	ds     *dataset
	golden *goldenSet
	seed   int64
	traced bool
	dur    time.Duration // timed window, known at set-up for pre-built inputs
	// record, when non-nil, is filled with fingerprints instead of checking
	// against golden (-update-golden).
	record *goldenSet
}

func newWorkload(name string, a workloadArgs) (workload, error) {
	switch name {
	case "power_warm":
		return &power{args: a}, nil
	case "power_cold":
		return &power{args: a, cold: true}, nil
	case "bulk_load":
		return &bulk{args: a}, nil
	case "trickle_mixed":
		return &trickle{args: a}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// --- power_warm / power_cold ---

const warmupPasses = 2

type power struct {
	args workloadArgs
	cold bool
	e    *env
	conn *tpch.Conn
}

func (p *power) probeEnv() *env { return p.e }
func (p *power) close() error   { return p.e.close() }

func (p *power) setup(ctx context.Context) error {
	spec := envSpec{cacheBytes: warmCacheBytes, ssdBytes: warmSSDBytes, seed: p.args.seed, traced: p.args.traced}
	if p.cold {
		spec.cacheBytes, spec.ssdBytes = coldSizes(p.args.ds.sf)
	}
	e, err := newEnv(ctx, spec)
	if err != nil {
		return err
	}
	p.e = e
	if _, err := e.load(ctx, p.args.ds); err != nil {
		return err
	}
	p.conn, err = tpch.OpenConn(ctx, e.db.Begin(), dbspace)
	if err != nil {
		return err
	}
	warm := newSample()
	for i := 0; i < warmupPasses; i++ {
		p.pass(ctx, naturalOrder, warm)
	}
	e.db.WaitIO()
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %d wrong results: %v", warm.failed, warm.problems)
	}
	return nil
}

var naturalOrder = func() []int {
	qs := make([]int, 22)
	for i := range qs {
		qs[i] = i + 1
	}
	return qs
}()

// pass runs the 22 queries in the given order, timing each and checking its
// result outside the timed interval.
func (p *power) pass(ctx context.Context, order []int, s *sample) {
	kernel := hostKernel()
	var total time.Duration
	for _, q := range order {
		qctx, root := trace.Root(ctx, p.e.tracer, "bench.query")
		start := time.Now()
		out, err := p.conn.Query(qctx, q)
		el := time.Since(start)
		root.End()
		total += el
		s.attempted++
		s.add(queryKey(q), el)
		if err != nil {
			s.fail("Q%d: %v", q, err)
			continue
		}
		fp := fingerprint(out)
		if rec := p.args.record; rec != nil {
			if prev, ok := rec.Queries[queryKey(q)]; ok && prev != fp {
				s.fail("Q%d: fingerprint %s differs from an earlier pass's %s", q, fp, prev)
			}
			rec.Queries[queryKey(q)] = fp
		} else if want := p.args.golden.Queries[queryKey(q)]; fp != want {
			s.fail("Q%d: fingerprint %s, golden %s", q, fp, want)
		}
	}
	s.add("pass", total)
	s.add(hostKernelSeries, (kernel+hostKernel())/2)
	s.units++
}

// maxStreams bounds the pre-drawn query orders; a run cycles through them.
const maxStreams = 256

func (p *power) timed(ctx context.Context, dur time.Duration, obs *observer) (*sample, error) {
	s := newSample()
	orders := tpch.Streams(maxStreams, p.args.seed)
	pool0, gets0 := p.e.db.PoolStats(), p.e.store.Metrics().Gets()
	if obs != nil {
		obs.begin(p.e)
	}
	start := time.Now()
	for i := 0; time.Since(start) < dur; i++ {
		p.pass(ctx, orders[i%len(orders)], s)
		if obs != nil {
			obs.drain(p.e)
		}
	}
	if obs != nil {
		obs.units += s.units
		obs.end(p.e)
	}
	// Workload separation, by counters: the warm run never leaves the buffer
	// cache, the cold run always does.
	misses := p.e.db.PoolStats().Misses - pool0.Misses
	gets := p.e.store.Metrics().Gets() - gets0
	s.counts["buffer_misses"], s.counts["store_gets"] = float64(misses), float64(gets)
	if !p.cold && (misses != 0 || gets != 0) {
		s.fail("power_warm left the cache: %d buffer misses, %d store GETs in timed passes", misses, gets)
	}
	if p.cold && misses == 0 {
		s.fail("power_cold never missed the buffer cache")
	}
	return s, nil
}

// perQuery returns the 22 per-query medians.
func perQuery(s *sample) []float64 {
	meds := make([]float64, 0, 22)
	for q := 1; q <= 22; q++ {
		meds = append(meds, median(s.quiet(queryKey(q))))
	}
	return meds
}

func (p *power) roles(s *sample) roles {
	meds := perQuery(s)
	return roles{opP50: median(s.quiet("pass")), opSlow: maxOf(meds), query: geomean(meds), n: len(s.series["pass"])}
}

func (p *power) layerMetrics(plain, traced *sample) map[string]float64 {
	m := map[string]float64{
		"workload.pass_s":           median(plain.quiet("pass")) / 1000,
		"workload.query_geomean_ms": geomean(perQuery(plain)),
	}
	for q := 1; q <= 22; q++ {
		m[fmt.Sprintf("tpch.q%02d_ms", q)] = median(traced.series[queryKey(q)])
	}
	return m
}

// --- Q6-shaped scan, shared by bulk_load and trickle_mixed ---

var (
	q6Lo = cloudiq.DateToDays(1994, time.January, 1)
	q6Hi = cloudiq.DateToDays(1995, time.January, 1)
)

const (
	q6DiscLo, q6DiscHi = 0.05, 0.07
	q6QtyBelow         = 24.0
)

var q6Cols = []string{"l_shipdate", "l_discount", "l_quantity", "l_extendedprice"}

func q6Filter() cloudiq.Expr {
	return cloudiq.AndE(
		cloudiq.AndE(
			cloudiq.GeE(cloudiq.Col("l_shipdate"), cloudiq.ConstI(q6Lo)),
			cloudiq.Lt(cloudiq.Col("l_shipdate"), cloudiq.ConstI(q6Hi))),
		cloudiq.AndE(
			cloudiq.AndE(
				cloudiq.GeE(cloudiq.Col("l_discount"), cloudiq.ConstF(q6DiscLo)),
				cloudiq.Le(cloudiq.Col("l_discount"), cloudiq.ConstF(q6DiscHi))),
			cloudiq.Lt(cloudiq.Col("l_quantity"), cloudiq.ConstF(q6QtyBelow))))
}

func q6Aggs() []cloudiq.Agg {
	return []cloudiq.Agg{{Func: cloudiq.Sum,
		Expr: cloudiq.MulE(cloudiq.Col("l_extendedprice"), cloudiq.Col("l_discount")), As: "revenue"}}
}

// q6Scan runs the Q6-shaped aggregate over lineitem at a fresh snapshot
// (delta rows merged) with pushdown off, and returns the revenue.
func q6Scan(ctx context.Context, db *cloudiq.Database) (float64, error) {
	tx := db.Begin()
	defer tx.Rollback(ctx) // read-only: nothing to undo, nothing to report
	tbl, err := tx.Table(ctx, dbspace, "lineitem")
	if err != nil {
		return 0, err
	}
	out, err := cloudiq.ScanAgg(ctx, tbl, q6Cols,
		cloudiq.ScanOptions{Filter: q6Filter(), Pushdown: cloudiq.PushdownOff}, q6Aggs())
	if err != nil {
		return 0, err
	}
	if out.Rows() != 1 || len(out.Vecs) != 1 || out.Vecs[0].Typ != cloudiq.Float64 {
		return 0, fmt.Errorf("q6 scan: unexpected result shape")
	}
	return out.Vecs[0].F64[0], nil
}

// countRows counts a table's rows at a fresh snapshot, delta rows included.
func countRows(ctx context.Context, db *cloudiq.Database, name string) (int64, error) {
	tx := db.Begin()
	defer tx.Rollback(ctx) // read-only: nothing to undo, nothing to report
	tbl, err := tx.Table(ctx, dbspace, name)
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

// closeTo compares two float sums whose terms may have been added in a
// different order.
func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Abs(want)+1e-9
}

// --- bulk_load ---

// postLoadScans is how many Q6-shaped scans follow each load: a 24 ms scan
// once per load gave too few samples for a steady median.
const postLoadScans = 3

type bulk struct {
	args workloadArgs
	last *env // the most recent load's env, kept for heap accounting and probes

	// The first load's request count and charged time; every later load
	// must repeat them exactly.
	firstPuts int64
	firstSim  time.Duration
}

func (b *bulk) probeEnv() *env { return b.last }

func (b *bulk) close() error {
	if b.last == nil {
		return nil
	}
	return b.last.close()
}

// setup runs one untimed load, so allocator growth and lazy initialisation
// are not charged to the first timed one.
func (b *bulk) setup(ctx context.Context) error {
	s := newSample()
	b.once(ctx, s, nil)
	if s.failed > 0 {
		return fmt.Errorf("warm-up load: %v", s.problems)
	}
	return nil
}

// once does one load into a fresh database and checks it.
func (b *bulk) once(ctx context.Context, s *sample, obs *observer) {
	s.attempted++
	// The same device seeds for every load: request counts and charged
	// time must then repeat exactly.
	e, err := newEnv(ctx, envSpec{cacheBytes: warmCacheBytes, ssdBytes: warmSSDBytes, seed: b.args.seed, traced: b.args.traced})
	if err != nil {
		s.fail("open: %v", err)
		return
	}
	if obs != nil {
		obs.begin(e)
	}
	kernel := hostKernel()
	lctx, root := trace.Root(ctx, e.tracer, "bench.load")
	lt, err := e.load(lctx, b.args.ds)
	root.End()
	kernel = (kernel + hostKernel()) / 2
	if obs != nil {
		obs.units++
		obs.end(e)
	}
	if b.last != nil {
		if cerr := b.last.close(); cerr != nil {
			s.fail("close: %v", cerr)
		}
	}
	b.last = e
	if err != nil {
		s.fail("load: %v", err)
		return
	}
	s.units++
	s.add(hostKernelSeries, kernel)
	s.add("load", lt.total)
	s.add("loadall", lt.loadAll)
	s.add("commit", lt.commit)
	s.add("commit_wait", lt.commit+lt.waitIO)
	s.counts["rows"] = float64(lt.rows)
	s.counts["stored_ratio"] = float64(e.store.StoredBytes()) / float64(b.args.ds.gen.Bytes)

	puts, sim := e.store.Metrics().Puts(), e.simCharged()
	if b.firstPuts == 0 {
		b.firstPuts, b.firstSim = puts, sim
	} else if puts != b.firstPuts || sim != b.firstSim {
		s.fail("load not repeatable: %d PUTs / %v charged, first load %d / %v", puts, sim, b.firstPuts, b.firstSim)
	}
	if keys := e.store.OverwrittenKeys(); len(keys) > 0 {
		s.fail("never-write-twice violated: %d keys overwritten", len(keys))
	}

	// The first reads after the load, then the per-table row counts.
	for i := 0; i < postLoadScans; i++ {
		start := time.Now()
		rev, err := q6Scan(ctx, e.db)
		s.add("post_scan", time.Since(start))
		switch {
		case err != nil:
			s.fail("post-load scan: %v", err)
		case b.args.record != nil:
			b.args.record.Q6Scan = rev
		case !closeTo(rev, b.args.golden.Q6Scan):
			s.fail("post-load scan: revenue %v, golden %v", rev, b.args.golden.Q6Scan)
		}
	}
	for _, name := range tpch.TableNames() {
		n, err := countRows(ctx, e.db, name)
		if err != nil {
			s.fail("count %s: %v", name, err)
		} else if want := b.args.ds.gen.Rows[name]; n != want {
			s.fail("%s: %d rows loaded, generated %d", name, n, want)
		}
	}
}

func (b *bulk) timed(ctx context.Context, dur time.Duration, obs *observer) (*sample, error) {
	s := newSample()
	for start := time.Now(); time.Since(start) < dur; {
		b.once(ctx, s, obs)
	}
	return s, nil
}

func (b *bulk) roles(s *sample) roles {
	return roles{opP50: median(s.quiet("load")), opSlow: median(s.quiet("commit_wait")),
		query: median(s.quiet("post_scan")), n: len(s.series["load"])}
}

func (b *bulk) layerMetrics(plain, traced *sample) map[string]float64 {
	m := map[string]float64{
		"workload.stored_bytes_per_input_byte": traced.counts["stored_ratio"],
		"table.loadall_ms":                     median(traced.series["loadall"]),
		"txn.commit_ms":                        median(traced.series["commit"]),
	}
	if load := median(plain.quiet("load")); load > 0 {
		m["workload.load_rows_per_s"] = plain.counts["rows"] / (load / 1000)
	}
	return m
}
