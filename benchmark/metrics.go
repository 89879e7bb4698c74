package main

import (
	"fmt"
	"math"
	"sort"
)

// A metric is measured on exactly one clock, and the results say which:
//
//	wall  — host time of the program's CPU path (every device runs at
//	        iomodel factor 0, so no modelled I/O is ever slept);
//	sim   — simulated device seconds charged to a Scale (counts × latency);
//	count — requests, bytes, dollars, ratios of counts.
const (
	clockWall  = "wall"
	clockSim   = "sim"
	clockCount = "count"
)

// metricDef declares one metric. The tables below are the single source for
// BENCHMARK.json (the manifest subcommand prints it), the README glossary
// and the shape check on every result.
type metricDef struct {
	Name   string
	Unit   string
	Clock  string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Moves names the end-to-end metric and workload a per-layer metric is
	// expected to move; on every other workload the prediction is no change.
	Moves string
	Def   string
}

// endToEnd is what a user of the system sees. The driver needs every
// end-to-end metric on every workload and none may be zero, so the names are
// roles whose definition is fixed per workload (see README, "End-to-end
// metrics"); the issue's workload-specific names (pass_s, load_rows_per_s,
// insert_commit_p99_ms, …) are reported as workload.* per-layer metrics.
var endToEnd = []metricDef{
	{Name: "op_p50_ms", Unit: "ms", Clock: clockWall, Better: "lower", Bound: 0.25,
		Def: "median wall time of the workload's unit of work: one Q1–Q22 pass (power_*), one LoadAll+Commit+WaitIO (bulk_load), one Insert+Commit from its due time (trickle_mixed)"},
	{Name: "op_slow_ms", Unit: "ms", Clock: clockWall, Better: "lower", Bound: 0.25,
		Def: "the slow part a user waits for: median of the slowest of the 22 queries (power_*), median Commit+WaitIO phase of a load (bulk_load), p90 delta-merged Q6-shaped scan (trickle_mixed)"},
	{Name: "query_ms", Unit: "ms", Clock: clockWall, Better: "lower", Bound: 0.25,
		Def: "read-query latency: geometric mean of the 22 per-query medians (power_*), median of the three Q6-shaped scans that follow each load (bulk_load), median delta-merged Q6-shaped scan (trickle_mixed)"},
	{Name: "heap_live_mb", Unit: "MiB", Clock: clockCount, Better: "lower", Bound: 0.10,
		Def: "HeapAlloc after a forced GC at the end of the timed run, environment still referenced"},
	{Name: "setup_s", Unit: "s", Clock: clockWall, Better: "lower", Bound: 0.25,
		Def: "everything before the first timed op: dbgen (once per process, added to each set-up) plus load and warm-up; median of the set-ups made in the run"},
}

const (
	movesPower   = "op_p50_ms, query_ms on power_warm and power_cold"
	movesWarm    = "op_p50_ms, query_ms on power_warm"
	movesCold    = "op_p50_ms on power_cold; workload.sim_io_s"
	movesLoad    = "op_p50_ms on bulk_load"
	movesTrickle = "op_p50_ms on trickle_mixed"
	movesTail    = "op_slow_ms on trickle_mixed"
	movesScan    = "query_ms on trickle_mixed"
	movesDollars = "workload.request_usd, workload.sim_io_s on power_cold, bulk_load, trickle_mixed"
)

func perQueryDefs() []metricDef {
	defs := make([]metricDef, 0, 22)
	for q := 1; q <= 22; q++ {
		defs = append(defs, metricDef{Name: fmt.Sprintf("tpch.q%02d_ms", q), Unit: "ms", Clock: clockWall, Better: "lower",
			Moves: movesPower, Def: fmt.Sprintf("median wall time of Q%d over the traced passes (0 outside the power workloads)", q)})
	}
	return defs
}

// perLayer comes from the traced phase (decorators, counter diffs, spans) or
// from kernel probes; none is measured from inside the engine.
var perLayer = append(perQueryDefs(), []metricDef{
	// Workload-level figures the issue lists as end-to-end; they are zero or
	// undefined on some workloads, which the driver's end-to-end list forbids.
	// The wall ones come from the untraced half of the traced run.
	{Name: "workload.pass_s", Unit: "s", Clock: clockWall, Better: "lower", Moves: movesPower, Def: "median 22-query pass time, untraced (power_*)"},
	{Name: "workload.query_geomean_ms", Unit: "ms", Clock: clockWall, Better: "lower", Moves: movesPower, Def: "geometric mean of the 22 per-query medians, untraced (power_*)"},
	{Name: "workload.load_rows_per_s", Unit: "rows/s", Clock: clockWall, Better: "higher", Moves: movesLoad, Def: "all-table rows ÷ median load time, untraced (bulk_load)"},
	{Name: "workload.stored_bytes_per_input_byte", Unit: "ratio", Clock: clockCount, Better: "lower", Moves: "workload.sim_io_s on bulk_load", Def: "StoredBytes ÷ input .tbl bytes after a load"},
	{Name: "workload.insert_commit_p50_ms", Unit: "ms", Clock: clockWall, Better: "lower", Moves: movesTrickle, Def: "due time → commit return, median, untraced (trickle_mixed)"},
	{Name: "workload.insert_commit_p99_ms", Unit: "ms", Clock: clockWall, Better: "lower", Moves: movesTail, Def: "due time → commit return, p99, untraced (trickle_mixed)"},
	{Name: "workload.scan_p50_ms", Unit: "ms", Clock: clockWall, Better: "lower", Moves: movesScan, Def: "Q6-shaped delta-merged scan, median, untraced (trickle_mixed)"},
	{Name: "workload.scan_p95_ms", Unit: "ms", Clock: clockWall, Better: "lower", Moves: movesScan, Def: "Q6-shaped delta-merged scan, p95, untraced (trickle_mixed)"},
	{Name: "workload.gen_lag_p99_ms", Unit: "ms", Clock: clockWall, Better: "lower", Moves: "validity of trickle_mixed", Def: "how late the open-loop sender woke relative to its schedule, p99 over sends with no commit in flight"},
	{Name: "workload.sim_io_s", Unit: "s", Clock: clockSim, Better: "lower", Moves: movesDollars, Def: "charged simulated device seconds per unit (store + SSD + log + retry backoff Scales); a sum over concurrent workers, blind to overlap"},
	{Name: "workload.request_usd", Unit: "USD", Clock: clockCount, Better: "lower", Moves: movesDollars, Def: "cloudcost.Default2020().Requests(puts, gets) per unit"},

	{Name: "exec.scan_ns_per_row", Unit: "ns/row", Clock: clockWall, Better: "lower", Moves: movesWarm + "; " + movesScan, Def: "probe: warm 4-column lineitem scan with the Q6 filter"},
	{Name: "exec.filter_ns_per_row", Unit: "ns/row", Clock: clockWall, Better: "lower", Moves: movesWarm, Def: "probe: FilterBatch with the Q6 predicate on a materialized batch"},
	{Name: "exec.project_ns_per_row", Unit: "ns/row", Clock: clockWall, Better: "lower", Moves: movesWarm, Def: "probe: Project of extendedprice*(1-discount)"},
	{Name: "exec.hashagg_ns_per_row", Unit: "ns/row", Clock: clockWall, Better: "lower", Moves: movesWarm, Def: "probe: Q1-shaped HashAgg (2 string keys, 4 aggregates)"},
	{Name: "exec.hashjoin_ns_per_row", Unit: "ns/row", Clock: clockWall, Better: "lower", Moves: movesWarm, Def: "probe: orders ⋈ lineitem on the int order key, per probe row"},
	{Name: "exec.sort_ns_per_row", Unit: "ns/row", Clock: clockWall, Better: "lower", Moves: movesWarm, Def: "probe: Sort on one float key"},
	{Name: "exec.scan_segment_self_ms", Unit: "ms", Clock: clockWall, Better: "lower", Moves: movesPower, Def: "scan.segment span self time per unit (decode + buffer hit path)"},
	{Name: "exec.scan_prefetch_ms", Unit: "ms", Clock: clockWall, Better: "lower", Moves: movesCold, Def: "scan.prefetch span time per unit"},
	{Name: "exec.unattributed_ms", Unit: "ms", Clock: clockWall, Better: "lower", Moves: movesWarm, Def: "client-thread wall per unit not covered by any span: operator work outside scans (join, agg, sort, filter)"},

	{Name: "column.decode_ns_per_value.plain_int", Unit: "ns/value", Clock: clockWall, Better: "lower", Moves: movesWarm, Def: "probe: DecodeSegment"},
	{Name: "column.decode_ns_per_value.bitpacked_int", Unit: "ns/value", Clock: clockWall, Better: "lower", Moves: movesWarm, Def: "probe: DecodeSegment"},
	{Name: "column.decode_ns_per_value.rle_int", Unit: "ns/value", Clock: clockWall, Better: "lower", Moves: movesWarm, Def: "probe: DecodeSegment"},
	{Name: "column.decode_ns_per_value.plain_float", Unit: "ns/value", Clock: clockWall, Better: "lower", Moves: movesWarm, Def: "probe: DecodeSegment"},
	{Name: "column.decode_ns_per_value.plain_string", Unit: "ns/value", Clock: clockWall, Better: "lower", Moves: movesWarm, Def: "probe: DecodeSegment"},
	{Name: "column.decode_ns_per_value.dict_string", Unit: "ns/value", Clock: clockWall, Better: "lower", Moves: movesWarm, Def: "probe: DecodeSegment"},
	{Name: "column.encode_ns_per_value", Unit: "ns/value", Clock: clockWall, Better: "lower", Moves: movesLoad, Def: "probe: EncodeSegment over all 16 columns of one lineitem segment"},
	{Name: "column.encoded_bytes_per_value", Unit: "bytes/value", Clock: clockCount, Better: "lower", Moves: "workload.stored_bytes_per_input_byte", Def: "probe: encoded size of that segment ÷ values"},

	{Name: "table.parse_ns_per_row", Unit: "ns/row", Clock: clockWall, Better: "lower", Moves: movesLoad, Def: "probe: ParseRows on a lineitem .tbl chunk"},
	{Name: "table.loadall_ms", Unit: "ms", Clock: clockWall, Better: "lower", Moves: movesLoad, Def: "median tpch.LoadAll call (bulk_load)"},

	{Name: "buffer.hits", Unit: "count", Clock: clockCount, Better: "higher", Moves: movesCold, Def: "PoolStats diff per unit"},
	{Name: "buffer.misses", Unit: "count", Clock: clockCount, Better: "lower", Moves: movesCold, Def: "PoolStats diff per unit (must be 0 on power_warm)"},
	{Name: "buffer.hit_ratio", Unit: "ratio", Clock: clockCount, Better: "higher", Moves: movesCold, Def: "hits ÷ (hits + misses) (must be 1 on power_warm)"},
	{Name: "buffer.evictions", Unit: "count", Clock: clockCount, Better: "lower", Moves: movesCold, Def: "PoolStats diff per unit"},
	{Name: "buffer.flushes", Unit: "count", Clock: clockCount, Better: "lower", Moves: movesLoad, Def: "PoolStats diff per unit"},
	{Name: "buffer.decompress_ns_per_page", Unit: "ns/page", Clock: clockWall, Better: "lower", Moves: movesCold, Def: "probe: FlateCodec.Decompress of an encoded lineitem column page"},
	{Name: "buffer.compress_ns_per_page", Unit: "ns/page", Clock: clockWall, Better: "lower", Moves: movesLoad, Def: "probe: FlateCodec.Compress of the same page"},
	{Name: "buffer.prefetch_ms", Unit: "ms", Clock: clockWall, Better: "lower", Moves: movesCold, Def: "buffer.prefetch span time per unit"},
	{Name: "buffer.flush_compress_ms", Unit: "ms", Clock: clockWall, Better: "lower", Moves: movesLoad, Def: "flush.compress span time per unit"},
	{Name: "buffer.flush_write_ms", Unit: "ms", Clock: clockWall, Better: "lower", Moves: movesLoad, Def: "flush.write span time per unit"},

	{Name: "ocm.hits", Unit: "count", Clock: clockCount, Better: "higher", Moves: movesDollars, Def: "OCMStats diff per unit"},
	{Name: "ocm.misses", Unit: "count", Clock: clockCount, Better: "lower", Moves: movesDollars, Def: "OCMStats diff per unit"},
	{Name: "ocm.hit_ratio", Unit: "ratio", Clock: clockCount, Better: "higher", Moves: movesDollars, Def: "hits ÷ (hits + misses)"},
	{Name: "ocm.evictions", Unit: "count", Clock: clockCount, Better: "lower", Moves: movesDollars, Def: "OCMStats diff per unit"},
	{Name: "ocm.uploads", Unit: "count", Clock: clockCount, Better: "lower", Moves: movesLoad, Def: "OCMStats diff per unit"},
	{Name: "ocm.ssd_reads", Unit: "count", Clock: clockCount, Better: "lower", Moves: movesCold, Def: "SSD decorator: ReadAt calls per unit"},
	{Name: "ocm.ssd_writes", Unit: "count", Clock: clockCount, Better: "lower", Moves: movesLoad, Def: "SSD decorator: WriteAt calls per unit"},
	{Name: "ocm.ssd_read_bytes", Unit: "bytes", Clock: clockCount, Better: "lower", Moves: movesCold, Def: "SSD decorator"},
	{Name: "ocm.ssd_write_bytes", Unit: "bytes", Clock: clockCount, Better: "lower", Moves: movesLoad, Def: "SSD decorator"},
	{Name: "ocm.ssd_sim_ms", Unit: "ms", Clock: clockSim, Better: "lower", Moves: "workload.sim_io_s", Def: "charged to the SSD's own Scale per unit"},
	{Name: "ocm.ssd_wall_ms", Unit: "ms", Clock: clockWall, Better: "lower", Moves: movesCold, Def: "SSD decorator: host time inside the device per unit"},
	{Name: "ocm.get_ms", Unit: "ms", Clock: clockWall, Better: "lower", Moves: movesCold, Def: "ocm.get span time per unit"},
	{Name: "ocm.flushwait_ms", Unit: "ms", Clock: clockWall, Better: "lower", Moves: movesLoad, Def: "ocm.flushwait span time per unit"},
	{Name: "ocm.upload_queue_ms", Unit: "ms", Clock: clockWall, Better: "lower", Moves: movesLoad, Def: "sum of ocm.upload queue_ns attributes per unit"},

	{Name: "pageio.dbspace_read_calls", Unit: "count", Clock: clockCount, Better: "lower", Moves: movesCold, Def: "Config.IOStats dbspace:user read calls per unit"},
	{Name: "pageio.dbspace_read_items", Unit: "count", Clock: clockCount, Better: "lower", Moves: movesCold, Def: "… read items per unit (items ÷ calls = batching)"},
	{Name: "pageio.dbspace_write_calls", Unit: "count", Clock: clockCount, Better: "lower", Moves: movesLoad, Def: "… write calls per unit"},
	{Name: "pageio.dbspace_write_items", Unit: "count", Clock: clockCount, Better: "lower", Moves: movesLoad, Def: "… write items per unit"},
	{Name: "pageio.errors", Unit: "count", Clock: clockCount, Better: "lower", Moves: "failed operations", Def: "dbspace:user read+write+delete errors per unit"},
	{Name: "pageio.retry_amplification", Unit: "ratio", Clock: clockCount, Better: "lower", Moves: "workload.sim_io_s", Def: "inner (ocm:user) ÷ outer (dbspace:user) meter items; 1 = no retries"},
	{Name: "pageio.retry_backoff_sim_ms", Unit: "ms", Clock: clockSim, Better: "lower", Moves: "workload.sim_io_s", Def: "charged to the engine's retry-backoff Scale per unit"},
	{Name: "pageio.chain_ns_per_page", Unit: "ns/page", Clock: clockWall, Better: "lower", Moves: movesCold, Def: "probe: Meter→Retry→Coalesce→Meter over an in-memory handler, minus the bare handler"},

	{Name: "objstore.gets", Unit: "count", Clock: clockCount, Better: "lower", Moves: movesDollars, Def: "MemStore.Metrics diff per unit (0 in power_warm timed passes)"},
	{Name: "objstore.puts", Unit: "count", Clock: clockCount, Better: "lower", Moves: movesDollars, Def: "MemStore.Metrics diff per unit"},
	{Name: "objstore.deletes", Unit: "count", Clock: clockCount, Better: "lower", Moves: movesDollars, Def: "MemStore.Metrics diff per unit"},
	{Name: "objstore.get_bytes", Unit: "bytes", Clock: clockCount, Better: "lower", Moves: movesDollars, Def: "MemStore.Metrics BytesOut diff per unit"},
	{Name: "objstore.put_bytes", Unit: "bytes", Clock: clockCount, Better: "lower", Moves: movesDollars, Def: "MemStore.Metrics BytesIn diff per unit"},
	{Name: "objstore.get_not_found", Unit: "count", Clock: clockCount, Better: "lower", Moves: "pageio.retry_amplification", Def: "MemStore.Metrics GetMisses diff per unit"},
	{Name: "objstore.errors", Unit: "count", Clock: clockCount, Better: "lower", Moves: "failed operations", Def: "store decorator: calls that returned an error other than not-found, per unit"},
	{Name: "objstore.sim_ms", Unit: "ms", Clock: clockSim, Better: "lower", Moves: "workload.sim_io_s", Def: "charged to the store's own Scale per unit"},
	{Name: "objstore.wall_ms", Unit: "ms", Clock: clockWall, Better: "lower", Moves: movesCold, Def: "store decorator: host time inside the store per unit"},

	{Name: "blockdev.log_writes", Unit: "count", Clock: clockCount, Better: "lower", Moves: movesTrickle, Def: "log-device decorator: WriteAt calls per unit"},
	{Name: "blockdev.log_write_bytes", Unit: "bytes", Clock: clockCount, Better: "lower", Moves: movesTrickle, Def: "log-device decorator"},
	{Name: "blockdev.log_sim_ms", Unit: "ms", Clock: clockSim, Better: "lower", Moves: "workload.sim_io_s on trickle_mixed", Def: "charged to the log device's own Scale per unit"},
	{Name: "blockdev.log_wall_ms", Unit: "ms", Clock: clockWall, Better: "lower", Moves: movesTrickle, Def: "log-device decorator: host time inside the device per unit"},

	{Name: "wal.bytes_per_commit", Unit: "bytes/commit", Clock: clockCount, Better: "lower", Moves: movesTrickle, Def: "log bytes written ÷ commits in the traced phase"},
	{Name: "wal.append_ns_per_record", Unit: "ns/record", Clock: clockWall, Better: "lower", Moves: movesTrickle, Def: "probe: Log.Append of a 4 KiB record on a fresh in-memory device"},

	{Name: "txn.commit_ms", Unit: "ms", Clock: clockWall, Better: "lower", Moves: movesLoad + "; " + movesTrickle, Def: "timed Tx.Commit: median (bulk_load, trickle_mixed)"},
	{Name: "txn.commit_flush_ms", Unit: "ms", Clock: clockWall, Better: "lower", Moves: movesLoad, Def: "commit.flush span time per unit"},
	{Name: "txn.commit_wal_ms", Unit: "ms", Clock: clockWall, Better: "lower", Moves: movesTrickle, Def: "commit.wal span time per unit"},
	{Name: "txn.gc_ms", Unit: "ms", Clock: clockWall, Better: "lower", Moves: "none (after the run)", Def: "one CollectGarbage after the traced phase"},
	{Name: "txn.gc_deleted_objects", Unit: "count", Clock: clockCount, Better: "lower", Moves: "workload.request_usd", Def: "store deletes issued by that CollectGarbage"},

	{Name: "delta.insert_us_per_row", Unit: "us/row", Clock: clockWall, Better: "lower", Moves: movesTrickle, Def: "timed Tx.Insert ÷ rows, median"},
	{Name: "delta.live_rows_max", Unit: "count", Clock: clockCount, Better: "lower", Moves: movesScan, Def: "largest DeltaLiveRows seen before a compaction"},
	{Name: "delta.compact_ms", Unit: "ms", Clock: clockWall, Better: "lower", Moves: movesTail, Def: "median Freeze+Compact cycle"},
	{Name: "delta.compact_us_per_row", Unit: "us/row", Clock: clockWall, Better: "lower", Moves: movesTail, Def: "compaction wall ÷ rows drained"},
	{Name: "delta.compact_cycles", Unit: "count", Clock: clockCount, Better: "higher", Moves: "validity of trickle_mixed", Def: "completed compaction cycles"},
	{Name: "delta.busy_deferrals", Unit: "count", Clock: clockCount, Better: "lower", Moves: movesScan, Def: "cycles deferred with ErrDeltaBusy"},
	{Name: "delta.scan_slowdown", Unit: "ratio", Clock: clockCount, Better: "lower", Moves: movesScan, Def: "scan median ÷ drained-table scan median taken in set-up"},

	{Name: "cloudcost.put_usd", Unit: "USD", Clock: clockCount, Better: "lower", Moves: "workload.request_usd", Def: "Requests(puts, 0) per unit"},
	{Name: "cloudcost.get_usd", Unit: "USD", Clock: clockCount, Better: "lower", Moves: "workload.request_usd", Def: "Requests(0, gets) per unit"},

	{Name: "runtime.alloc_mb_per_op", Unit: "MiB", Clock: clockCount, Better: "lower", Moves: movesWarm + "; heap_live_mb", Def: "MemStats.TotalAlloc diff per unit"},
	{Name: "runtime.mallocs_per_op", Unit: "count", Clock: clockCount, Better: "lower", Moves: movesWarm, Def: "MemStats.Mallocs diff per unit"},
	{Name: "runtime.gc_cycles", Unit: "count", Clock: clockCount, Better: "lower", Moves: movesWarm, Def: "MemStats.NumGC diff over the traced phase"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Clock: clockWall, Better: "lower", Moves: movesTail, Def: "MemStats.PauseTotalNs diff over the traced phase"},

	{Name: "host.kernel_ms", Unit: "ms", Clock: clockWall, Better: "lower", Moves: "none: the host, not the program", Def: "median reference-kernel time during the traced phase (1.33 ms on the quiet host); wall figures behind end-to-end and workload.* metrics are scaled by 1.33 ÷ the sample beside them"},

	{Name: "trace.overhead_pct", Unit: "%", Clock: clockWall, Better: "lower", Moves: "diagnostic (ROADMAP item 4 budget)", Def: "traced ÷ untraced op_p50_ms − 1, same process"},
	{Name: "trace.spans", Unit: "count", Clock: clockCount, Better: "lower", Moves: "trace.overhead_pct", Def: "spans recorded per unit"},
	{Name: "trace.dropped", Unit: "count", Clock: clockCount, Better: "lower", Moves: "diagnostic", Def: "spans evicted from the ring before the benchmark read them"},
	{Name: "trace.attributed_pct", Unit: "%", Clock: clockWall, Better: "higher", Moves: "diagnostic", Def: "share of client-thread wall covered by a span; the rest is exec.unattributed_ms"},
}...)

// metricValue is one measured metric. N is the sample count behind a median
// or percentile (0 for counts and single measurements).
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Clock string  `json:"clock,omitempty"`
	N     int     `json:"n,omitempty"`
}

type metricSet map[string]metricValue

// fill builds a metricSet holding every def, zero where vals has no entry,
// and reports names in vals that no def declares (a programming error).
func fill(defs []metricDef, vals map[string]float64, ns map[string]int) (metricSet, error) {
	out := make(metricSet, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit, Clock: d.Clock, N: ns[d.Name]}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q is not declared", name)
		}
	}
	return out, nil
}

// --- sample statistics ---

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0..100) by linear interpolation;
// 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// iqrShare is the distance between the first and third quartile as a share
// of the median, with the quartiles of Python's statistics.quantiles(n=4)
// (exclusive method) — the spread the driver computes over its runs.
func iqrShare(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := sorted(xs)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*d
	}
	med := median(xs)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
