package main

import (
	"runtime"
	"strconv"
	"strings"

	"cloudiq/internal/cloudcost"
	"cloudiq/internal/pageio"
	"cloudiq/internal/trace"
)

// counters is one reading of every cumulative counter the benchmark can see
// from outside the engine, by name. Everything is a float64 so that a phase
// is one subtraction and totals across envs one addition.
type counters map[string]float64

// snapshotEnv reads the public counters of a traced env: DB.PoolStats,
// DB.OCMStats, MemStore.Metrics, the timing decorators, each device's own
// Scale, the Config.IOStats registry and the Go runtime.
func snapshotEnv(e *env) counters {
	c := counters{}
	pool := e.db.PoolStats()
	c["pool.hits"], c["pool.misses"] = float64(pool.Hits), float64(pool.Misses)
	c["pool.evictions"], c["pool.flushes"] = float64(pool.Evictions), float64(pool.Flushes)
	if st := e.db.OCMStats(); len(st) > 0 {
		c["ocm.hits"], c["ocm.misses"] = float64(st[0].Hits), float64(st[0].Misses)
		c["ocm.evictions"], c["ocm.uploads"] = float64(st[0].Evictions), float64(st[0].Uploads)
	}
	m := e.store.Metrics()
	c["store.gets"], c["store.puts"], c["store.deletes"] = float64(m.Gets()), float64(m.Puts()), float64(m.Deletes())
	c["store.get_bytes"], c["store.put_bytes"] = float64(m.BytesOut()), float64(m.BytesIn())
	c["store.get_not_found"] = float64(m.GetMisses())
	e.tstore.stats.into(c, "tstore")
	e.tssd.stats.into(c, "tssd")
	e.tlog.stats.into(c, "tlog")
	c["sim.store_ns"], c["sim.ssd_ns"] = float64(e.storeScale.Charged()), float64(e.ssdScale.Charged())
	c["sim.log_ns"], c["sim.retry_ns"] = float64(e.logScale.Charged()), float64(e.retryScale.Charged())
	io := e.iostats.Snapshot()
	for prefix, layer := range map[string]pageio.LayerSnapshot{"outer": io["dbspace:"+dbspace], "inner": io["ocm:"+dbspace]} {
		c[prefix+".read_calls"], c[prefix+".read_items"] = float64(layer.Read.Calls), float64(layer.Read.Items)
		c[prefix+".write_calls"], c[prefix+".write_items"] = float64(layer.Write.Calls), float64(layer.Write.Items)
		c[prefix+".items"] = float64(layer.Read.Items + layer.Write.Items + layer.Delete.Items)
		c[prefix+".errors"] = float64(layer.Read.Errors + layer.Write.Errors + layer.Delete.Errors)
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	c["mem.alloc_bytes"], c["mem.mallocs"] = float64(mem.TotalAlloc), float64(mem.Mallocs)
	c["mem.gc_cycles"], c["mem.pause_ns"] = float64(mem.NumGC), float64(mem.PauseTotalNs)
	return c
}

// observer attributes the traced phase to layers from outside the engine:
// snapshot diffs of the public counters, the timing decorators on the
// injectable boundaries, and sums over the spans the engine already emits.
// begin/end bracket the part of an env's life that counts (bulk_load uses a
// fresh env per load, so totals accumulate across envs); drain is called
// after every unit of work so the span ring never wraps unread.
type observer struct {
	units int // passes, loads, or 1 for a whole trickle run

	total counters // summed end − begin differences
	base  counters // the current env's reading at begin

	spanNs       map[string]int64 // span name → summed duration
	spanN        map[string]int64 // span name → spans seen
	spanCount    int64
	spansSeen    uint64 // completed spans of the current env already folded
	segmentSelf  int64  // scan.segment duration minus its children
	uploadQueue  int64  // summed ocm.upload queue_ns
	rootNs       int64  // bench.* root spans: client-thread wall
	attributedNs int64  // part of rootNs covered by child spans or txn.commit roots
	dropped      uint64
}

func newObserver() *observer {
	return &observer{total: counters{}, spanNs: make(map[string]int64), spanN: make(map[string]int64)}
}

// begin records e's counters; e must be a traced env.
func (o *observer) begin(e *env) {
	o.base = snapshotEnv(e)
	// Spans emitted before begin (set-up) are not this phase's.
	spans, dropped := e.tracer.Snapshot()
	o.spansSeen = uint64(len(spans)) + dropped
}

// end adds everything e did since begin.
func (o *observer) end(e *env) {
	o.drain(e)
	for name, now := range snapshotEnv(e) {
		o.total[name] += now - o.base[name]
	}
}

// drain folds the spans completed since the last drain into the sums.
func (o *observer) drain(e *env) {
	spans, dropped := e.tracer.Snapshot()
	total := uint64(len(spans)) + dropped
	fresh := total - o.spansSeen
	o.spansSeen = total
	if fresh > uint64(len(spans)) {
		o.dropped += fresh - uint64(len(spans))
		fresh = uint64(len(spans))
	}
	o.fold(spans[uint64(len(spans))-fresh:])
}

func (o *observer) fold(spans []trace.SpanData) {
	roots := make(map[uint64]bool)
	childNs := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			childNs[s.Parent] += int64(s.Dur)
		} else if strings.HasPrefix(s.Name, "bench.") {
			roots[s.ID] = true
		}
	}
	for _, s := range spans {
		o.spanCount++
		o.spanNs[s.Name] += int64(s.Dur)
		o.spanN[s.Name]++
		switch {
		case roots[s.ID]:
			o.rootNs += int64(s.Dur)
			o.attributedNs += min(childNs[s.ID], int64(s.Dur))
		case s.Name == "txn.commit" && s.Parent == 0:
			// Commit opens its own root on the calling thread.
			o.attributedNs += int64(s.Dur)
		case s.Name == "scan.segment":
			o.segmentSelf += max(int64(s.Dur)-childNs[s.ID], 0)
		case s.Name == "ocm.upload":
			for _, a := range s.Attrs {
				if a.Key == "queue_ns" {
					if v, err := strconv.ParseInt(a.Value, 10, 64); err == nil {
						o.uploadQueue += v
					}
				}
			}
		}
	}
}

// metrics renders the accumulated observations, per unit of work.
func (o *observer) metrics() map[string]float64 {
	u := float64(max(o.units, 1))
	t := o.total
	per := func(counter string) float64 { return t[counter] / u }
	perMs := func(ns float64) float64 { return ns / 1e6 / u }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	prices := cloudcost.Default2020()
	puts, gets := int64(t["store.puts"]), int64(t["store.gets"])
	attributed := min(o.attributedNs, o.rootNs)
	return map[string]float64{
		"workload.sim_io_s":    (t["sim.store_ns"] + t["sim.ssd_ns"] + t["sim.log_ns"] + t["sim.retry_ns"]) / 1e9 / u,
		"workload.request_usd": prices.Requests(puts, gets) / u,

		"exec.scan_segment_self_ms": perMs(float64(o.segmentSelf)),
		"exec.scan_prefetch_ms":     perMs(float64(o.spanNs["scan.prefetch"])),
		"exec.unattributed_ms":      perMs(float64(o.rootNs - attributed)),

		"buffer.hits":              per("pool.hits"),
		"buffer.misses":            per("pool.misses"),
		"buffer.hit_ratio":         ratio(t["pool.hits"], t["pool.hits"]+t["pool.misses"]),
		"buffer.evictions":         per("pool.evictions"),
		"buffer.flushes":           per("pool.flushes"),
		"buffer.prefetch_ms":       perMs(float64(o.spanNs["buffer.prefetch"])),
		"buffer.flush_compress_ms": perMs(float64(o.spanNs["flush.compress"])),
		"buffer.flush_write_ms":    perMs(float64(o.spanNs["flush.write"])),

		"ocm.hits":            per("ocm.hits"),
		"ocm.misses":          per("ocm.misses"),
		"ocm.hit_ratio":       ratio(t["ocm.hits"], t["ocm.hits"]+t["ocm.misses"]),
		"ocm.evictions":       per("ocm.evictions"),
		"ocm.uploads":         per("ocm.uploads"),
		"ocm.ssd_reads":       per("tssd.reads"),
		"ocm.ssd_writes":      per("tssd.writes"),
		"ocm.ssd_read_bytes":  per("tssd.read_bytes"),
		"ocm.ssd_write_bytes": per("tssd.write_bytes"),
		"ocm.ssd_sim_ms":      perMs(t["sim.ssd_ns"]),
		"ocm.ssd_wall_ms":     perMs(t["tssd.wall_ns"]),
		"ocm.get_ms":          perMs(float64(o.spanNs["ocm.get"])),
		"ocm.flushwait_ms":    perMs(float64(o.spanNs["ocm.flushwait"])),
		"ocm.upload_queue_ms": perMs(float64(o.uploadQueue)),

		"pageio.dbspace_read_calls":   per("outer.read_calls"),
		"pageio.dbspace_read_items":   per("outer.read_items"),
		"pageio.dbspace_write_calls":  per("outer.write_calls"),
		"pageio.dbspace_write_items":  per("outer.write_items"),
		"pageio.errors":               per("outer.errors"),
		"pageio.retry_amplification":  ratio(t["inner.items"], t["outer.items"]),
		"pageio.retry_backoff_sim_ms": perMs(t["sim.retry_ns"]),

		"objstore.gets":          per("store.gets"),
		"objstore.puts":          per("store.puts"),
		"objstore.deletes":       per("store.deletes"),
		"objstore.get_bytes":     per("store.get_bytes"),
		"objstore.put_bytes":     per("store.put_bytes"),
		"objstore.get_not_found": per("store.get_not_found"),
		"objstore.errors":        per("tstore.errs"),
		"objstore.sim_ms":        perMs(t["sim.store_ns"]),
		"objstore.wall_ms":       perMs(t["tstore.wall_ns"]),

		"blockdev.log_writes":      per("tlog.writes"),
		"blockdev.log_write_bytes": per("tlog.write_bytes"),
		"blockdev.log_sim_ms":      perMs(t["sim.log_ns"]),
		"blockdev.log_wall_ms":     perMs(t["tlog.wall_ns"]),

		// Every commit opens one txn.commit root, so its count is the commits.
		"wal.bytes_per_commit": ratio(t["tlog.write_bytes"], float64(o.spanN["txn.commit"])),

		"txn.commit_flush_ms": perMs(float64(o.spanNs["commit.flush"])),
		"txn.commit_wal_ms":   perMs(float64(o.spanNs["commit.wal"])),

		"cloudcost.put_usd": prices.Requests(puts, 0) / u,
		"cloudcost.get_usd": prices.Requests(0, gets) / u,

		"runtime.alloc_mb_per_op": per("mem.alloc_bytes") / (1 << 20),
		"runtime.mallocs_per_op":  per("mem.mallocs"),
		"runtime.gc_cycles":       t["mem.gc_cycles"],
		"runtime.gc_pause_ms":     t["mem.pause_ns"] / 1e6,

		"trace.spans":          float64(o.spanCount) / u,
		"trace.dropped":        float64(o.dropped),
		"trace.attributed_pct": 100 * ratio(float64(attributed), float64(o.rootNs)),
	}
}
