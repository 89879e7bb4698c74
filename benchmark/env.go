package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"cloudiq"
	"cloudiq/internal/blockdev"
	"cloudiq/internal/iomodel"
	"cloudiq/internal/objstore"
	"cloudiq/internal/pageio"
	"cloudiq/internal/trace"
	"cloudiq/tpch"
)

// The fixed environment. It is recorded in every results file and compare
// refuses to put two runs side by side when any of it differs.
const (
	maxProcs        = 2 // nproc on the benchmark host
	filesPerTable   = 4
	segRows         = 512
	loadParallel    = 2
	prefetchWorkers = 8

	// sfFull sizes a run so that set-up plus the timed window of each of
	// the driver's ~90 runs fits its total budget: 120 k lineitem rows,
	// 20 MB of input, ≈4.6 MiB stored. sfSmoke is the go-test scale.
	sfFull  = 0.02
	sfSmoke = 0.002

	// warmCacheBytes holds every decompressed page; warmSSDBytes holds
	// every stored object.
	warmCacheBytes = 1 << 30
	warmSSDBytes   = 64 << 20
	// trickle_mixed caches the table many times over but not without bound:
	// every compaction publishes a new table version and the pool keeps the
	// superseded pages until LRU evicts them, so under warmCacheBytes the
	// heap grows by the table's size each cycle and the insert tail measures
	// the Go collector walking a gigabyte, not the engine.
	trickleCacheBytes = 128 << 20
	// power_cold: buffer ≈1/6 of the stored data and an OCM SSD smaller
	// than it, tuned once so that ocm.hit_ratio lands between 0.2 and 0.8
	// (LRU over a cyclic scan collapses to ≈0 not far below this) and then
	// frozen. Both scale with the scale factor in smoke mode.
	coldCacheBytesFull = 768 << 10
	coldSSDBytesFull   = 8 << 20

	dbspace     = "user"
	inputPrefix = "tpch/"
)

// Device constants, copied from internal/bench/profiles.go (2020-era S3,
// local NVMe) plus a log device at EBS latency. Transfer rates are the real
// ones: nothing is slept, so there is no need to scale bandwidth down.
const (
	s3ReadLatency  = 15 * time.Millisecond
	s3WriteLatency = 25 * time.Millisecond
	s3PerReqRate   = 85e6
	s3PrefixRate   = 3500
	s3Jitter       = 0.2

	ssdLatency = 80 * time.Microsecond
	ssdPerOp   = 20 * time.Microsecond
	ssdRate    = 1.5e9
	ssdJitter  = 0.1

	logLatency = 500 * time.Microsecond
	logJitter  = 0.2
)

// envInfo is the environment block of a results file.
type envInfo struct {
	SF              float64 `json:"sf"`
	FilesPerTable   int     `json:"files_per_table"`
	SegRows         int     `json:"seg_rows"`
	LoadParallel    int     `json:"load_parallel"`
	PrefetchWorkers int     `json:"prefetch_workers"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	Compress        bool    `json:"compress"`
	IOModelFactor   float64 `json:"iomodel_factor"`
	WarmCacheBytes  int64   `json:"warm_cache_bytes"`
	WarmSSDBytes    int64   `json:"warm_ssd_bytes"`
	TrickleCache    int64   `json:"trickle_cache_bytes"`
	ColdCacheBytes  int64   `json:"cold_cache_bytes"`
	ColdSSDBytes    int64   `json:"cold_ssd_bytes"`
	S3ReadMs        float64 `json:"s3_read_ms"`
	S3WriteMs       float64 `json:"s3_write_ms"`
	S3BytesPerSec   float64 `json:"s3_bytes_per_s"`
	S3PrefixRate    float64 `json:"s3_prefix_rate"`
	SSDLatencyUs    float64 `json:"ssd_latency_us"`
	SSDPerOpUs      float64 `json:"ssd_per_op_us"`
	SSDBytesPerSec  float64 `json:"ssd_bytes_per_s"`
	LogLatencyUs    float64 `json:"log_latency_us"`
	TricklePeriodMs float64 `json:"trickle_period_ms"`
	TrickleBatch    int     `json:"trickle_batch_rows"`
	CompactEveryMs  float64 `json:"compact_every_ms"`
	RunSeconds      int     `json:"run_seconds"`
	GoVersion       string  `json:"go_version"`
}

func coldSizes(sf float64) (cache, ssd int64) {
	scale := sf / sfFull
	cache = max(int64(float64(coldCacheBytesFull)*scale), 128<<10)
	ssd = max(int64(float64(coldSSDBytesFull)*scale), 512<<10)
	return cache, ssd
}

func describeEnv(sf float64, seconds int) envInfo {
	cc, cs := coldSizes(sf)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return envInfo{
		SF: sf, FilesPerTable: filesPerTable, SegRows: segRows, LoadParallel: loadParallel,
		PrefetchWorkers: prefetchWorkers, GOMAXPROCS: maxProcs, Compress: true, IOModelFactor: 0,
		WarmCacheBytes: warmCacheBytes, WarmSSDBytes: warmSSDBytes, TrickleCache: trickleCacheBytes, ColdCacheBytes: cc, ColdSSDBytes: cs,
		S3ReadMs: ms(s3ReadLatency), S3WriteMs: ms(s3WriteLatency), S3BytesPerSec: s3PerReqRate, S3PrefixRate: s3PrefixRate,
		SSDLatencyUs: us(ssdLatency), SSDPerOpUs: us(ssdPerOp), SSDBytesPerSec: ssdRate, LogLatencyUs: us(logLatency),
		TricklePeriodMs: ms(tricklePeriod), TrickleBatch: trickleBatchRows, CompactEveryMs: ms(compactEvery),
		RunSeconds: seconds, GoVersion: runtime.Version(),
	}
}

// dataset is the TPC-H input, generated once per process into an in-memory
// bucket. It does not depend on the seed.
type dataset struct {
	sf     float64
	input  *objstore.MemStore
	gen    tpch.GenStats
	rows   int64 // all tables
	genDur time.Duration
}

func generate(ctx context.Context, sf float64) (*dataset, error) {
	start := time.Now()
	input := objstore.NewMem(objstore.Config{})
	gen, err := tpch.Generate(ctx, input, inputPrefix, sf, filesPerTable)
	if err != nil {
		return nil, fmt.Errorf("dbgen: %w", err)
	}
	ds := &dataset{sf: sf, input: input, gen: gen, genDur: time.Since(start)}
	for _, n := range gen.Rows {
		ds.rows += n
	}
	return ds, nil
}

// envSpec is what varies between environments.
type envSpec struct {
	cacheBytes int64
	ssdBytes   int64
	seed       int64 // device jitter streams
	traced     bool  // wrap the injectable boundaries and pass IOStats + Trace
}

// env is one database over its own simulated substrate. Every device has its
// own Scale at factor 0: nothing sleeps, and charged time is attributable per
// device.
type env struct {
	db     *cloudiq.Database
	store  *objstore.MemStore
	ssd    *blockdev.MemDevice
	logDev *blockdev.MemDevice

	storeScale, ssdScale, logScale, retryScale *iomodel.Scale

	// Set only in a traced env.
	tstore  *timedStore
	tssd    *timedDevice
	tlog    *timedDevice
	iostats *pageio.StatsRegistry
	tracer  *trace.Tracer
}

// traceCapacity bounds the span ring; the observer drains it after every unit
// of work, and a cold pass emits a few tens of thousands of spans.
const traceCapacity = 1 << 17

func newEnv(ctx context.Context, spec envSpec) (*env, error) {
	e := &env{
		storeScale: iomodel.NewScale(0), ssdScale: iomodel.NewScale(0),
		logScale: iomodel.NewScale(0), retryScale: iomodel.NewScale(0),
	}
	e.store = objstore.NewMem(objstore.Config{
		ReadLatency:  iomodel.Latency{Base: s3ReadLatency, BytesPerSec: s3PerReqRate, Jitter: s3Jitter},
		WriteLatency: iomodel.Latency{Base: s3WriteLatency, BytesPerSec: s3PerReqRate, Jitter: s3Jitter},
		PrefixRate:   s3PrefixRate,
		Scale:        e.storeScale,
		Seed:         spec.seed,
	})
	e.ssd = blockdev.NewMem(blockdev.Config{
		Capacity:     spec.ssdBytes,
		ReadLatency:  iomodel.Latency{Base: ssdLatency, Jitter: ssdJitter},
		WriteLatency: iomodel.Latency{Base: ssdLatency, Jitter: ssdJitter},
		Queue:        iomodel.NewResource(e.ssdScale, ssdPerOp, ssdRate),
		Scale:        e.ssdScale,
		Seed:         spec.seed + 1,
	})
	e.logDev = blockdev.NewMem(blockdev.Config{
		Growable:     true,
		ReadLatency:  iomodel.Latency{Base: logLatency, Jitter: logJitter},
		WriteLatency: iomodel.Latency{Base: logLatency, Jitter: logJitter},
		Scale:        e.logScale,
		Seed:         spec.seed + 2,
	})
	var (
		store objstore.Store  = e.store
		ssd   blockdev.Device = e.ssd
		logd  blockdev.Device = e.logDev
	)
	cfg := cloudiq.Config{
		CacheBytes:      spec.cacheBytes,
		PrefetchWorkers: prefetchWorkers,
		Compress:        true,
		Scale:           e.retryScale,
	}
	if spec.traced {
		e.tstore = &timedStore{inner: e.store, now: time.Now}
		e.tssd = &timedDevice{inner: e.ssd, now: time.Now}
		e.tlog = &timedDevice{inner: e.logDev, now: time.Now}
		store, ssd, logd = e.tstore, e.tssd, e.tlog
		e.iostats = pageio.NewRegistry()
		start := time.Now()
		e.tracer = trace.New(trace.Config{Capacity: traceCapacity})
		e.tracer.SetClock(func() time.Duration { return time.Since(start) })
		cfg.IOStats, cfg.Trace = e.iostats, e.tracer
	}
	cfg.LogDevice = logd
	db, err := cloudiq.Open(ctx, cfg)
	if err != nil {
		return nil, err
	}
	if err := db.AttachCloudDbspace(dbspace, store, cloudiq.CloudOptions{CacheDevice: ssd}); err != nil {
		return nil, err
	}
	e.db = db
	return e, nil
}

func (e *env) close() error { return e.db.Close() }

// simCharged is the total simulated time charged so far across the env's
// devices and the engine's retry backoff.
func (e *env) simCharged() time.Duration {
	return e.storeScale.Charged() + e.ssdScale.Charged() + e.logScale.Charged() + e.retryScale.Charged()
}

// loadTimes splits one full load.
type loadTimes struct {
	loadAll, commit, waitIO, total time.Duration
	rows                           int64
}

// load runs tpch.LoadAll + Commit + WaitIO.
func (e *env) load(ctx context.Context, ds *dataset) (loadTimes, error) {
	var lt loadTimes
	t0 := time.Now()
	tx := e.db.Begin()
	rows, err := tpch.LoadAll(ctx, tx, dbspace, ds.input, inputPrefix, ds.sf, loadParallel, segRows)
	if err != nil {
		return lt, err
	}
	t1 := time.Now()
	if err := tx.Commit(ctx); err != nil {
		return lt, fmt.Errorf("commit load: %w", err)
	}
	t2 := time.Now()
	e.db.WaitIO()
	t3 := time.Now()
	return loadTimes{loadAll: t1.Sub(t0), commit: t2.Sub(t1), waitIO: t3.Sub(t2), total: t3.Sub(t0), rows: rows}, nil
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
