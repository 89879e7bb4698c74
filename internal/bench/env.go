package bench

import (
	"context"
	"fmt"
	"time"

	"cloudiq"
	"cloudiq/internal/iomodel"
	"cloudiq/internal/pageio"
	"cloudiq/internal/rfrb"
	"cloudiq/internal/trace"
	"cloudiq/tpch"
)

// Options configures one experiment environment. The JSON form is what a
// Report records: the knobs a caller chooses for a whole run. Instance,
// Volume, OCM, CacheBytes and SkipLoad are what each experiment sets for
// itself, so the report leaves them out.
type Options struct {
	// SF is the TPC-H scale factor. Zero selects 0.01.
	SF float64 `json:"sf"`
	// TimeScale maps simulated seconds to real seconds (0.05 = a simulated
	// second costs 50 ms of wall time). Zero selects 0.05.
	TimeScale float64 `json:"timescale"`
	// BandwidthScale scales transfer-rate constants so that the dataset-to-
	// bandwidth and per-page transfer-to-latency ratios stay in the paper's
	// regime despite the small scale factor. Zero selects 0.01.
	BandwidthScale float64 `json:"bandwidth_scale"`
	// Instance selects the compute profile. Zero value selects m5ad.24xlarge.
	Instance Instance `json:"-"`
	// Volume selects the user dbspace substrate: "s3", "ebs" or "efs".
	Volume string `json:"-"`
	// OCM enables the Object Cache Manager (cloud dbspaces only).
	OCM bool `json:"-"`
	// SegRows is the table segment size. Zero selects 512.
	SegRows int `json:"seg_rows"`
	// FilesPerTable is the input-file fan-out. Zero selects 8.
	FilesPerTable int `json:"files_per_table"`
	// Seed perturbs the latency jitter streams.
	Seed int64 `json:"seed"`
	// CacheBytes overrides the buffer-manager budget (normally sized from
	// the instance profile). The pushdown experiment uses a deliberately
	// small cache so scans run in the cache-miss regime the paper's S3
	// numbers live in.
	CacheBytes int64 `json:"-"`
	// SkipLoad builds the environment without loading (the bandwidth
	// experiment drives the load itself).
	SkipLoad bool `json:"-"`
	// IOStats, when non-nil, collects the engine's per-layer pageio
	// counters. Experiment.Report hands every run a fresh registry here and
	// publishes its snapshot as the entry's "layers".
	IOStats *pageio.StatsRegistry `json:"-"`
	// Trace, when non-nil, collects structured spans from the whole engine
	// stack, timestamped on the environment's simulated clock (iqbench
	// -trace plumbs it here).
	Trace *trace.Tracer `json:"-"`
}

// Short is the reduced scale `iqbench -short` and the smoke tests run at.
var Short = Options{SF: 0.002, TimeScale: 0.01}

func (o Options) withDefaults() Options {
	if o.SF == 0 {
		o.SF = 0.01
	}
	if o.TimeScale == 0 {
		o.TimeScale = 0.05
	}
	if o.BandwidthScale == 0 {
		o.BandwidthScale = 0.01
	}
	if o.Instance.Name == "" {
		o.Instance = M5ad24xl
	}
	if o.Volume == "" {
		o.Volume = "s3"
	}
	if o.SegRows == 0 {
		o.SegRows = 512
	}
	if o.FilesPerTable == 0 {
		o.FilesPerTable = 8
	}
	return o
}

// estDataBytes estimates the compressed dataset size (for cache sizing).
func estDataBytes(sf float64) int64 {
	b := int64(sf * 350e6)
	if b < 4<<20 {
		b = 4 << 20
	}
	return b
}

// Env is a ready-to-query experiment environment.
type Env struct {
	Opts  Options
	Scale *iomodel.Scale
	Net   *iomodel.Resource
	DB    *cloudiq.Database
	Input *cloudiq.MemObjectStore
	// Store is the user-data object store ("s3" volume only).
	Store *cloudiq.MemObjectStore
	// LogDev is the system dbspace (shared with reader nodes in scale-out).
	LogDev *cloudiq.MemBlockDevice
	Gen    tpch.GenStats
	// LoadSim is the simulated load time in seconds (0 until Load runs).
	LoadSim float64

	conn *tpch.Conn
}

// SimSeconds converts a wall-clock duration to simulated seconds.
func (e *Env) SimSeconds(d time.Duration) float64 {
	return d.Seconds() / e.Opts.TimeScale
}

// Setup builds the environment: generates the dataset into an S3-like input
// bucket, opens a database over the selected volume, and (unless SkipLoad)
// loads and opens a query connection.
func Setup(ctx context.Context, opts Options) (*Env, error) {
	opts = opts.withDefaults()
	e := &Env{Opts: opts, Scale: iomodel.NewScale(opts.TimeScale)}
	// Span timestamps read the simulated clock, so trace durations line up
	// with the experiment's simulated seconds, not wall time.
	opts.Trace.SetClock(e.Scale.Charged)
	e.Net = netResource(e.Scale, opts.Instance, opts.BandwidthScale)

	// Input files live on S3 and are read over the instance NIC, so loads
	// share bandwidth between input reads and dbspace writes (§6, fn. 3).
	e.Input = newS3(e.Scale, opts.Seed+1)
	// Generate without charging simulated time for dataset preparation.
	e.Scale.Set(0)
	gen, err := tpch.Generate(ctx, e.Input, "tpch/", opts.SF, opts.FilesPerTable)
	if err != nil {
		return nil, err
	}
	e.Scale.Set(opts.TimeScale)
	e.Gen = gen

	est := estDataBytes(opts.SF)
	cache := int64(float64(est) * opts.Instance.CacheFrac)
	if cache < 2<<20 {
		cache = 2 << 20
	}
	if opts.CacheBytes > 0 {
		cache = opts.CacheBytes
	}
	e.LogDev = cloudiq.NewMemBlockDevice(cloudiq.BlockDeviceConfig{Growable: true})
	db, err := cloudiq.Open(ctx, cloudiq.Config{
		LogDevice:       e.LogDev,
		CacheBytes:      cache,
		PrefetchWorkers: opts.Instance.CPUs,
		Compress:        true,
		Scale:           e.Scale,
		IOStats:         opts.IOStats,
		Trace:           opts.Trace,
	})
	if err != nil {
		return nil, err
	}
	e.DB = db

	switch opts.Volume {
	case "s3":
		e.Store = newS3(e.Scale, opts.Seed)
		copts := cloudiq.CloudOptions{}
		if opts.OCM {
			ssdBytes := int64(float64(est) * opts.Instance.SSDFrac)
			if ssdBytes < 4<<20 {
				ssdBytes = 4 << 20
			}
			copts.CacheDevice = newSSD(e.Scale, opts.BandwidthScale, ssdBytes, opts.Seed+2)
		}
		if err := db.AttachCloudDbspace("user", &nodeStore{inner: e.Store, nic: e.Net}, copts); err != nil {
			return nil, err
		}
	case "ebs":
		dev := newEBS(e.Scale, opts.BandwidthScale, est*6, opts.Seed)
		if err := db.AttachBlockDbspace("user", dev, 8192); err != nil {
			return nil, err
		}
	case "efs":
		dev := newEFS(e.Scale, e.Net, opts.BandwidthScale, est*6, opts.Seed)
		if err := db.AttachBlockDbspace("user", dev, 8192); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("bench: unknown volume %q", opts.Volume)
	}

	if !opts.SkipLoad {
		if err := e.Load(ctx); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Load runs the TPC-H load (timed in simulated seconds) and opens the query
// connection.
func (e *Env) Load(ctx context.Context) error {
	ctx, sp := trace.Root(ctx, e.Opts.Trace, "bench.load")
	defer sp.End()
	start := time.Now()
	tx := e.DB.Begin()
	input := &nodeStore{inner: e.Input, nic: e.Net}
	if _, err := tpch.LoadAll(ctx, tx, "user", input, "tpch/", e.Opts.SF, e.Opts.Instance.CPUs, e.Opts.SegRows); err != nil {
		return err
	}
	if err := tx.Commit(ctx); err != nil {
		return err
	}
	e.DB.WaitIO()
	e.LoadSim = e.SimSeconds(time.Since(start))

	reader := e.DB.Begin()
	conn, err := tpch.OpenConn(ctx, reader, "user")
	if err != nil {
		return err
	}
	e.conn = conn
	return nil
}

// Conn returns the query connection (valid after Load).
func (e *Env) Conn() *tpch.Conn { return e.conn }

// Power runs Q1–Q22 sequentially and returns per-query simulated seconds.
func (e *Env) Power(ctx context.Context) ([22]float64, error) {
	var out [22]float64
	ctx, sp := trace.Root(ctx, e.Opts.Trace, "bench.power")
	defer sp.End()
	results, err := tpch.PowerRun(ctx, e.conn)
	if err != nil {
		return out, err
	}
	for _, r := range results {
		out[r.Query-1] = e.SimSeconds(r.Elapsed)
	}
	return out, nil
}

// Close releases the environment.
func (e *Env) Close() error {
	// Disable simulated sleeping so teardown (OCM drain) is instant.
	e.Scale.Set(0)
	return e.DB.Close()
}

// OpenReader opens a secondary (reader) node over this environment's object
// store, the recipe the scale-out and mixed-fleet experiments share: its own
// copy of the system dbspace, its own NIC, a small buffer pool and no key
// allocation. The caller closes the returned database.
func (e *Env) OpenReader(ctx context.Context, name string) (*cloudiq.Database, *tpch.Conn, error) {
	logCopy, err := copyDevice(ctx, e.LogDev)
	if err != nil {
		return nil, nil, err
	}
	// Reader NICs are scaled down further so the experiments run in the
	// network-bound regime the paper's scale-out depends on (aggregate S3
	// throughput growing with node count).
	nic := netResource(e.Scale, M5ad4xl, e.Opts.BandwidthScale/5)
	// Reader caches follow the paper's RAM-to-data ratio at SF 1000
	// (m5ad.4xlarge holds only a small slice of the dataset), which keeps
	// the streams object-store-bound.
	cache := int64(float64(estDataBytes(e.Opts.SF)) * 0.02)
	if cache < 256<<10 {
		cache = 256 << 10
	}
	db, err := cloudiq.Open(ctx, cloudiq.Config{
		LogDevice:       logCopy,
		CacheBytes:      cache,
		PrefetchWorkers: M5ad4xl.CPUs,
		Compress:        true,
		Scale:           e.Scale,
		IOStats:         e.Opts.IOStats,
		Node:            name,
		AllocKeys: func(ctx context.Context, n uint64) (rfrb.Range, error) {
			return rfrb.Range{}, fmt.Errorf("bench: reader nodes do not allocate keys")
		},
	})
	if err != nil {
		return nil, nil, err
	}
	if err := db.AttachCloudDbspace("user", &nodeStore{inner: e.Store, nic: nic}, cloudiq.CloudOptions{}); err != nil {
		_ = db.Close()
		return nil, nil, err
	}
	if err := db.RecoverAsReader(ctx); err != nil {
		_ = db.Close()
		return nil, nil, err
	}
	conn, err := tpch.OpenConn(ctx, db.Begin(), "user")
	if err != nil {
		_ = db.Close()
		return nil, nil, err
	}
	return db, conn, nil
}

// copyDevice clones a device image — used to hand reader nodes their own
// copy of the shared system dbspace.
func copyDevice(ctx context.Context, src *cloudiq.MemBlockDevice) (*cloudiq.MemBlockDevice, error) {
	size := src.Size()
	buf := make([]byte, size)
	//lint:ignore pageioonly whole-image device clone, not engine page I/O
	if err := src.ReadAt(ctx, buf, 0); err != nil {
		return nil, err
	}
	dst := cloudiq.NewMemBlockDevice(cloudiq.BlockDeviceConfig{Growable: true})
	if size > 0 {
		//lint:ignore pageioonly whole-image device clone, not engine page I/O
		if err := dst.WriteAt(ctx, buf, 0); err != nil {
			return nil, err
		}
	}
	return dst, nil
}
