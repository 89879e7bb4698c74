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
	// stack, timestamped on the environment's charged simulated time
	// (iqbench -trace plumbs it here).
	Trace *trace.Tracer `json:"-"`
}

// bandwidthScale scales transfer rates (instance NICs, the OCM's SSD and,
// through deviceScale, the EBS/EFS aggregates) so that the dataset-to-
// bandwidth and per-page transfer-to-latency ratios stay in the paper's
// regime despite the small scale factor.
const bandwidthScale = 0.01

// Short is the reduced scale `iqbench -short` and the smoke tests run at.
var Short = Options{SF: 0.002}

func (o Options) withDefaults() Options {
	if o.SF == 0 {
		o.SF = 0.01
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

// Env is a ready-to-query experiment environment. Its simulated seconds are
// read off the modelled-I/O clock of the activity on the context its
// callers pass (iomodel): Setup starts one, and the caller keeps using the
// context Setup returns, so every phase on the environment — load, queries,
// reader nodes — is on one timeline with its devices' queues.
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
	// netMeter buckets the NIC's traffic by simulated time (Figure 8).
	netMeter *netMeter
	// open opens the node over LogDev with the user dbspace attached.
	open func(ctx context.Context) (*cloudiq.Database, error)

	conn *tpch.Conn
}

// since is the simulated seconds ctx's activity spent after start.
func since(ctx context.Context, start time.Duration) float64 {
	return (iomodel.Now(ctx) - start).Seconds()
}

// Setup builds the environment: generates the dataset into an S3-like input
// bucket, opens a database over the selected volume, and (unless SkipLoad)
// loads and opens a query connection. The returned context carries the
// experiment's activity; pass it to every later call on the environment.
func Setup(ctx context.Context, opts Options) (*Env, context.Context, error) {
	opts = opts.withDefaults()
	ctx = iomodel.Start(ctx)
	e := &Env{Opts: opts, Scale: iomodel.NewScale(0), netMeter: &netMeter{rate: opts.Instance.NetBytesPerSec * bandwidthScale}}
	// Span timestamps read the charged simulated time, so trace durations
	// are simulated seconds, not wall time.
	opts.Trace.SetClock(e.Scale.Charged)
	e.Net = netResource(e.Scale, opts.Instance, bandwidthScale)

	// Input files live on S3 and are read over the instance NIC, so loads
	// share bandwidth between input reads and dbspace writes (§6, fn. 3).
	// Generating them takes simulated time too; Load times itself.
	e.Input = newS3(e.Scale, opts.Seed+1)
	gen, err := tpch.Generate(ctx, e.Input, "tpch/", opts.SF, opts.FilesPerTable)
	if err != nil {
		return nil, nil, err
	}
	e.Gen = gen

	est := estDataBytes(opts.SF)
	cache := int64(float64(est) * opts.Instance.CacheFrac)
	if cache < 2<<20 {
		cache = 2 << 20
	}
	if opts.CacheBytes > 0 {
		cache = opts.CacheBytes
	}
	// The system dbspace (the transaction log) is on EBS, as in the paper,
	// so a commit costs a log write in simulated time.
	e.LogDev = cloudiq.NewMemBlockDevice(cloudiq.BlockDeviceConfig{
		Growable:     true,
		ReadLatency:  iomodel.Latency{Base: ebsLatency, Jitter: 0.2},
		WriteLatency: iomodel.Latency{Base: ebsLatency, Jitter: 0.2},
		Scale:        e.Scale,
		Seed:         opts.Seed + 3,
	})
	var attach func(db *cloudiq.Database) error
	switch opts.Volume {
	case "s3":
		e.Store = newS3(e.Scale, opts.Seed)
		store := &nodeStore{inner: e.Store, nic: e.Net, meter: e.netMeter}
		copts := cloudiq.CloudOptions{}
		if opts.OCM {
			ssdBytes := int64(float64(est) * opts.Instance.SSDFrac)
			if ssdBytes < 4<<20 {
				ssdBytes = 4 << 20
			}
			copts.CacheDevice = newSSD(e.Scale, bandwidthScale, ssdBytes, opts.Seed+2)
		}
		attach = func(db *cloudiq.Database) error { return db.AttachCloudDbspace("user", store, copts) }
	case "ebs":
		dev := newEBS(e.Scale, bandwidthScale, est*6, opts.Seed)
		attach = func(db *cloudiq.Database) error { return db.AttachBlockDbspace("user", dev, 8192) }
	case "efs":
		dev := newEFS(e.Scale, e.Net, bandwidthScale, est*6, opts.Seed)
		attach = func(db *cloudiq.Database) error { return db.AttachBlockDbspace("user", dev, 8192) }
	default:
		return nil, nil, fmt.Errorf("bench: unknown volume %q", opts.Volume)
	}
	e.open = func(ctx context.Context) (*cloudiq.Database, error) {
		db, err := cloudiq.Open(ctx, cloudiq.Config{
			LogDevice:       e.LogDev,
			CacheBytes:      cache,
			PrefetchWorkers: opts.Instance.CPUs,
			IOStats:         opts.IOStats,
			Trace:           opts.Trace,
		})
		if err != nil {
			return nil, err
		}
		if err := attach(db); err != nil {
			_ = db.Close()
			return nil, err
		}
		return db, nil
	}
	if e.DB, err = e.open(ctx); err != nil {
		return nil, nil, err
	}

	if !opts.SkipLoad {
		if err := e.Load(ctx); err != nil {
			return nil, nil, err
		}
	}
	return e, ctx, nil
}

// Load runs the TPC-H load (timed in simulated seconds) and opens the query
// connection.
func (e *Env) Load(ctx context.Context) error {
	ctx, sp := trace.Root(ctx, e.Opts.Trace, "bench.load")
	defer sp.End()
	start := iomodel.Now(ctx)
	tx := e.DB.Begin()
	input := &nodeStore{inner: e.Input, nic: e.Net, meter: e.netMeter}
	if _, err := tpch.LoadAll(ctx, tx, "user", input, "tpch/", e.Opts.SF, e.Opts.Instance.CPUs, e.Opts.SegRows); err != nil {
		return err
	}
	if err := tx.Commit(ctx); err != nil {
		return err
	}
	e.DB.WaitIO()
	e.LoadSim = since(ctx, start)

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
// With cold set, each query runs on a freshly restarted node (Restart), so
// it reads all of its data, as it would from a dataset far larger than
// memory; otherwise the queries share the node's caches, warm from the load.
func (e *Env) Power(ctx context.Context, cold bool) ([22]float64, error) {
	var out [22]float64
	ctx, sp := trace.Root(ctx, e.Opts.Trace, "bench.power")
	defer sp.End()
	for q := 1; q <= 22; q++ {
		if cold {
			if err := e.Restart(ctx); err != nil {
				return out, err
			}
		}
		r, err := tpch.RunQuery(ctx, e.conn, q)
		if err != nil {
			return out, err
		}
		out[q-1] = r.IO.Seconds()
	}
	return out, nil
}

// Restart closes the node and opens it again over the same system dbspace
// and volume, recovering from the log: its buffer pool and OCM start
// empty, as a query run over data far larger than memory finds them.
func (e *Env) Restart(ctx context.Context) error {
	if err := e.DB.Close(); err != nil {
		return err
	}
	db, err := e.open(ctx)
	if err != nil {
		return err
	}
	e.DB = db
	if err := db.Recover(ctx); err != nil {
		return err
	}
	e.conn, err = tpch.OpenConn(ctx, db.Begin(), "user")
	return err
}

// Close releases the environment.
func (e *Env) Close() error {
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
	nic := netResource(e.Scale, M5ad4xl, bandwidthScale/5)
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
