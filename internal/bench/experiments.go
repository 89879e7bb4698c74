package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"cloudiq"
	"cloudiq/internal/cloudcost"
	"cloudiq/internal/core"
	"cloudiq/internal/iomodel"
	"cloudiq/internal/keygen"
	"cloudiq/internal/objstore"
	"cloudiq/internal/ocm"
	"cloudiq/internal/rfrb"
	"cloudiq/tpch"
)

// VolumeRun is one volume's row of Tables 2–4: a full load + power run on
// that volume, priced.
type VolumeRun struct {
	Volume      string      `json:"volume"`
	LoadSim     float64     `json:"load_sim_s"`
	Queries     [22]float64 `json:"query_sim_s"`
	GeoMean     float64     `json:"geomean_sim_s"`
	LoadPuts    int64       `json:"load_puts"` // S3 PUT requests during load (user store)
	LoadGets    int64       `json:"load_gets"` // S3 GET requests during load (input + user store)
	QueryPuts   int64       `json:"query_puts"`
	QueryGets   int64       `json:"query_gets"`
	StoredBytes int64       `json:"stored_bytes"` // compressed data at rest (S3 run only)
	// LoadCost and QueryCost are Table 3: EC2 time for the simulated
	// durations plus S3 request charges.
	LoadCost  float64 `json:"load_usd"`
	QueryCost float64 `json:"query_usd"`
	// Monthly is Table 4: the S3 run's compressed bytes under this volume's
	// monthly rate. MonthlySF1000 is the same at an SF-1000-equivalent data
	// volume, for comparison with the paper.
	Monthly       float64 `json:"storage_monthly_usd"`
	MonthlySF1000 float64 `json:"storage_monthly_sf1000_usd"`
}

// VolumeRuns is the result of the paper's first experiment (Tables 2–4).
type VolumeRuns []VolumeRun

// RunVolumeComparison executes the paper's first experiment: load TPC-H and
// run the 22 queries with user dbspaces on S3, EBS and EFS, then price the
// runs (Tables 2–4).
func RunVolumeComparison(ctx context.Context, base Options) (VolumeRuns, error) {
	var out VolumeRuns
	for _, volume := range []string{"s3", "ebs", "efs"} {
		opts := base
		opts.Volume = volume
		// The paper's default configuration runs with the OCM on the
		// instance NVMe; it applies to cloud dbspaces only.
		opts.OCM = volume == "s3"
		e, ctx, err := Setup(ctx, opts)
		if err != nil {
			return nil, fmt.Errorf("bench: %s setup: %w", volume, err)
		}
		run := VolumeRun{Volume: volume, LoadSim: e.LoadSim}
		// Only the S3 run has a user object store to meter; these are its
		// counters once the load is done.
		var storePuts, storeGets int64
		if e.Store != nil {
			storePuts, storeGets = e.Store.Metrics().Puts(), e.Store.Metrics().Gets()
			run.StoredBytes = e.Store.StoredBytes()
		}
		run.LoadPuts, run.LoadGets = storePuts, e.Input.Metrics().Gets()+storeGets
		// The paper's queries read a dataset far larger than memory; at
		// this scale the load leaves it cached, so each query runs cold.
		q, err := e.Power(ctx, true)
		if err != nil {
			_ = e.Close()
			return nil, fmt.Errorf("bench: %s power run: %w", volume, err)
		}
		run.Queries = q
		run.GeoMean = geoMean(q[:])
		if e.Store != nil {
			run.QueryPuts = e.Store.Metrics().Puts() - storePuts
			run.QueryGets = e.Store.Metrics().Gets() - storeGets
		}
		if err := e.Close(); err != nil {
			return nil, err
		}
		out = append(out, run)
	}
	if err := out.price(base.withDefaults().SF); err != nil {
		return nil, err
	}
	return out, nil
}

func geoMean(xs []float64) float64 {
	results := make([]tpch.QueryResult, len(xs))
	for i, x := range xs {
		results[i] = tpch.QueryResult{Elapsed: time.Duration(x * float64(time.Second))}
	}
	return tpch.GeoMean(results).Seconds()
}

// storedBytes is the compressed data at rest, which only the S3 run meters.
func (runs VolumeRuns) storedBytes() int64 {
	for _, r := range runs {
		if r.Volume == "s3" {
			return r.StoredBytes
		}
	}
	return 0
}

// price fills in Tables 3 and 4 for runs measured at scale factor sf.
func (runs VolumeRuns) price(sf float64) error {
	p := cloudcost.Default2020()
	stored := runs.storedBytes()
	for i := range runs {
		r := &runs[i]
		var queryTotal float64
		for _, q := range r.Queries {
			queryTotal += q
		}
		loadCompute, err := p.Compute(M5ad24xl.Name, time.Duration(r.LoadSim*float64(time.Second)))
		if err != nil {
			return err
		}
		queryCompute, err := p.Compute(M5ad24xl.Name, time.Duration(queryTotal*float64(time.Second)))
		if err != nil {
			return err
		}
		r.LoadCost = loadCompute + p.Requests(r.LoadPuts, r.LoadGets)
		r.QueryCost = queryCompute + p.Requests(r.QueryPuts, r.QueryGets)
		if r.Monthly, err = p.StorageMonthly(r.Volume, stored); err != nil {
			return err
		}
		if r.MonthlySF1000, err = p.StorageMonthly(r.Volume, int64(float64(stored)*1000/sf)); err != nil {
			return err
		}
	}
	return nil
}

// Table renders Tables 2, 3 and 4.
func (runs VolumeRuns) Table() string {
	header := []string{"volume", "load", "geomean"}
	for q := 1; q <= 22; q++ {
		header = append(header, fmt.Sprintf("Q%d", q))
	}
	var times, costs, storage, exStorage [][]string
	for _, r := range runs {
		vol := strings.ToUpper(r.Volume)
		row := []string{vol, fmt.Sprintf("%.2f", r.LoadSim), fmt.Sprintf("%.2f", r.GeoMean)}
		for _, q := range r.Queries {
			row = append(row, fmt.Sprintf("%.2f", q))
		}
		times = append(times, row)
		costs = append(costs, []string{vol, fmt.Sprintf("%.4f", r.LoadCost), fmt.Sprintf("%.4f", r.QueryCost)})
		storage = append(storage, []string{vol, fmt.Sprintf("%.4f", r.Monthly)})
		exStorage = append(exStorage, []string{vol, fmt.Sprintf("%.4f", r.MonthlySF1000)})
	}
	storageHeader := []string{"volume", "monthly storage cost (USD)"}
	return "Table 2: load and query times (simulated seconds)\n" +
		FormatTable(header, times) +
		"\nTable 3: compute cost of the load and of the query run\n" +
		FormatTable([]string{"volume", "load cost (USD)", "query cost (USD)"}, costs) +
		fmt.Sprintf("\nTable 4: monthly data-at-rest cost (%d compressed bytes)\n", runs.storedBytes()) +
		FormatTable(storageHeader, storage) +
		"\nTable 4 (extrapolated to SF 1000 data volume)\n" +
		FormatTable(storageHeader, exStorage)
}

// OCMRun is one instance's half of the second experiment (Figure 6 and
// Table 5): per-query times with and without the OCM, plus cache counters.
type OCMRun struct {
	Instance    string      `json:"instance"`
	WithoutOCM  [22]float64 `json:"without_ocm_sim_s"`
	WithOCM     [22]float64 `json:"with_ocm_sim_s"`
	Hits        int64       `json:"hits"`
	Misses      int64       `json:"misses"`
	Evictions   int64       `json:"evictions"`
	AvertedGets int64       `json:"averted_gets"` // cache hits = S3 GETs averted
}

// OCMRuns is the result of the second experiment (Figure 6 and Table 5).
type OCMRuns []OCMRun

// RunOCM executes the OCM experiment on the given instances (the paper uses
// m5ad.4xlarge and m5ad.24xlarge).
func RunOCM(ctx context.Context, base Options, instances ...Instance) (OCMRuns, error) {
	var out OCMRuns
	for _, inst := range instances {
		run := OCMRun{Instance: inst.Name}
		for _, withOCM := range []bool{false, true} {
			opts := base
			opts.Volume = "s3"
			opts.Instance = inst
			opts.OCM = withOCM
			e, ctx, err := Setup(ctx, opts)
			if err != nil {
				return nil, err
			}
			q, err := e.Power(ctx, false)
			if err != nil {
				_ = e.Close()
				return nil, err
			}
			if withOCM {
				run.WithOCM = q
				if st := e.DB.OCMStats(); len(st) > 0 {
					run.Hits, run.Misses, run.Evictions = st[0].Hits, st[0].Misses, st[0].Evictions
					run.AvertedGets = st[0].Hits
				}
			} else {
				run.WithoutOCM = q
			}
			if err := e.Close(); err != nil {
				return nil, err
			}
		}
		out = append(out, run)
	}
	return out, nil
}

// Table renders the Figure 6 series and Table 5 per instance.
func (runs OCMRuns) Table() string {
	var sb strings.Builder
	for _, r := range runs {
		fmt.Fprintf(&sb, "instance %s\n", r.Instance)
		var rows [][]string
		for q := 0; q < 22; q++ {
			delta := ""
			if r.WithoutOCM[q] > 0 {
				delta = fmt.Sprintf("%+.1f%%", (r.WithOCM[q]/r.WithoutOCM[q]-1)*100)
			}
			rows = append(rows, []string{
				fmt.Sprintf("Q%d", q+1),
				fmt.Sprintf("%.3f", r.WithoutOCM[q]),
				fmt.Sprintf("%.3f", r.WithOCM[q]),
				delta,
			})
		}
		sb.WriteString(FormatTable([]string{"query", "no OCM (s)", "OCM (s)", "delta"}, rows))
		total := r.Hits + r.Misses
		pct := func(n int64) string {
			if total == 0 {
				return "0%"
			}
			return fmt.Sprintf("%.1f%%", float64(n)/float64(total)*100)
		}
		sb.WriteString(FormatTable(
			[]string{"", "objects", "percentage"},
			[][]string{
				{"cache misses", fmt.Sprint(r.Misses), pct(r.Misses)},
				{"cache hits", fmt.Sprint(r.Hits), pct(r.Hits)},
				{"evictions", fmt.Sprint(r.Evictions), ""},
			}))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ScaleUpPoint is one x-value of Figure 7.
type ScaleUpPoint struct {
	CPUs     int     `json:"cpus"`
	Instance string  `json:"instance"`
	LoadSim  float64 `json:"load_sim_s"`
	QuerySim float64 `json:"query_sim_s"`
	TotalSim float64 `json:"total_sim_s"`
}

// ScaleUpPoints is the result of the third experiment (Figure 7).
type ScaleUpPoints []ScaleUpPoint

// RunScaleUp executes the third experiment: the same S3-backed workload on
// the m5ad instance ladder.
func RunScaleUp(ctx context.Context, base Options) (ScaleUpPoints, error) {
	var out ScaleUpPoints
	for _, inst := range []Instance{M5ad4xl, M5ad12xl, M5ad24xl} {
		opts := base
		opts.Volume = "s3"
		opts.Instance = inst
		opts.OCM = true
		e, ctx, err := Setup(ctx, opts)
		if err != nil {
			return nil, err
		}
		q, err := e.Power(ctx, false)
		if err != nil {
			_ = e.Close()
			return nil, err
		}
		var queryTotal float64
		for _, x := range q {
			queryTotal += x
		}
		out = append(out, ScaleUpPoint{
			CPUs:     inst.CPUs,
			Instance: inst.Name,
			LoadSim:  e.LoadSim,
			QuerySim: queryTotal,
			TotalSim: e.LoadSim + queryTotal,
		})
		if err := e.Close(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Table renders Figure 7's series.
func (points ScaleUpPoints) Table() string {
	var rows [][]string
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprint(p.CPUs), p.Instance,
			fmt.Sprintf("%.2f", p.LoadSim),
			fmt.Sprintf("%.2f", p.QuerySim),
			fmt.Sprintf("%.2f", p.TotalSim),
		})
	}
	return FormatTable([]string{"CPUs", "instance", "load (s)", "queries (s)", "total (s)"}, rows)
}

// BandwidthSample is one point of Figure 8.
type BandwidthSample struct {
	SimSecond float64 `json:"at_sim_s"`
	Gbps      float64 `json:"gbps"`
}

// BandwidthSamples is the NIC utilization series of Figure 8.
type BandwidthSamples []BandwidthSample

// RunLoadBandwidth executes the load on the largest instance and reads the
// NIC's traffic per tick of simulated time, reproducing Figure 8's
// saturation plateau.
func RunLoadBandwidth(ctx context.Context, base Options) (BandwidthSamples, error) {
	opts := base
	opts.Volume = "s3"
	opts.Instance = M5ad24xl
	opts.OCM = true // the paper's configuration; uploads stream continuously
	opts.SkipLoad = true
	e, ctx, err := Setup(ctx, opts)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	start := iomodel.Now(ctx)
	if err := e.Load(ctx); err != nil {
		return nil, err
	}
	return e.netMeter.samples(start, iomodel.Now(ctx)), nil
}

// Table renders Figure 8's series.
func (samples BandwidthSamples) Table() string {
	var rows [][]string
	for _, s := range samples {
		bar := strings.Repeat("#", int(s.Gbps))
		rows = append(rows, []string{fmt.Sprintf("%.1f", s.SimSecond), fmt.Sprintf("%.2f", s.Gbps), bar})
	}
	return FormatTable([]string{"sim second", "Gbit/s", ""}, rows)
}

// ScaleOutPoint is one x-value of Figure 9.
type ScaleOutPoint struct {
	Nodes    int     `json:"nodes"`
	TotalSim float64 `json:"total_sim_s"`
}

// ScaleOutPoints is the result of the fourth experiment (Figure 9).
type ScaleOutPoints []ScaleOutPoint

// RunScaleOut executes the fourth experiment: 8 query streams balanced over
// the given counts of secondary (reader) nodes, each node with its own buffer
// pool and network link, all sharing one object store. Combined S3 throughput
// grows with the node count, which is what the paper credits for the
// near-ideal scale-out.
func RunScaleOut(ctx context.Context, base Options, nodeCounts []int) (ScaleOutPoints, error) {
	opts := base
	opts.Volume = "s3"
	opts.Instance = M5ad4xl
	// The coordinator loads once; reader environments are rebuilt per point.
	coord, ctx, err := Setup(ctx, opts)
	if err != nil {
		return nil, err
	}
	defer coord.Close()

	var out ScaleOutPoints
	for _, n := range nodeCounts {
		conns := make([]*tpch.Conn, n)
		dbs := make([]*cloudiq.Database, n)
		for i := range conns {
			dbs[i], conns[i], err = coord.OpenReader(ctx, fmt.Sprintf("r%d", i+1))
			if err != nil {
				return nil, err
			}
		}
		start := iomodel.Now(ctx)
		if _, err := tpch.RunStreams(ctx, conns, tpch.Streams(8, 42)); err != nil {
			return nil, err
		}
		out = append(out, ScaleOutPoint{Nodes: n, TotalSim: since(ctx, start)})
		for _, db := range dbs {
			_ = db.Close()
		}
	}
	return out, nil
}

// Table renders Figure 9's series.
func (points ScaleOutPoints) Table() string {
	var rows [][]string
	for _, p := range points {
		rows = append(rows, []string{fmt.Sprint(p.Nodes), fmt.Sprintf("%.2f", p.TotalSim)})
	}
	return FormatTable([]string{"secondary nodes", "8-stream total (s)"}, rows)
}

// --- ablations (design choices DESIGN.md calls out) ---

// AblationResult is a generic (variant, simulated seconds, note) row.
type AblationResult struct {
	Variant string  `json:"variant"`
	SimSec  float64 `json:"sim_s"`
	Note    string  `json:"note"`
}

// Ablation is one design-choice comparison: a titled group of variant rows.
type Ablation struct {
	Title string           `json:"title"`
	Rows  []AblationResult `json:"rows"`
}

// Ablations is the result of the ablation suite.
type Ablations []Ablation

// ablations is the suite: each comparison with the size iqbench runs it at.
// Every entry reads IOStats and Trace from its Options, and runs each
// variant on an activity of its own (iomodel).
var ablations = []struct {
	title string
	n     int
	run   func(ctx context.Context, o Options, n int) ([]AblationResult, error)
}{
	{"hashed key prefixes vs sequential (per-prefix throttling)", 60, AblationPrefixHashing},
	{"key-range caching vs one key per coordinator RPC", 5000, AblationKeyRangeSize},
	{"bounded read retries under eventual consistency", 100, AblationRetryPolicy},
	{"OCM write-back vs write-through (churn burst)", 200, AblationOCMWriteMode},
}

// RunAblations runs every comparison of the suite.
func RunAblations(ctx context.Context, o Options) (Ablations, error) {
	var out Ablations
	for _, a := range ablations {
		rows, err := a.run(ctx, o, a.n)
		if err != nil {
			return nil, err
		}
		out = append(out, Ablation{Title: a.title, Rows: rows})
	}
	return out, nil
}

// Table renders each comparison under its title.
func (as Ablations) Table() string {
	var sb strings.Builder
	for _, a := range as {
		var rows [][]string
		for _, r := range a.Rows {
			rows = append(rows, []string{r.Variant, fmt.Sprintf("%.3f", r.SimSec), r.Note})
		}
		sb.WriteString(a.Title + "\n" + FormatTable([]string{"variant", "sim seconds", "note"}, rows))
	}
	return sb.String()
}

// AblationPrefixHashing writes and reads back n pages with hashed vs
// sequential key prefixes under S3's per-prefix request throttling.
func AblationPrefixHashing(ctx context.Context, o Options, n int) ([]AblationResult, error) {
	var out []AblationResult
	for _, sequential := range []bool{false, true} {
		ctx := iomodel.Start(ctx)
		scale := iomodel.NewScale(0)
		store := objstore.NewMem(objstore.Config{
			ReadLatency:  iomodel.Latency{Base: s3ReadLatency},
			WriteLatency: iomodel.Latency{Base: s3WriteLatency},
			PrefixRate:   200, // harsh throttle to expose the effect quickly
			Scale:        scale,
		})
		db, err := cloudiq.Open(ctx, cloudiq.Config{IOStats: o.IOStats})
		if err != nil {
			return nil, err
		}
		if err := db.AttachCloudDbspace("user", store, cloudiq.CloudOptions{SequentialKeys: sequential}); err != nil {
			return nil, err
		}
		start := iomodel.Now(ctx)
		tx := db.Begin()
		tbl, err := tx.CreateTable(ctx, "user", "t", cloudiq.Schema{
			Cols: []cloudiq.ColumnDef{{Name: "x", Typ: cloudiq.Int64}},
		}, cloudiq.TableOptions{SegRows: 8})
		if err != nil {
			return nil, err
		}
		batch := cloudiq.NewBatch(tbl.Schema())
		for i := 0; i < n*8; i++ {
			batch.Vecs[0].AppendInt(int64(i))
		}
		if err := tbl.Append(ctx, batch); err != nil {
			return nil, err
		}
		if err := tx.Commit(ctx); err != nil {
			return nil, err
		}
		name := "hashed"
		if sequential {
			name = "sequential"
		}
		out = append(out, AblationResult{
			Variant: name,
			SimSec:  since(ctx, start),
			Note:    fmt.Sprintf("%d pages", n),
		})
		_ = db.Close()
	}
	return out, nil
}

// AblationKeyRangeSize compares cached range allocation against one-key-per-
// RPC allocation, charging a simulated RPC round trip.
func AblationKeyRangeSize(ctx context.Context, o Options, keys int) ([]AblationResult, error) {
	const rpcLatency = 2 * time.Millisecond
	var out []AblationResult
	for _, ranged := range []bool{true, false} {
		ctx := iomodel.Start(ctx)
		scale := iomodel.NewScale(0)
		gen := keygen.NewGenerator(nil)
		rpcs := 0
		alloc := func(ctx context.Context, n uint64) (rfrb.Range, error) {
			rpcs++
			scale.Sleep(ctx, rpcLatency)
			if !ranged {
				n = 1
			}
			return gen.Allocate(ctx, "w1", n)
		}
		client := keygen.NewClient(alloc)
		start := iomodel.Now(ctx)
		for i := 0; i < keys; i++ {
			if _, err := client.NextKey(ctx); err != nil {
				return nil, err
			}
		}
		name := "range-cached"
		if !ranged {
			name = "one-key-per-rpc"
		}
		out = append(out, AblationResult{
			Variant: name,
			SimSec:  since(ctx, start),
			Note:    fmt.Sprintf("%d keys, %d RPCs", keys, rpcs),
		})
	}
	return out, nil
}

// AblationRetryPolicy measures the read path with and without bounded
// retries against a store exhibiting not-found windows on fresh keys:
// without retries reads fail; with retries they succeed at a small latency
// premium.
func AblationRetryPolicy(ctx context.Context, o Options, pages int) ([]AblationResult, error) {
	var out []AblationResult
	for _, retries := range []int{1, 8} {
		store := objstore.NewMem(objstore.Config{
			Consistency: objstore.Consistency{NewKeyMissReads: 2},
		})
		gen := keygen.NewGenerator(nil)
		client := keygen.NewClient(func(ctx context.Context, n uint64) (rfrb.Range, error) {
			return gen.Allocate(ctx, "n", n)
		})
		ds := core.NewCloud(core.CloudConfig{Name: "ablation", Store: store, Keys: client, ReadRetries: retries, Stats: o.IOStats})
		failures := 0
		for i := 0; i < pages; i++ {
			written, err := ds.WriteBatch(ctx, [][]byte{{byte(i)}}, nil, core.WriteThrough)
			if err != nil {
				return nil, err
			}
			if _, err := ds.ReadBatch(ctx, written); err != nil {
				failures++
			}
		}
		name := fmt.Sprintf("retries=%d", retries)
		out = append(out, AblationResult{
			Variant: name,
			SimSec:  0,
			Note:    fmt.Sprintf("%d/%d reads failed", failures, pages),
		})
	}
	return out, nil
}

// ablationPageKey names a synthetic churn page for the write-mode ablation.
// These pages live in a per-run throwaway store and never coexist with
// engine-minted keys, so the naming is local to the experiment.
func ablationPageKey(i int) string {
	return fmt.Sprintf("p/%06d", i)
}

// AblationOCMWriteMode measures the churn-phase latency benefit of
// write-back over write-through for a burst of page writes (§4: the churn
// phase is the longest part of a transaction and must be optimized). When
// o.Trace is non-nil, every background upload becomes a root span whose
// queue_ns attribute exposes the brown-out: as the burst outruns the upload
// workers, queue-wait grows while per-upload device and store time stay flat.
func AblationOCMWriteMode(ctx context.Context, o Options, pages int) ([]AblationResult, error) {
	tr := o.Trace
	var out []AblationResult
	for _, mode := range []string{"write-back", "write-through"} {
		ctx := iomodel.Start(ctx)
		scale := iomodel.NewScale(0)
		tr.SetClock(scale.Charged)
		store := objstore.NewMem(objstore.Config{
			WriteLatency: iomodel.Latency{Base: s3WriteLatency},
			Scale:        scale,
		})
		ssd := newSSD(scale, 1, 64<<20, 7)
		// One upload lane: the churn burst outruns it, so the queue (and the
		// queue_ns attribute on each ocm.upload span) grows — the brown-out.
		cache, err := ocm.New(ocm.Config{Device: ssd, Store: store, Workers: 1, Stats: o.IOStats, Trace: tr})
		if err != nil {
			return nil, err
		}
		data := make([]byte, 4096)
		start := iomodel.Now(ctx)
		for i := 0; i < pages; i++ {
			key := ablationPageKey(i)
			if mode == "write-back" {
				err = cache.PutBack(ctx, key, data)
			} else {
				err = cache.PutThrough(ctx, key, data)
			}
			if err != nil {
				return nil, err
			}
		}
		churn := since(ctx, start)
		// Commit phase: everything must still reach the store.
		var keys []string
		for i := 0; i < pages; i++ {
			keys = append(keys, ablationPageKey(i))
		}
		if err := cache.FlushForCommit(ctx, keys); err != nil {
			return nil, err
		}
		total := since(ctx, start)
		_ = cache.Close()
		out = append(out, AblationResult{
			Variant: mode,
			SimSec:  churn,
			Note:    fmt.Sprintf("%d pages; durable after %.2fs", pages, total),
		})
	}
	return out, nil
}
