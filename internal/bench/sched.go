package bench

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cloudiq"
	"cloudiq/internal/sched"
	"cloudiq/internal/trace"
	"cloudiq/tpch"
)

// SchedLaneStat summarizes one priority lane of the mixed-fleet run.
type SchedLaneStat struct {
	Lane      string  `json:"lane"`
	Admitted  int64   `json:"admitted"`
	Rejected  int64   `json:"rejected"`
	P50WaitMs float64 `json:"p50_wait_sim_ms"`
	P99WaitMs float64 `json:"p99_wait_sim_ms"`
	MaxWaitMs float64 `json:"max_wait_sim_ms"`
}

// SchedReport is the result of the mixed-fleet experiment:
// hundreds of concurrent TPC-H-shaped queries at three priorities, admitted
// by the scheduler and balanced over a reader fleet sharing one object store.
type SchedReport struct {
	Queries   int   `json:"queries"`
	Readers   int   `json:"readers"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	// Retries counts rejected submissions that backed off (RetryAfter) and
	// resubmitted; every query eventually completes.
	Retries  int64           `json:"retries"`
	TotalSim float64         `json:"total_sim_seconds"`
	Lanes    []SchedLaneStat `json:"lanes"`
	// Dispatches and ChargedMs record the weighted-fairness outcome per
	// tenant (gold:silver:bronze should track their 4:2:1 weights under
	// saturation).
	Dispatches map[string]int64   `json:"dispatches_per_tenant"`
	ChargedMs  map[string]float64 `json:"charged_sim_ms_per_tenant"`
	// DirectQ6Sim / SchedQ6Sim compare a warm Q6 run directly on a reader
	// conn against the same run routed through a one-tenant, one-reader
	// scheduler — the scheduler's concurrency-1 overhead, in charged
	// simulated I/O seconds (every other time here is elapsed ÷ timescale).
	DirectQ6Sim float64 `json:"direct_q6_sim_seconds"`
	SchedQ6Sim  float64 `json:"sched_q6_sim_seconds"`
}

// schedTenants maps the three fleet tenants to weights; each tenant submits
// on all three lanes. Queue budgets are tight relative to the submission
// burst so admission backpressure (reject + retry-after) is actually
// exercised.
var schedTenants = []sched.TenantConfig{
	{Name: "gold", Weight: 4, QueueBudget: 64},
	{Name: "silver", Weight: 2, QueueBudget: 64},
	{Name: "bronze", Weight: 1, QueueBudget: 64},
}

// schedQueries is the cheap TPC-H subset the fleet draws from, so hundreds
// of concurrent queries finish in a bounded smoke run.
var schedQueries = []int{1, 3, 6, 12, 14}

const schedRetryCap = 2000

// RunSchedFleet executes the concurrent-serving experiment: a coordinator
// loads TPC-H once, `readers` reader nodes recover from the shared store,
// and `queries` goroutines submit cheap TPC-H queries through
// a sched.Scheduler at three priorities for three tenants. Rejected
// submissions back off by the rejection's RetryAfter (simulated time) and
// resubmit. The run fails if any query is lost or double-terminated, or if
// the conservation ledger does not balance.
func RunSchedFleet(ctx context.Context, base Options, queries, readers int) (*SchedReport, error) {
	opts := base
	opts.Volume = "s3"
	opts.Instance = M5ad4xl
	coord, err := Setup(ctx, opts)
	if err != nil {
		return nil, err
	}
	defer coord.Close()

	// Reader fleet: each reader has its own copy of the system dbspace, its
	// own NIC and small buffer pool, all over the coordinator's object store.
	conns := make(map[string]*tpch.Conn, readers)
	dbs := make([]*cloudiq.Database, 0, readers)
	defer func() {
		coord.Scale.Set(0)
		for _, db := range dbs {
			_ = db.Close()
		}
	}()
	for i := 0; i < readers; i++ {
		name := fmt.Sprintf("r%d", i+1)
		db, conn, err := coord.OpenReader(ctx, name)
		if err != nil {
			return nil, err
		}
		dbs = append(dbs, db)
		conns[name] = conn
	}

	// Queue waits, tenant charges and the total share one clock: elapsed
	// wall time ÷ timescale. Scale.Charged is not that clock — it sums every
	// goroutine's sleeps, so with N queries in flight it runs N times fast,
	// and waits read off it came out longer than the whole run.
	epoch := time.Now()
	simNow := func() time.Duration {
		return time.Duration(coord.SimSeconds(time.Since(epoch)) * float64(time.Second))
	}
	s := sched.New(sched.Config{Clock: simNow, Scale: coord.Scale})
	for _, cfg := range schedTenants {
		if err := s.AddTenant(cfg); err != nil {
			return nil, err
		}
	}
	for i := 0; i < readers; i++ {
		if err := s.AddReader(fmt.Sprintf("r%d", i+1), 4); err != nil {
			return nil, err
		}
	}

	var completed, failed, retries int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	fleetCtx, fleetSp := trace.Root(ctx, opts.Trace, "bench.schedfleet",
		trace.Int("queries", int64(queries)), trace.Int("readers", int64(readers)))
	start := simNow()
	for i := 0; i < queries; i++ {
		tenant := schedTenants[i%len(schedTenants)].Name
		lane := sched.Lane((i / len(schedTenants)) % int(sched.NumLanes))
		q := schedQueries[i%len(schedQueries)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for attempt := 0; ; attempt++ {
				err := s.Run(fleetCtx, tenant, lane, func(ctx context.Context, reader string) error {
					_, qerr := conns[reader].Query(ctx, q)
					return qerr
				})
				var rej *sched.Rejection
				if errors.As(err, &rej) {
					if attempt >= schedRetryCap {
						atomic.AddInt64(&failed, 1)
						firstErr.CompareAndSwap(nil, fmt.Errorf("bench: query gave up after %d rejections: %w", attempt, err))
						return
					}
					atomic.AddInt64(&retries, 1)
					// Growing backoff from the hint, so rejected clients
					// do not poll the scheduler lock hot; the cap keeps
					// them live.
					wait := rej.RetryAfter
					if wait < 10*time.Millisecond {
						wait = 10 * time.Millisecond
					}
					wait *= time.Duration(attempt + 1)
					if wait > 2*time.Second {
						wait = 2 * time.Second
					}
					coord.Scale.Sleep(wait)
					continue
				}
				if err != nil {
					atomic.AddInt64(&failed, 1)
					firstErr.CompareAndSwap(nil, err)
				} else {
					atomic.AddInt64(&completed, 1)
				}
				return
			}
		}()
	}
	wg.Wait()
	fleetSp.End()
	totalSim := (simNow() - start).Seconds()
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return nil, err
	}

	// The acceptance audit: every submitted query terminated exactly once.
	if err := s.CheckConservation(); err != nil {
		return nil, err
	}
	n := s.Counters()
	if n.Queued != 0 || n.Running != 0 {
		return nil, fmt.Errorf("bench: %d queued / %d running after the fleet drained", n.Queued, n.Running)
	}
	if completed+failed != int64(queries) {
		return nil, fmt.Errorf("bench: %d queries launched, %d observed terminal", queries, completed+failed)
	}
	if n.Completed+n.Failed != completed+failed {
		return nil, fmt.Errorf("bench: ledger saw %d terminals, callers saw %d",
			n.Completed+n.Failed, completed+failed)
	}

	rep := &SchedReport{
		Queries:    queries,
		Readers:    readers,
		Completed:  completed,
		Failed:     failed,
		Retries:    retries,
		TotalSim:   totalSim,
		Dispatches: make(map[string]int64, len(schedTenants)),
		ChargedMs:  make(map[string]float64, len(schedTenants)),
	}
	for _, cfg := range schedTenants {
		rep.Dispatches[cfg.Name] = s.Dispatches(cfg.Name)
		rep.ChargedMs[cfg.Name] = float64(s.ChargedTokens(cfg.Name)) / float64(time.Millisecond)
	}
	for _, ls := range s.Lanes() {
		rep.Lanes = append(rep.Lanes, SchedLaneStat{
			Lane:      ls.Lane.String(),
			Admitted:  ls.Admitted,
			Rejected:  ls.Rejected,
			P50WaitMs: waitQuantileMs(ls.Waits, 0.50),
			P99WaitMs: waitQuantileMs(ls.Waits, 0.99),
			MaxWaitMs: waitQuantileMs(ls.Waits, 1),
		})
	}

	// Concurrency-1 overhead probe: a warm Q6 on one reader, direct vs
	// through a fresh one-tenant scheduler. These two fields are charged
	// simulated I/O time, not the clock above: with one query in flight
	// nothing else advances Scale.Charged, and unlike elapsed time it leaves
	// out the host's CPU time, which would drown a difference this small.
	probe := conns["r1"]
	if _, err := probe.Query(ctx, 6); err != nil { // warm the reader's cache
		return nil, err
	}
	c0 := coord.Scale.Charged()
	if _, err := probe.Query(ctx, 6); err != nil {
		return nil, err
	}
	rep.DirectQ6Sim = (coord.Scale.Charged() - c0).Seconds()

	s1 := sched.New(sched.Config{Clock: coord.Scale.Charged, Scale: coord.Scale})
	if err := s1.AddTenant(sched.TenantConfig{Name: "probe"}); err != nil {
		return nil, err
	}
	if err := s1.AddReader("r1", 1); err != nil {
		return nil, err
	}
	c0 = coord.Scale.Charged()
	if err := s1.Run(ctx, "probe", sched.LaneNormal, func(ctx context.Context, reader string) error {
		_, qerr := conns[reader].Query(ctx, 6)
		return qerr
	}); err != nil {
		return nil, err
	}
	rep.SchedQ6Sim = (coord.Scale.Charged() - c0).Seconds()
	return rep, nil
}

// waitQuantileMs returns the q-quantile of the waits in simulated
// milliseconds (q=1 is the max).
func waitQuantileMs(waits []time.Duration, q float64) float64 {
	if len(waits) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), waits...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}

// Table renders the mixed-fleet report.
func (rep *SchedReport) Table() string {
	rows := make([][]string, 0, len(rep.Lanes))
	for _, l := range rep.Lanes {
		rows = append(rows, []string{
			l.Lane,
			fmt.Sprintf("%d", l.Admitted),
			fmt.Sprintf("%d", l.Rejected),
			fmt.Sprintf("%.2f", l.P50WaitMs),
			fmt.Sprintf("%.2f", l.P99WaitMs),
			fmt.Sprintf("%.2f", l.MaxWaitMs),
		})
	}
	out := FormatTable([]string{"lane", "admitted", "rejected", "p50 wait ms", "p99 wait ms", "max wait ms"}, rows)
	out += "(waits, charges and the total are on one clock: elapsed wall time ÷ timescale)\n"
	out += fmt.Sprintf("%d queries over %d readers: %d completed, %d failed, %d retried rejections, %.2f sim s total\n",
		rep.Queries, rep.Readers, rep.Completed, rep.Failed, rep.Retries, rep.TotalSim)
	for _, cfg := range schedTenants {
		out += fmt.Sprintf("  %-6s w%d: %4d dispatches, %8.1f sim ms charged\n",
			cfg.Name, cfg.Weight, rep.Dispatches[cfg.Name], rep.ChargedMs[cfg.Name])
	}
	out += fmt.Sprintf("concurrency-1 overhead: warm Q6 direct %.4f vs scheduled %.4f charged sim I/O s\n",
		rep.DirectQ6Sim, rep.SchedQ6Sim)
	return out
}
