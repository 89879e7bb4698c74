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
	"cloudiq/internal/iomodel"
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
	// DirectQ6Sim / SchedQ6Sim compare a Q6 run directly on a fresh reader
	// conn against the same run on another fresh reader, routed through a
	// one-tenant, one-reader scheduler — the scheduler's concurrency-1
	// overhead. Every time in the report is on one clock: the experiment's
	// modelled-I/O time (iomodel).
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
	coord, ctx, err := Setup(ctx, opts)
	if err != nil {
		return nil, err
	}
	defer coord.Close()

	// Reader fleet: each reader has its own copy of the system dbspace, its
	// own NIC and small buffer pool, all over the coordinator's object store.
	conns := make(map[string]*tpch.Conn, readers)
	dbs := make([]*cloudiq.Database, 0, readers)
	defer func() {
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

	// Queue waits, tenant charges and the total share one clock: each query
	// runs on its own fork of the experiment's modelled-I/O clock, the
	// scheduler stamps waits and charges on its callers' clocks, and the
	// total is the join of every query. Scale.Charged is not that clock —
	// it sums every query's I/O, so with N queries in flight it runs N
	// times fast.
	s := sched.New(sched.Config{Scale: coord.Scale})
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
	// A rejected query backs off in simulated time, but its queue drains in
	// real time: it resubmits once some query has ended since its rejection.
	var endMu sync.Mutex
	ended := sync.NewCond(&endMu)
	var ends int64
	endOne := func() {
		endMu.Lock()
		ends++
		ended.Broadcast()
		endMu.Unlock()
	}
	fleetCtx, fleetSp := trace.Root(ctx, opts.Trace, "bench.schedfleet",
		trace.Int("queries", int64(queries)), trace.Int("readers", int64(readers)))
	start := iomodel.Now(fleetCtx)
	for i := 0; i < queries; i++ {
		tenant := schedTenants[i%len(schedTenants)].Name
		lane := sched.Lane((i / len(schedTenants)) % int(sched.NumLanes))
		q := schedQueries[i%len(schedQueries)]
		qctx := iomodel.Fork(fleetCtx)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer iomodel.Join(fleetCtx, qctx)
			for attempt := 0; ; attempt++ {
				endMu.Lock()
				seen := ends
				endMu.Unlock()
				err := s.Run(qctx, tenant, lane, func(ctx context.Context, reader string) error {
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
					coord.Scale.Sleep(qctx, wait)
					endMu.Lock()
					for ends == seen {
						ended.Wait()
					}
					endMu.Unlock()
					continue
				}
				defer endOne()
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
	totalSim := since(fleetCtx, start)
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

	// Concurrency-1 overhead probe: one Q6 run directly on a reader conn,
	// and one routed through a fresh one-tenant scheduler, each on a reader
	// node opened for it, so both read the same pages through the same
	// path from the store. A reader the fleet warmed will not do: its
	// buffer pool can hold all of Q6, and a Q6 that does no I/O compares
	// nothing.
	probe := func(name string) (*tpch.Conn, error) {
		db, conn, err := coord.OpenReader(ctx, name)
		if err != nil {
			return nil, err
		}
		dbs = append(dbs, db)
		return conn, nil
	}
	direct, err := probe("p1")
	if err != nil {
		return nil, err
	}
	c0 := iomodel.Now(ctx)
	if _, err := direct.Query(ctx, 6); err != nil {
		return nil, err
	}
	rep.DirectQ6Sim = since(ctx, c0)

	routed, err := probe("p2")
	if err != nil {
		return nil, err
	}
	s1 := sched.New(sched.Config{Scale: coord.Scale})
	if err := s1.AddTenant(sched.TenantConfig{Name: "probe"}); err != nil {
		return nil, err
	}
	if err := s1.AddReader("p2", 1); err != nil {
		return nil, err
	}
	c0 = iomodel.Now(ctx)
	if err := s1.Run(ctx, "probe", sched.LaneNormal, func(ctx context.Context, reader string) error {
		_, qerr := routed.Query(ctx, 6)
		return qerr
	}); err != nil {
		return nil, err
	}
	rep.SchedQ6Sim = since(ctx, c0)
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
	out += "(waits, charges, the total and the probe are on one clock: modelled I/O time)\n"
	out += fmt.Sprintf("%d queries over %d readers: %d completed, %d failed, %d retried rejections, %.2f sim s total\n",
		rep.Queries, rep.Readers, rep.Completed, rep.Failed, rep.Retries, rep.TotalSim)
	for _, cfg := range schedTenants {
		out += fmt.Sprintf("  %-6s w%d: %4d dispatches, %8.1f sim ms charged\n",
			cfg.Name, cfg.Weight, rep.Dispatches[cfg.Name], rep.ChargedMs[cfg.Name])
	}
	out += fmt.Sprintf("concurrency-1 overhead: cold-reader Q6 direct %.4f vs scheduled %.4f sim s\n",
		rep.DirectQ6Sim, rep.SchedQ6Sim)
	return out
}
