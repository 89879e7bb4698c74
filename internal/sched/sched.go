package sched

import (
	"context"
	"sync"
	"time"

	"cloudiq/internal/exec"
	"cloudiq/internal/faultinject"
	"cloudiq/internal/iomodel"
	"cloudiq/internal/trace"
)

// Config parameterizes a Scheduler.
type Config struct {
	// Faults arms the admission-drop (SchedAdmit) and reader-stall
	// (SchedStall) sites. Nil means no injected faults.
	Faults *faultinject.Plan
	// Scale, when non-nil, charges injected reader stalls as simulated
	// time (a stalled reader really does serve later).
	Scale *iomodel.Scale
}

// stallUnit converts a SchedStall lag draw to simulated time.
const stallUnit = time.Millisecond

// grant delivers a dispatch decision to a waiting query goroutine: the
// reader, the modelled-I/O time of the dispatch and any injected stall.
type grant struct {
	reader string
	at     time.Duration
	stall  time.Duration
}

// Scheduler is the concurrent shell around Core: many goroutines submit
// queries; admission, queueing, fairness and reader placement happen under
// one lock; dispatched queries run on their callers' goroutines with a
// cooperative yield point installed on the context.
//
// The core's clock is the modelled-I/O clock (iomodel) of the call in
// progress: a submission is stamped with its caller's time, a release of a
// slot with the releasing query's, and a query dispatched into a released
// slot starts at the later of its arrival and that release — so waits,
// tenant charges and the callers' clocks are one clock. Callers without an
// activity all read 0, and every wait and charge is then 0.
type Scheduler struct {
	cfg Config

	mu      sync.Mutex
	now     time.Duration // the core's clock, set under mu by each call
	core    *Core
	waiters map[uint64]chan grant

	faultRejected int64
	laneAdmitted  [NumLanes]int64
	laneRejected  [NumLanes]int64
	laneWaits     [NumLanes][]time.Duration
}

// New builds a Scheduler.
func New(cfg Config) *Scheduler {
	s := &Scheduler{cfg: cfg, waiters: make(map[uint64]chan grant)}
	s.core = NewCore(func() time.Duration { return s.now })
	return s
}

// AddTenant registers a tenant.
func (s *Scheduler) AddTenant(cfg TenantConfig) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.AddTenant(cfg)
}

// AddReader registers a reader node and dispatches any waiting work to it.
func (s *Scheduler) AddReader(name string, slots int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.core.AddReader(name, slots); err != nil {
		return err
	}
	s.pumpLocked()
	return nil
}

// DrainReader starts a graceful drain of a reader: no new dispatches land on
// it, running queries finish (or unpin at their next yield), and queued
// queries pinned to it re-place on the rest of the fleet immediately. The
// return value reports whether the reader was idle and left at once.
func (s *Scheduler) DrainReader(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	gone := s.core.DrainReader(name)
	s.pumpLocked() // released queries place on the surviving fleet
	return gone
}

// RemoveReader drops a reader abruptly (a crash). Queries running on it are
// failed — their goroutines observe the terminal state when fn returns — and
// queued queries pinned to it re-place on the surviving fleet. It returns the
// number of failed victims.
func (s *Scheduler) RemoveReader(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	victims := s.core.RemoveReader(name)
	for _, q := range victims {
		_ = s.core.Complete(q, false)
	}
	s.pumpLocked()
	return len(victims)
}

// Readers returns the current reader names (draining ones included).
func (s *Scheduler) Readers() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.Readers()
}

// Load takes the autoscaler's load snapshot.
func (s *Scheduler) Load() LoadStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.Load()
}

// pumpLocked drains the dispatch loop, handing each dispatched query to its
// waiting goroutine. Reader-stall lags are drawn here, in dispatch order, so
// a seeded plan yields a deterministic stall sequence.
func (s *Scheduler) pumpLocked() {
	for {
		q, ok := s.core.Dispatch()
		if !ok {
			return
		}
		g := grant{reader: q.Reader, at: q.DispatchAt}
		if lag := s.cfg.Faults.LagAt(faultinject.SchedStall, q.Reader); lag > 0 {
			g.stall = time.Duration(lag) * stallUnit
		}
		if ch, ok := s.waiters[q.ID]; ok {
			ch <- g // buffered: never blocks the pump
		}
	}
}

// Run submits a query for the tenant on the lane, waits for admission and
// dispatch, then executes fn on the assigned reader with a yield point
// installed on the context. It returns fn's error, a *Rejection (matching
// errors.Is(err, ErrRejected)) under backpressure, or ctx.Err() if the
// query was cancelled while queued.
//
// Every admitted query terminates exactly once: completed (fn returned
// nil), failed (fn errored) or cancelled (context done before dispatch).
func (s *Scheduler) Run(ctx context.Context, tenant string, lane Lane, fn func(ctx context.Context, reader string) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	// Injected admission drop: the request is shed before it reaches the
	// queue, exactly like an overflow rejection (and charged no tokens).
	if err := s.cfg.Faults.Check(faultinject.SchedAdmit, tenant); err != nil {
		s.mu.Lock()
		s.faultRejected++
		if lane >= 0 && lane < NumLanes {
			s.laneRejected[lane]++
		}
		s.mu.Unlock()
		return &Rejection{Tenant: tenant, Lane: lane, Reason: "fault", RetryAfter: 10 * time.Millisecond}
	}

	ctx, sp := trace.Start(ctx, "sched.query",
		trace.String("tenant", tenant), trace.String("lane", lane.String()))
	defer sp.End()

	s.mu.Lock()
	s.now = iomodel.Now(ctx)
	q, rej := s.core.Submit(tenant, lane)
	if rej != nil {
		if lane >= 0 && lane < NumLanes {
			s.laneRejected[lane]++
		}
		s.mu.Unlock()
		sp.SetAttr("rejected", rej.Reason)
		return rej
	}
	s.laneAdmitted[q.Lane]++
	ch := make(chan grant, 1)
	s.waiters[q.ID] = ch
	s.pumpLocked()
	s.mu.Unlock()

	g, err := s.await(ctx, q, ch)
	if err != nil {
		sp.SetAttr("cancelled", err.Error())
		return err
	}
	iomodel.JoinAt(ctx, g.at)
	sp.AddInt("queue_ns", int64(q.FirstWait))
	sp.AddInt("queue_depth", int64(q.DepthAtSubmit))
	sp.SetAttr("reader", g.reader)
	s.mu.Lock()
	s.laneWaits[q.Lane] = append(s.laneWaits[q.Lane], q.FirstWait)
	s.mu.Unlock()
	if g.stall > 0 {
		sp.AddInt("stall_ns", int64(g.stall))
		s.stall(ctx, g.stall)
	}

	runErr := fn(exec.WithYield(ctx, s.yieldFunc(q, ch)), q.Reader)
	s.mu.Lock()
	s.now = iomodel.Now(ctx)
	delete(s.waiters, q.ID)
	if q.State == Running {
		err = s.core.Complete(q, runErr == nil)
	} else {
		err = nil // cancelled at a yield point; already terminal
	}
	s.pumpLocked()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if runErr != nil {
		sp.SetAttr("err", runErr.Error())
	}
	return runErr
}

// await blocks until the query is granted a reader or the context ends.
// On cancellation it resolves the submit/dispatch race under the lock: a
// still-queued query is cancelled; one that was granted concurrently is
// completed as failed so its slot frees.
func (s *Scheduler) await(ctx context.Context, q *Query, ch chan grant) (grant, error) {
	select {
	case g := <-ch:
		return g, nil
	case <-ctx.Done():
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case g := <-ch:
		// The grant raced the cancellation: the query holds a slot; give
		// it back without running anything.
		_ = g
		_ = s.core.Complete(q, false)
	default:
		_ = s.core.Cancel(q)
		delete(s.waiters, q.ID)
	}
	s.pumpLocked()
	return grant{}, ctx.Err()
}

// stall blocks for an injected reader stall, charging it as simulated time
// when a scale is wired (a stalled reader's time really passes).
func (s *Scheduler) stall(ctx context.Context, d time.Duration) {
	if s.cfg.Scale != nil {
		s.cfg.Scale.Sleep(ctx, d)
		return
	}
	time.Sleep(d)
}

// yieldFunc is the cooperative scheduling point installed on every running
// query's context. When higher-priority or same-share work is waiting and
// no slot is free, the query releases its slot, requeues at the front of
// its lane (pinned to its reader — its open scans hold reader state) and
// blocks until redispatched.
func (s *Scheduler) yieldFunc(q *Query, ch chan grant) exec.YieldFunc {
	return func(ctx context.Context) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.mu.Lock()
		s.now = iomodel.Now(ctx)
		if !s.core.ShouldYield(q) {
			s.mu.Unlock()
			return nil
		}
		if err := s.core.Requeue(q); err != nil {
			s.mu.Unlock()
			return nil
		}
		s.pumpLocked()
		s.mu.Unlock()
		g, err := s.await(ctx, q, ch)
		if err != nil {
			return err
		}
		iomodel.JoinAt(ctx, g.at)
		if g.stall > 0 {
			s.stall(ctx, g.stall)
		}
		return nil
	}
}

// Counters returns the core's conservation ledger.
func (s *Scheduler) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.Counters()
}

// FaultRejected reports admissions dropped by the SchedAdmit fault site
// (they never reach the core's ledger).
func (s *Scheduler) FaultRejected() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.faultRejected
}

// Dispatches reports a tenant's dispatch count.
func (s *Scheduler) Dispatches(tenant string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.Dispatches(tenant)
}

// ChargedTokens reports the simulated service time debited from a tenant.
func (s *Scheduler) ChargedTokens(tenant string) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.ChargedTokens(tenant)
}

// LaneStats is one lane's admission and queue-wait record.
type LaneStats struct {
	Lane     Lane
	Admitted int64
	Rejected int64
	// Waits holds each admitted query's first-dispatch queue wait.
	Waits []time.Duration
}

// Lanes returns per-lane admission counts and queue waits (copies).
func (s *Scheduler) Lanes() [NumLanes]LaneStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out [NumLanes]LaneStats
	for l := 0; l < int(NumLanes); l++ {
		out[l] = LaneStats{
			Lane:     Lane(l),
			Admitted: s.laneAdmitted[l],
			Rejected: s.laneRejected[l],
			Waits:    append([]time.Duration(nil), s.laneWaits[l]...),
		}
	}
	return out
}

// CheckConservation audits the ledger; see Core.CheckConservation.
func (s *Scheduler) CheckConservation() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.CheckConservation()
}
