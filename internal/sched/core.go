// Package sched is the concurrent-serving front end of the engine: a
// multi-tenant query scheduler with admission control over the multiplex
// reader fleet. It answers the "millions of users" axis the same way the
// storage stack answers durability — with a small deterministic core that
// property tests and the whole-system simulator can drive exhaustively, and
// a thin concurrent shell on top.
//
// The core implements:
//
//   - per-tenant token buckets denominated in simulated service time
//     (tokens refill with the injected clock — the callers' modelled-I/O
//     clock under Scheduler — and are debited with each query's measured
//     service time at completion; rejected queries are never charged);
//   - bounded admission queues with backpressure: once a tenant's queue
//     budget is exceeded, or its bucket is in debt, Submit rejects with a
//     retry-after hint instead of queueing unboundedly;
//   - three strict priority lanes per tenant (high before normal before
//     low) and weighted deficit round-robin across tenants, so one tenant's
//     flood cannot starve another's trickle;
//   - reader-node load balancing: admitted queries dispatch to the
//     least-loaded reader with a free slot; a query that has started on a
//     reader is pinned there across yields (its open scans hold reader
//     state).
//
// Core is single-threaded and clock-injected: the same submit/dispatch/
// complete sequence always produces the same decisions, which is what the
// fairness property tests and the simtest query-lifecycle oracle rely on.
// Scheduler (sched.go) wraps it in a mutex and condition channels for real
// concurrent callers.
package sched

import (
	"errors"
	"fmt"
	"time"
)

// Lane is a priority lane within a tenant. Lower values dispatch first.
type Lane int

// The three priority lanes.
const (
	LaneHigh Lane = iota
	LaneNormal
	LaneLow
	// NumLanes is the lane count, for sizing per-lane state.
	NumLanes
)

// String names the lane for logs, traces and reports.
func (l Lane) String() string {
	switch l {
	case LaneHigh:
		return "high"
	case LaneNormal:
		return "normal"
	case LaneLow:
		return "low"
	}
	return fmt.Sprintf("lane%d", int(l))
}

// ErrRejected is the sentinel wrapped by every admission rejection.
var ErrRejected = errors.New("sched: admission rejected")

// Rejection explains a rejected submission and hints when to retry.
type Rejection struct {
	Tenant string
	Lane   Lane
	// Reason is "queue" (lane budget exceeded), "tokens" (bucket in debt)
	// or "fault" (injected admission drop).
	Reason string
	// RetryAfter is the suggested backoff in simulated time.
	RetryAfter time.Duration
}

// Error implements error.
func (r *Rejection) Error() string {
	return fmt.Sprintf("sched: %s/%s rejected (%s), retry after %s",
		r.Tenant, r.Lane, r.Reason, r.RetryAfter)
}

// Unwrap lets errors.Is(err, ErrRejected) classify rejections.
func (r *Rejection) Unwrap() error { return ErrRejected }

// State is a query's lifecycle position. Transitions are
// Queued→Running→{Completed,Failed}, Running→Queued (yield),
// Queued→Cancelled. Terminal states are reached exactly once; Core returns
// an error on any second terminal transition, which the simtest oracle
// turns into a query-lifecycle violation.
type State int

// Query lifecycle states.
const (
	Queued State = iota
	Running
	Completed
	Cancelled
	Failed
)

// String names the state.
func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Completed:
		return "completed"
	case Cancelled:
		return "cancelled"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("state%d", int(s))
}

// Query is one admitted schedulable unit.
type Query struct {
	ID     uint64
	Tenant string
	Lane   Lane
	State  State

	// SubmitAt/DispatchAt stamp the admission and (latest) dispatch on the
	// core's clock; their difference is the queue wait.
	SubmitAt   time.Duration
	DispatchAt time.Duration
	// FirstWait is the queue wait of the first dispatch (the admission
	// latency a client observes).
	FirstWait time.Duration
	// DepthAtSubmit is the tenant's total backlog when this query was
	// admitted (traced as queue_depth).
	DepthAtSubmit int
	// Reader is the assigned reader node; once set the query is pinned to
	// it across yields.
	Reader string

	dispatched bool
}

// TenantConfig declares one tenant.
type TenantConfig struct {
	// Name identifies the tenant; must be unique and non-empty.
	Name string
	// Weight is the WDRR share (default 1). A weight-4 tenant receives 4×
	// the dispatches of a weight-1 tenant while both are backlogged.
	Weight int
	// QueueBudget bounds the tenant's total queued queries across lanes
	// (default 64). Beyond it, Submit rejects with backpressure.
	QueueBudget int
	// TokenRate is the bucket refill rate in simulated service seconds per
	// simulated clock second (0 = unmetered). A rate of 2.0 lets the
	// tenant consume two reader-seconds per elapsed second.
	TokenRate float64
	// TokenBurst caps the bucket (default 1s of service time).
	TokenBurst time.Duration
}

type tenant struct {
	cfg     TenantConfig
	lanes   [NumLanes][]*Query
	deficit int

	tokens     float64 // simulated ns of service credit; may go negative
	lastRefill time.Duration

	// accounting
	queued     int
	dispatches int64
	charged    int64 // total simulated ns debited (audit: 0 for pure-reject tenants)
	// avgService is an EWMA of completed service times, for retry-after
	// hints on queue-full rejections.
	avgService time.Duration
}

func (t *tenant) refill(now time.Duration) {
	if t.cfg.TokenRate <= 0 {
		return
	}
	dt := now - t.lastRefill
	if dt <= 0 {
		return
	}
	t.lastRefill = now
	t.tokens += float64(dt) * t.cfg.TokenRate
	if burst := float64(t.cfg.TokenBurst); t.tokens > burst {
		t.tokens = burst
	}
}

// backlogged reports whether any lane holds a query.
func (t *tenant) backlogged() bool { return t.queued > 0 }

// head pops the next query in strict lane order.
func (t *tenant) head() *Query {
	for l := range t.lanes {
		if len(t.lanes[l]) > 0 {
			return t.lanes[l][0]
		}
	}
	return nil
}

func (t *tenant) pop(q *Query) {
	lane := t.lanes[q.Lane]
	for i, x := range lane {
		if x == q {
			t.lanes[q.Lane] = append(lane[:i:i], lane[i+1:]...)
			t.queued--
			return
		}
	}
}

type reader struct {
	name    string
	slots   int
	running []*Query
	// draining: no new dispatches; the reader leaves the fleet once its
	// running queries finish. Queued queries pinned to it were unpinned
	// when the drain started.
	draining bool
}

// Counters is the conservation ledger: submitted = admitted + rejected, and
// admitted = completed + cancelled + failed + queued + running.
type Counters struct {
	Submitted int64
	Admitted  int64
	Rejected  int64
	Completed int64
	Cancelled int64
	Failed    int64
	Queued    int64
	Running   int64
}

// Core is the deterministic scheduler state machine. It is not safe for
// concurrent use; Scheduler provides the locked shell.
type Core struct {
	clock   func() time.Duration
	tenants map[string]*tenant
	order   []string // tenant round-robin order (insertion order)
	rr      int      // next tenant index for WDRR rounds
	readers []*reader
	nextID  uint64

	counters Counters
}

// NewCore builds a core on the injected clock. A nil clock counts dispatch
// rounds (useful in pure logic tests); real embedders pass a simulated
// clock: Scheduler its callers' modelled-I/O time, the simulator
// iomodel.Scale.Charged.
func NewCore(clock func() time.Duration) *Core {
	c := &Core{tenants: make(map[string]*tenant)}
	if clock == nil {
		var tick time.Duration
		clock = func() time.Duration { tick += time.Microsecond; return tick }
	}
	c.clock = clock
	return c
}

// AddTenant registers a tenant.
func (c *Core) AddTenant(cfg TenantConfig) error {
	if cfg.Name == "" {
		return errors.New("sched: tenant name required")
	}
	if _, ok := c.tenants[cfg.Name]; ok {
		return fmt.Errorf("sched: tenant %q already registered", cfg.Name)
	}
	if cfg.Weight <= 0 {
		cfg.Weight = 1
	}
	if cfg.QueueBudget <= 0 {
		cfg.QueueBudget = 64
	}
	if cfg.TokenBurst <= 0 {
		cfg.TokenBurst = time.Second
	}
	t := &tenant{cfg: cfg, lastRefill: c.clock(), avgService: time.Millisecond}
	if cfg.TokenRate > 0 {
		t.tokens = float64(cfg.TokenBurst) // start full
	}
	c.tenants[cfg.Name] = t
	c.order = append(c.order, cfg.Name)
	return nil
}

// AddReader registers a reader node with the given concurrency slots.
// Membership is dynamic: the cluster controller adds readers while queries
// are queued and running (the Scheduler shell pumps the dispatch loop right
// after, so waiting work lands on the new reader immediately).
func (c *Core) AddReader(name string, slots int) error {
	if slots <= 0 {
		slots = 1
	}
	for _, r := range c.readers {
		if r.name == name {
			return fmt.Errorf("sched: reader %q already registered", name)
		}
	}
	c.readers = append(c.readers, &reader{name: name, slots: slots})
	return nil
}

// RemoveReader drops a reader (a crash) and returns the queries that were
// running on it; the caller decides their fate (fail them, or requeue).
// Queued queries pinned to the removed reader are unpinned — their
// reader-local scan state died with the reader, so they place fresh on the
// surviving fleet instead of waiting forever for a name that will never
// have a free slot again.
func (c *Core) RemoveReader(name string) []*Query {
	for i, r := range c.readers {
		if r.name == name {
			c.readers = append(c.readers[:i:i], c.readers[i+1:]...)
			c.unpinQueued(name)
			return r.running
		}
	}
	return nil
}

// DrainReader starts a graceful drain: the reader takes no new dispatches,
// its running queries finish normally (or unpin when they yield), and
// queued queries pinned to it are released to the rest of the fleet. The
// reader leaves the fleet the moment it goes idle; the return value reports
// whether it was removed immediately. Draining an unknown reader is a no-op
// returning false; conservation is untouched in every case.
func (c *Core) DrainReader(name string) bool {
	for i, r := range c.readers {
		if r.name != name {
			continue
		}
		r.draining = true
		c.unpinQueued(name)
		if len(r.running) == 0 {
			c.readers = append(c.readers[:i:i], c.readers[i+1:]...)
			return true
		}
		return false
	}
	return false
}

// Draining reports whether the named reader is present and draining.
func (c *Core) Draining(name string) bool {
	for _, r := range c.readers {
		if r.name == name {
			return r.draining
		}
	}
	return false
}

// Readers returns the current reader names in registration order, draining
// ones included (they still hold running queries).
func (c *Core) Readers() []string {
	out := make([]string, len(c.readers))
	for i, r := range c.readers {
		out[i] = r.name
	}
	return out
}

// unpinQueued clears the reader pin of every queued query pinned to name,
// walking tenants in registration order (deterministic).
func (c *Core) unpinQueued(name string) {
	for _, tn := range c.order {
		t := c.tenants[tn]
		for l := range t.lanes {
			for _, q := range t.lanes[l] {
				if q.Reader == name {
					q.Reader = ""
				}
			}
		}
	}
}

// reapDrained removes a draining reader that has gone idle.
func (c *Core) reapDrained(name string) {
	for i, r := range c.readers {
		if r.name == name && r.draining && len(r.running) == 0 {
			c.readers = append(c.readers[:i:i], c.readers[i+1:]...)
			return
		}
	}
}

// Submit admits or rejects a query. A nil Rejection means the query is
// queued; call Dispatch to drain. Rejected queries are never charged tokens.
func (c *Core) Submit(tenantName string, lane Lane) (*Query, *Rejection) {
	c.counters.Submitted++
	t, ok := c.tenants[tenantName]
	if !ok {
		c.counters.Rejected++
		return nil, &Rejection{Tenant: tenantName, Lane: lane, Reason: "queue", RetryAfter: time.Second}
	}
	if lane < 0 || lane >= NumLanes {
		lane = LaneLow
	}
	now := c.clock()
	t.refill(now)
	if t.queued >= t.cfg.QueueBudget {
		c.counters.Rejected++
		// Backpressure hint: roughly how long until the backlog drains at
		// the tenant's recent service rate and share of the fleet.
		after := time.Duration(t.queued) * t.avgService / time.Duration(t.cfg.Weight)
		if after < time.Millisecond {
			after = time.Millisecond
		}
		// Clamp the hint: under high concurrency the charged clock advances
		// for every in-flight query, so measured service times (and hence
		// this estimate) can be inflated by the whole fleet's charges. A
		// bounded hint keeps reject-retry loops live instead of parking
		// clients for hours of simulated time.
		if after > time.Second {
			after = time.Second
		}
		return nil, &Rejection{Tenant: tenantName, Lane: lane, Reason: "queue", RetryAfter: after}
	}
	if t.cfg.TokenRate > 0 && t.tokens <= 0 {
		c.counters.Rejected++
		after := time.Duration(-t.tokens / t.cfg.TokenRate)
		if after < time.Millisecond {
			after = time.Millisecond
		}
		return nil, &Rejection{Tenant: tenantName, Lane: lane, Reason: "tokens", RetryAfter: after}
	}
	c.nextID++
	q := &Query{
		ID: c.nextID, Tenant: tenantName, Lane: lane, State: Queued,
		SubmitAt: now, DepthAtSubmit: t.queued,
	}
	t.lanes[lane] = append(t.lanes[lane], q)
	t.queued++
	c.counters.Admitted++
	c.counters.Queued++
	return q, nil
}

// pickReader returns the least-loaded reader with a free slot (ties break on
// registration order, keeping the choice deterministic). When q is pinned,
// only its own reader qualifies.
func (c *Core) pickReader(q *Query) *reader {
	var best *reader
	for _, r := range c.readers {
		if r.draining {
			continue // no new work on a draining reader
		}
		if q.Reader != "" && r.name != q.Reader {
			continue
		}
		if len(r.running) >= r.slots {
			continue
		}
		if best == nil || len(r.running)*best.slots < len(best.running)*r.slots {
			best = r
		}
	}
	return best
}

// Dispatch runs one weighted-deficit-round-robin step: it selects the next
// query to run and assigns it a reader. It returns false when nothing can
// dispatch (no backlog, or no reader has a free slot for any head-of-line
// query). Callers drain by looping until false.
func (c *Core) Dispatch() (*Query, bool) {
	if len(c.order) == 0 || len(c.readers) == 0 {
		return nil, false
	}
	// Two sweeps over the tenant ring: the first spends existing deficits,
	// the second replenishes each backlogged tenant's deficit by its weight
	// and tries again. Dispatching at most one query per call keeps every
	// decision visible to the caller (and to the property tests).
	for sweep := 0; sweep < 2; sweep++ {
		for i := 0; i < len(c.order); i++ {
			idx := (c.rr + i) % len(c.order)
			t := c.tenants[c.order[idx]]
			if !t.backlogged() {
				t.deficit = 0 // standard DRR: idle tenants carry no credit
				continue
			}
			if sweep == 1 {
				// Replenish by the weight, capped: a tenant whose head is
				// pinned to a busy reader must not bank unbounded credit
				// while blocked and then burst past everyone.
				t.deficit += t.cfg.Weight
				if t.deficit > t.cfg.Weight {
					t.deficit = t.cfg.Weight
				}
			}
			if t.deficit <= 0 {
				continue
			}
			q := t.head()
			r := c.pickReader(q)
			if r == nil {
				continue // pinned to a busy reader, or fleet saturated
			}
			t.deficit--
			t.pop(q)
			// A slot freed before q arrived still serves q from its
			// arrival: a clock that is not monotone across callers (the
			// Scheduler's) never dates a dispatch before its submission.
			now := max(c.clock(), q.SubmitAt)
			t.refill(now)
			q.State = Running
			q.DispatchAt = now
			if !q.dispatched {
				q.dispatched = true
				q.FirstWait = now - q.SubmitAt
			}
			q.Reader = r.name
			r.running = append(r.running, q)
			t.dispatches++
			c.counters.Queued--
			c.counters.Running++
			// Advance the ring past this tenant only when its deficit is
			// spent, so a weight-w tenant keeps the floor for w dispatches.
			if t.deficit <= 0 {
				c.rr = (idx + 1) % len(c.order)
			} else {
				c.rr = idx
			}
			return q, true
		}
	}
	return nil, false
}

// Requeue yields a running query back to the front of its lane (it resumes
// before queued peers — its scans are warm) and frees its reader slot. The
// query stays pinned to its reader — unless that reader is draining, in
// which case the pin is released (the drain invalidates reader-local scan
// state anyway) and the idle reader leaves the fleet.
func (c *Core) Requeue(q *Query) error {
	if q.State != Running {
		return fmt.Errorf("sched: requeue of %s query %d", q.State, q.ID)
	}
	c.detach(q)
	if c.Draining(q.Reader) {
		name := q.Reader
		q.Reader = ""
		c.reapDrained(name)
	}
	t := c.tenants[q.Tenant]
	q.State = Queued
	t.lanes[q.Lane] = append([]*Query{q}, t.lanes[q.Lane]...)
	t.queued++
	c.counters.Running--
	c.counters.Queued++
	return nil
}

func (c *Core) detach(q *Query) {
	for _, r := range c.readers {
		if r.name != q.Reader {
			continue
		}
		for i, x := range r.running {
			if x == q {
				r.running = append(r.running[:i:i], r.running[i+1:]...)
				return
			}
		}
	}
}

// Complete terminates a running query, freeing its slot and charging its
// measured service time to the tenant's bucket. ok=false records a failure
// (a crashed reader, a query error) instead of a completion.
func (c *Core) Complete(q *Query, ok bool) error {
	if q.State != Running {
		return fmt.Errorf("sched: complete of %s query %d", q.State, q.ID)
	}
	c.detach(q)
	c.reapDrained(q.Reader)
	t := c.tenants[q.Tenant]
	now := c.clock()
	t.refill(now)
	cost := now - q.DispatchAt
	if cost < 0 {
		cost = 0
	}
	t.tokens -= float64(cost)
	t.charged += int64(cost)
	t.avgService = (3*t.avgService + cost) / 4
	c.counters.Running--
	if ok {
		q.State = Completed
		c.counters.Completed++
	} else {
		q.State = Failed
		c.counters.Failed++
	}
	return nil
}

// Cancel terminates a queued query without running it. Cancelling a query
// that is running or already terminal is an error (the lifecycle oracle's
// "exactly once" edge).
func (c *Core) Cancel(q *Query) error {
	if q.State != Queued {
		return fmt.Errorf("sched: cancel of %s query %d", q.State, q.ID)
	}
	t := c.tenants[q.Tenant]
	t.pop(q)
	q.State = Cancelled
	c.counters.Queued--
	c.counters.Cancelled++
	return nil
}

// ShouldYield reports whether a running query ought to release its slot at
// its next yield point: true when a strictly higher lane of its own tenant
// has backlog, or when any query is waiting while every slot is occupied.
// With an empty backlog it is false, so yield points cost nothing at
// concurrency one.
func (c *Core) ShouldYield(q *Query) bool {
	if q.State != Running {
		return false
	}
	t := c.tenants[q.Tenant]
	for l := Lane(0); l < q.Lane; l++ {
		if len(t.lanes[l]) > 0 {
			return true
		}
	}
	if c.counters.Queued == 0 {
		return false
	}
	return c.FreeSlots() == 0
}

// FreeSlots returns the total unoccupied reader slots. A draining reader's
// free slots don't count — nothing new may dispatch there.
func (c *Core) FreeSlots() int {
	free := 0
	for _, r := range c.readers {
		if r.draining {
			continue
		}
		free += r.slots - len(r.running)
	}
	return free
}

// LoadStats is the load snapshot the cluster controller's reader autoscaler
// consumes: backlog pressure (Queued, OldestWait) argues for scaling out,
// idle capacity (FreeSlots against Running) argues for scaling in.
type LoadStats struct {
	Queued     int           // queries waiting across all tenants and lanes
	Running    int           // queries occupying reader slots
	Readers    int           // non-draining readers
	Draining   int           // draining readers still finishing work
	FreeSlots  int           // unoccupied slots on non-draining readers
	OldestWait time.Duration // queue wait of the longest-waiting queued query
}

// Load takes the load snapshot. It reads the clock at most once (only when
// something is queued), so it perturbs the charged simulated clock no more
// than any other scheduling decision.
func (c *Core) Load() LoadStats {
	var s LoadStats
	s.Queued = int(c.counters.Queued)
	s.Running = int(c.counters.Running)
	for _, r := range c.readers {
		if r.draining {
			s.Draining++
			continue
		}
		s.Readers++
		s.FreeSlots += r.slots - len(r.running)
	}
	if s.Queued > 0 {
		now := c.clock()
		for _, tn := range c.order {
			t := c.tenants[tn]
			for l := range t.lanes {
				for _, q := range t.lanes[l] {
					if w := now - q.SubmitAt; w > s.OldestWait {
						s.OldestWait = w
					}
				}
			}
		}
	}
	return s
}

// Dispatches reports how many dispatches a tenant has received.
func (c *Core) Dispatches(tenantName string) int64 {
	if t, ok := c.tenants[tenantName]; ok {
		return t.dispatches
	}
	return 0
}

// ChargedTokens reports the total simulated service time debited from a
// tenant's bucket. Tenants whose every submission was rejected report zero.
func (c *Core) ChargedTokens(tenantName string) time.Duration {
	if t, ok := c.tenants[tenantName]; ok {
		return time.Duration(t.charged)
	}
	return 0
}

// Counters returns the conservation ledger.
func (c *Core) Counters() Counters { return c.counters }

// CheckConservation verifies the ledger invariants: every submission was
// admitted or rejected, and every admitted query is in exactly one of
// queued/running/terminal. It is the audit the stress test and the simtest
// oracle run after draining.
func (c *Core) CheckConservation() error {
	n := c.counters
	if n.Submitted != n.Admitted+n.Rejected {
		return fmt.Errorf("sched: submitted %d != admitted %d + rejected %d",
			n.Submitted, n.Admitted, n.Rejected)
	}
	if n.Admitted != n.Completed+n.Cancelled+n.Failed+n.Queued+n.Running {
		return fmt.Errorf("sched: admitted %d != completed %d + cancelled %d + failed %d + queued %d + running %d",
			n.Admitted, n.Completed, n.Cancelled, n.Failed, n.Queued, n.Running)
	}
	queued, running := 0, 0
	for _, name := range c.order {
		queued += c.tenants[name].queued
	}
	for _, r := range c.readers {
		running += len(r.running)
	}
	if int64(queued) != n.Queued || int64(running) != n.Running {
		return fmt.Errorf("sched: ledger says queued=%d running=%d, structures hold %d/%d",
			n.Queued, n.Running, queued, running)
	}
	return nil
}
