package simtest

import (
	"context"
	"fmt"
	"sort"
	"time"

	"cloudiq/internal/faultinject"
	"cloudiq/internal/sched"
)

// Query-mode harness: the q-* steps drive a sched.Core — the deterministic
// half of the concurrent-serving front end — clocked by the simulation's
// charged time. Queries target the coordinator's tables; finishing one scans
// its table through the exec pipeline and compares against the model, so a
// scheduled query is held to the same equivalence oracle as a direct scan.
// The scheduler's reader fleet is modeled (named slots, stall faults, crash
// steps), which is exactly the state machine the real Scheduler shell locks
// around.

// qTenants is the fixed three-tenant topology of query-mode scripts:
// weights 4/2/1, tight queue budgets so admission rejections actually
// happen, and a token-metered bronze tier.
var qTenants = []sched.TenantConfig{
	{Name: "gold", Weight: 4, QueueBudget: 3},
	{Name: "silver", Weight: 2, QueueBudget: 2},
	{Name: "bronze", Weight: 1, QueueBudget: 2, TokenRate: 0.001, TokenBurst: 50 * time.Millisecond},
}

// qReaders is the modeled reader fleet: name → slots. Crash steps remove
// and re-add entries by name.
var qReaders = []struct {
	Name  string
	Slots int
}{
	{"r0", 2},
	{"r1", 1},
}

func (r *runner) setupQueries() error {
	r.qcore = sched.NewCore(r.scale.Charged)
	r.qlive = make(map[uint64]*sched.Query)
	r.qtable = make(map[uint64]string)
	r.qterm = make(map[uint64]int)
	for _, cfg := range qTenants {
		if err := r.qcore.AddTenant(cfg); err != nil {
			return err
		}
	}
	for _, rd := range qReaders {
		if err := r.qcore.AddReader(rd.Name, rd.Slots); err != nil {
			return err
		}
	}
	return nil
}

// qTerminate records one terminal transition for q. A transition error from
// the core, or a second terminal for the same query, is a lifecycle
// violation.
func (r *runner) qTerminate(q *sched.Query, err error) error {
	if err != nil {
		return fmt.Errorf("%w: %v", ErrQueryLost, err)
	}
	r.qterm[q.ID]++
	if r.qterm[q.ID] > 1 {
		return fmt.Errorf("%w: query %d terminated %d times", ErrQueryLost, q.ID, r.qterm[q.ID])
	}
	delete(r.qlive, q.ID)
	return nil
}

// qPick returns the live queries in the given state, ID-sorted so that the
// Arg-indexed pick is deterministic.
func (r *runner) qPick(state sched.State) []*sched.Query {
	var out []*sched.Query
	for _, q := range r.qlive {
		if q.State == state {
			out = append(out, q)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (r *runner) qSubmitStep(i int, st Step) error {
	if r.qcore == nil {
		r.logf(i, st, "noop: queries off")
		return nil
	}
	tenant := qTenants[st.Rows%len(qTenants)].Name
	lane := sched.Lane(st.Arg % int(sched.NumLanes))
	table := r.sc.TableName("coord", st.Table)
	// Injected admission drop: shed before the core sees it, like the
	// concurrent shell does — no ledger entry, no tokens charged.
	if err := r.plan.Check(faultinject.SchedAdmit, tenant); err != nil {
		r.qdrops++
		r.logf(i, st, "fault-dropped %s/%s", tenant, lane)
		return nil
	}
	q, rej := r.qcore.Submit(tenant, lane)
	if rej != nil {
		r.logf(i, st, "rejected %s/%s (%s) retry=%s", tenant, lane, rej.Reason, rej.RetryAfter)
		return nil
	}
	r.qlive[q.ID] = q
	r.qtable[q.ID] = table
	r.logf(i, st, "q%d %s/%s scans %s depth=%d", q.ID, tenant, lane, table, q.DepthAtSubmit)
	return nil
}

func (r *runner) qDispatchStep(ctx context.Context, i int, st Step) error {
	if r.qcore == nil {
		r.logf(i, st, "noop: queries off")
		return nil
	}
	q, ok := r.qcore.Dispatch()
	if !ok {
		r.logf(i, st, "noop: nothing dispatchable")
		return nil
	}
	r.qStall(ctx, q)
	r.logf(i, st, "q%d on %s wait=%s", q.ID, q.Reader, q.FirstWait)
	return nil
}

// qStall draws the reader-stall fault for a fresh dispatch and charges it as
// simulated time, mirroring the concurrent shell.
func (r *runner) qStall(ctx context.Context, q *sched.Query) {
	if lag := r.plan.LagAt(faultinject.SchedStall, q.Reader); lag > 0 {
		r.scale.Sleep(ctx, time.Duration(lag)*time.Millisecond)
	}
}

func (r *runner) qFinishStep(ctx context.Context, i int, st Step) error {
	if r.qcore == nil {
		r.logf(i, st, "noop: queries off")
		return nil
	}
	running := r.qPick(sched.Running)
	if len(running) == 0 {
		r.logf(i, st, "noop: nothing running")
		return nil
	}
	q := running[st.Arg%len(running)]
	ok, err := r.runQueryScan(ctx, q)
	if err != nil {
		return err
	}
	if err := r.qTerminate(q, r.qcore.Complete(q, ok)); err != nil {
		return err
	}
	r.logf(i, st, "q%d %s ok=%t charged=%s", q.ID, q.State, ok, r.qcore.ChargedTokens(q.Tenant))
	return nil
}

// runQueryScan executes a query's work — scan its table on the coordinator
// and compare with the model. The bool is the query's own outcome (false
// when the table does not exist: the query fails, the scheduler does not);
// the error is an oracle violation.
func (r *runner) runQueryScan(ctx context.Context, q *sched.Query) (bool, error) {
	name := r.qtable[q.ID]
	nm := r.model.node("coord")
	if !nm.committed(name) {
		return false, nil
	}
	if r.cl.Node("coord") == nil {
		// Cluster mode can kill the coordinator out from under a scheduled
		// query; the query fails, the oracle does not.
		return false, nil
	}
	tx := r.cl.Node("coord").Begin()
	defer tx.Rollback(ctx)
	tbl, err := tx.Table(ctx, r.cl.Space(), name)
	if err != nil {
		return false, fmt.Errorf("%w: scheduled query %d: open %s: %v", ErrEquivalence, q.ID, name, err)
	}
	rows, err := r.scanRowsChecked(ctx, tbl)
	if err != nil {
		return false, fmt.Errorf("%w: scheduled query %d: scan %s: %v", ErrEquivalence, q.ID, name, err)
	}
	if err := sameRows(rows, nm.rows(name)); err != nil {
		return false, fmt.Errorf("%w: scheduled query %d: table %s: %v", ErrEquivalence, q.ID, name, err)
	}
	return true, nil
}

func (r *runner) qCancelStep(i int, st Step) error {
	if r.qcore == nil {
		r.logf(i, st, "noop: queries off")
		return nil
	}
	queued := r.qPick(sched.Queued)
	if len(queued) == 0 {
		r.logf(i, st, "noop: nothing queued")
		return nil
	}
	q := queued[st.Arg%len(queued)]
	if err := r.qTerminate(q, r.qcore.Cancel(q)); err != nil {
		return err
	}
	r.logf(i, st, "q%d", q.ID)
	return nil
}

// qCrashReaderStep crashes one scheduler reader mid-query: every query
// running on it fails (terminal, exactly once), queued queries pinned to it
// wait, and the reader rejoins the fleet immediately.
func (r *runner) qCrashReaderStep(i int, st Step) error {
	if r.qcore == nil {
		r.logf(i, st, "noop: queries off")
		return nil
	}
	rd := qReaders[st.Arg%len(qReaders)]
	victims := r.qcore.RemoveReader(rd.Name)
	for _, q := range victims {
		if err := r.qTerminate(q, r.qcore.Complete(q, false)); err != nil {
			return err
		}
	}
	if err := r.qcore.AddReader(rd.Name, rd.Slots); err != nil {
		return fmt.Errorf("%w: reader %s did not rejoin: %v", ErrQueryLost, rd.Name, err)
	}
	r.logf(i, st, "%s killed=%d", rd.Name, len(victims))
	return nil
}

// queryLedgerOracle is the cheap half of the sixth oracle, run at every
// check/quiesce: the scheduler's conservation ledger must balance.
func (r *runner) queryLedgerOracle() error {
	if r.qcore == nil {
		return nil
	}
	if err := r.qcore.CheckConservation(); err != nil {
		return fmt.Errorf("%w: %v", ErrQueryLost, err)
	}
	return nil
}

// drainQueries runs the scheduler dry — dispatch and finish everything,
// cancelling whatever cannot run — then audits that every admitted query
// reached exactly one terminal state. Queued queries pinned to a saturated
// reader always drain here because finishing frees slots.
func (r *runner) drainQueries(ctx context.Context) error {
	if r.qcore == nil {
		return nil
	}
	for {
		if q, ok := r.qcore.Dispatch(); ok {
			r.qStall(ctx, q)
			ok2, err := r.runQueryScan(ctx, q)
			if err != nil {
				return err
			}
			if err := r.qTerminate(q, r.qcore.Complete(q, ok2)); err != nil {
				return err
			}
			continue
		}
		if running := r.qPick(sched.Running); len(running) > 0 {
			q := running[0]
			ok, err := r.runQueryScan(ctx, q)
			if err != nil {
				return err
			}
			if err := r.qTerminate(q, r.qcore.Complete(q, ok)); err != nil {
				return err
			}
			continue
		}
		break
	}
	for _, q := range r.qPick(sched.Queued) {
		if err := r.qTerminate(q, r.qcore.Cancel(q)); err != nil {
			return err
		}
	}
	if err := r.queryLedgerOracle(); err != nil {
		return err
	}
	n := r.qcore.Counters()
	if n.Queued != 0 || n.Running != 0 {
		return fmt.Errorf("%w: %d queued / %d running after drain", ErrQueryLost, n.Queued, n.Running)
	}
	if int64(len(r.qterm)) != n.Admitted {
		return fmt.Errorf("%w: %d admitted but %d terminals recorded", ErrQueryLost, n.Admitted, len(r.qterm))
	}
	if len(r.qlive) != 0 {
		return fmt.Errorf("%w: %d queries still live after drain", ErrQueryLost, len(r.qlive))
	}
	return nil
}
