package simtest

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"cloudiq"
	"cloudiq/internal/cluster"
	"cloudiq/internal/exec"
	"cloudiq/internal/faultinject"
	"cloudiq/internal/iomodel"
	"cloudiq/internal/mt"
	"cloudiq/internal/objstore"
	"cloudiq/internal/pageio"
	"cloudiq/internal/sched"
)

// Oracle violations. Run wraps them with the seed, step index and detail;
// test code and the shrinker classify with errors.Is.
var (
	// ErrEquivalence means a node's committed data (tables or rows)
	// diverges from the model.
	ErrEquivalence = errors.New("simtest: committed data diverges from model")
	// ErrSnapshotPIT means a snapshot's point-in-time state or the
	// snapshot list diverges from the model.
	ErrSnapshotPIT = errors.New("simtest: snapshot point-in-time state diverges")
	// ErrWriteTwice means an object key was Put more than once.
	ErrWriteTwice = errors.New("simtest: object key written twice")
	// ErrGCReach means GC reachability was violated: a reachable page is
	// missing from the store, or an unreachable key leaked after GC.
	ErrGCReach = errors.New("simtest: GC reachability violated")
	// ErrVisibility means transaction visibility regressed: a commit
	// sequence moved backwards, or a pinned read transaction's view
	// changed.
	ErrVisibility = errors.New("simtest: transaction visibility not monotonic")
	// ErrQueryLost means the query-lifecycle oracle tripped: an admitted
	// query was lost, terminated twice, or the scheduler's conservation
	// ledger stopped balancing.
	ErrQueryLost = errors.New("simtest: query lifecycle violated")
	// ErrConverge means the convergence oracle tripped: after a quiescent
	// period the reconcile-loop controller did not drive the fleet to the
	// spec's fixed point, or the converged fleet is wrong (no single active
	// unfenced coordinator, a deposed coordinator still serving, writers off
	// the spec generation, readers out of bounds).
	ErrConverge = errors.New("simtest: cluster did not converge to spec")
	// ErrDeltaCompact means the post-compaction equivalence oracle tripped:
	// a quiescent drain left delta rows live, lost rows on the way into the
	// columnar main, or the drained segments diverge from the model.
	ErrDeltaCompact = errors.New("simtest: delta compaction diverges from model")
)

// Classify maps a Run error to an oracle category ("" for success,
// "harness" for non-oracle failures). Shrinking preserves the category.
func Classify(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrEquivalence):
		return "equivalence"
	case errors.Is(err, ErrSnapshotPIT):
		return "snapshot"
	case errors.Is(err, ErrWriteTwice):
		return "write-twice"
	case errors.Is(err, ErrGCReach):
		return "gc"
	case errors.Is(err, ErrVisibility):
		return "visibility"
	case errors.Is(err, ErrQueryLost):
		return "query"
	case errors.Is(err, ErrConverge):
		return "converge"
	case errors.Is(err, ErrDeltaCompact):
		return "delta"
	default:
		return "harness"
	}
}

// Options parameterizes one simulation run.
type Options struct {
	// Seed generates the script when Script is nil.
	Seed uint64
	// Script overrides generation (parsed reproducers, shrunken scripts).
	Script *Script
	// Queries selects the query-mode generator (GenerateQueries) when
	// Script is nil: the base workload plus scheduler steps.
	Queries bool
	// Cluster selects the cluster-mode generator (GenerateCluster) when
	// Script is nil: the query-mode workload plus reconcile-loop controller
	// steps and the convergence oracle. Takes precedence over Queries.
	Cluster bool
	// Delta selects the delta-mode generator (GenerateDelta) when Script is
	// nil: the base workload plus ingest-lane steps and the post-compaction
	// equivalence oracle. Cluster and Queries take precedence.
	Delta bool
	// BrokenRetry ablates retry-until-found reads to a single attempt;
	// with an eventual-consistency window armed the oracles must fail.
	BrokenRetry bool
}

// Report is the deterministic outcome of a run: same options ⇒ identical
// report, including the charged simulated time (the engine runs on a
// factor-0 scale: nothing sleeps, but every modeled latency is accumulated).
type Report struct {
	Seed    uint64
	Script  *Script
	Steps   int
	Commits int
	// StepLog is the per-step outcome log.
	StepLog string
	// Trace is the fault plan's injection/lag event log.
	Trace string
	// Charged is the simulated time charged through the shared scale.
	Charged time.Duration
	// FaultEvents counts injected faults and lags.
	FaultEvents int
	// StoreKeys is the object count at the end of the run.
	StoreKeys int
}

// Fingerprint condenses everything that must be bit-reproducible across runs
// of the same seed: the step log, the fault trace, the charged simulated
// time and the final store shape.
func (r *Report) Fingerprint() string {
	return fmt.Sprintf("steps=%d commits=%d charged=%d faults=%d keys=%d\n%s\n%s",
		r.Steps, r.Commits, r.Charged, r.FaultEvents, r.StoreKeys, r.StepLog, r.Trace)
}

// pin is a long-lived read transaction and the view it must keep seeing.
type pin struct {
	tx   *cloudiq.Tx
	view map[string][]int64
}

type runner struct {
	sc    *Script
	plan  *faultinject.Plan
	scale *iomodel.Scale
	store *objstore.MemStore
	cl    *Cluster
	model *model

	txs   map[string]*cloudiq.Tx
	pins  map[string]*pin
	valid map[string]bool // node names in the script's topology
	clock int64

	// pushRng drives the pushdown differential oracle's per-scan choices
	// (nil unless Script.Pushdown). It is a dedicated stream so arming the
	// oracle never perturbs the fault-plan draws pinned seeds depend on.
	pushRng *mt.Source

	// query-mode state (nil/empty unless Script.Queries): the scheduler
	// core under test and the lifecycle ledger the sixth oracle audits.
	qcore  *sched.Core
	qlive  map[uint64]*sched.Query // admitted, not yet terminal
	qtable map[uint64]string       // query → table it scans
	qterm  map[uint64]int          // query → terminal transitions (must be 1)
	qdrops int                     // admissions dropped by the fault site

	// cluster-mode state (nil unless Script.Cluster): the reconcile-loop
	// controller under test, its actuation fleet, and the authoritative spec
	// (the "CRD" — c-spec steps edit it; a crashed controller is recreated
	// from it, never from the dead controller's memory).
	fleet *Fleet
	ctrl  *cluster.Controller
	spec  cluster.Spec

	commits int
	log     strings.Builder

	// snapshot bookkeeping: when TakeSnapshot fails after the engine
	// already registered the snapshot in memory, engine and model lists
	// can no longer be compared; the run degrades to data oracles only.
	snapOracle bool
}

// Run executes one simulation and returns its deterministic report. A nil
// error means every oracle held at every quiescent point.
func Run(ctx context.Context, opts Options) (*Report, error) {
	return runWithStats(ctx, opts, nil)
}

// runWithStats is Run with every node's per-layer pageio counters collected
// in ioStats (nil collects nothing). It exists for the package's own tests,
// which assert that a whole simulation went through the pageio pipeline.
func runWithStats(ctx context.Context, opts Options, ioStats *pageio.StatsRegistry) (*Report, error) {
	sc := opts.Script
	if sc == nil {
		switch {
		case opts.Cluster:
			sc = GenerateCluster(opts.Seed)
		case opts.Queries:
			sc = GenerateQueries(opts.Seed)
		case opts.Delta:
			sc = GenerateDelta(opts.Seed)
		default:
			sc = Generate(opts.Seed)
		}
	}
	plan := faultinject.New(sc.Seed)
	scale := iomodel.NewScale(0) // factor 0: charge simulated time, never sleep
	store := objstore.NewMem(objstore.Config{
		Consistency:  objstore.Consistency{NewKeyMissReads: sc.MissReads},
		ReadLatency:  iomodel.Latency{Base: 10 * time.Millisecond},
		WriteLatency: iomodel.Latency{Base: 25 * time.Millisecond},
		Scale:        scale,
		Faults:       plan,
	})
	ambient := func(p *faultinject.Plan) {
		if sc.FaultPut {
			p.Prob(faultinject.ObjPut, 0.02)
		}
		if sc.FaultDelete {
			p.Prob(faultinject.ObjDelete, 0.005)
		}
		if sc.FaultVisibility {
			p.Lag(faultinject.ObjVisibility, 0, 2)
		}
		if sc.FaultRPC {
			p.Prob(faultinject.RPCAlloc, 0.02)
			p.Prob(faultinject.RPCNotify, 0.15)
			p.Prob(faultinject.RPCRestart, 0.2)
		}
		if sc.FaultSched {
			p.Prob(faultinject.SchedAdmit, 0.05)
			p.Lag(faultinject.SchedStall, 0, 3)
		}
		if sc.FaultCluster {
			p.Prob(faultinject.RPCProbe, 0.15)
			p.Prob(faultinject.ClusterReconcile, 0.05)
			p.Prob(faultinject.ClusterPromote, 0.15)
		}
		if sc.FaultSelect {
			p.Prob(faultinject.ObjSelect, 0.1)
		}
		if sc.FaultDelta {
			p.Prob(faultinject.DeltaCompact, 0.05)
		}
	}
	ambient(plan)

	r := &runner{
		sc:         sc,
		plan:       plan,
		scale:      scale,
		store:      store,
		model:      newModel(sc.NodeNames()),
		txs:        make(map[string]*cloudiq.Tx),
		pins:       make(map[string]*pin),
		valid:      make(map[string]bool),
		snapOracle: sc.Snapshots,
	}
	for _, n := range sc.NodeNames() {
		r.valid[n] = true
	}
	if sc.Pushdown {
		r.pushRng = mt.New(sc.Seed ^ 0x70757368) // "push"
	}
	ccfg := ClusterConfig{
		Plan:        plan,
		Store:       store,
		IOStats:     ioStats,
		BrokenRetry: opts.BrokenRetry,
		Ambient:     ambient,
	}
	if sc.Snapshots {
		ccfg.SnapshotRetention = sc.Retent
		ccfg.SnapshotNow = func() int64 { return r.clock }
	}
	cl, err := NewCluster(ccfg)
	if err != nil {
		return nil, err
	}
	r.cl = cl
	if sc.Queries || sc.Cluster {
		if err := r.setupQueries(); err != nil {
			return nil, err
		}
	}
	if sc.Cluster {
		// Register the topology up front so the fleet's membership directory
		// is complete before the first reconcile round.
		for _, name := range sc.NodeNames()[1:] {
			cl.AddWriter(name)
		}
		r.fleet = NewFleet(cl, r.qcore, plan, scale)
		r.fleet.PreRestartWriter = r.preRestartWriter
		// A promotion kills every client session on the deposed coordinator:
		// open transactions and pins die with the old process, exactly like a
		// crash. Without this the runner would keep committing through the
		// deposed handle's local write path — the split-brain fencing exists
		// to prevent.
		cl.OnDepose = func() {
			delete(r.pins, "coord")
			delete(r.txs, "coord")
			r.model.node("coord").abort()
		}
		r.spec = cluster.Spec{
			Standbys:     1,
			Writers:      sc.Writers,
			ReadersMin:   1,
			ReadersMax:   4,
			ScaleOutWait: 5 * time.Millisecond,
			ScaleInFree:  3,
		}
		r.ctrl = cluster.New(r.spec, r.fleet, plan)
	}

	runErr := r.run(ctx)
	rep := &Report{
		Seed:        sc.Seed,
		Script:      sc,
		Steps:       len(sc.Steps),
		Commits:     r.commits,
		StepLog:     r.log.String(),
		Trace:       plan.TraceString(),
		Charged:     scale.Charged(),
		FaultEvents: plan.Injected(),
		StoreKeys:   store.Len(),
	}
	if runErr != nil {
		runErr = fmt.Errorf("seed %d: %w", sc.Seed, runErr)
	}
	return rep, runErr
}

func (r *runner) run(ctx context.Context) error {
	if err := r.cl.OpenCoord(ctx); err != nil {
		return err
	}
	for _, name := range r.sc.NodeNames()[1:] {
		if err := r.cl.OpenWriter(ctx, name); err != nil {
			return err
		}
	}
	for i, st := range r.sc.Steps {
		r.clock++
		if err := r.step(ctx, i, st); err != nil {
			return fmt.Errorf("step %d (%s %s): %w", i, st.Op, st.Node, err)
		}
	}
	return nil
}

func (r *runner) logf(i int, st Step, format string, args ...any) {
	target := st.Node
	if target == "" {
		target = "-"
	}
	fmt.Fprintf(&r.log, "#%03d %-12s %-5s %s\n", i, st.Op, target, fmt.Sprintf(format, args...))
}

func (r *runner) step(ctx context.Context, i int, st Step) error {
	if st.Node != "" && !r.valid[st.Node] {
		r.logf(i, st, "noop: unknown node")
		return nil
	}
	if r.sc.Cluster && st.Node != "" && r.cl.Node(st.Node) == nil {
		// Cluster mode leaves killed nodes down until the controller (or an
		// explicit crash-restart step) brings them back; workload steps that
		// would dereference the dead process are no-ops, like a client whose
		// connection fails.
		switch st.Op {
		case OpBegin, OpAppend, OpDrop, OpCheckpoint, OpGC, OpPin,
			OpDInsert, OpDFreeze, OpDCompact, OpDCrashCompact:
			r.logf(i, st, "noop: node down")
			return nil
		}
	}
	switch st.Op {
	case OpBegin:
		if r.txs[st.Node] != nil {
			r.logf(i, st, "noop: already open")
			return nil
		}
		r.txs[st.Node] = r.cl.Node(st.Node).Begin()
		r.model.node(st.Node).begin()
		r.logf(i, st, "ok")
		return nil

	case OpAppend:
		return r.appendStep(ctx, i, st)

	case OpCommit:
		tx := r.txs[st.Node]
		if tx == nil {
			r.logf(i, st, "noop: no open txn")
			return nil
		}
		delete(r.txs, st.Node)
		if err := tx.Commit(ctx); err != nil {
			// A transient fault exhausted the write-retry budget;
			// Commit already rolled the transaction back.
			r.model.node(st.Node).abort()
			r.logf(i, st, "failed (rolled back): %v", err)
			return nil
		}
		r.model.node(st.Node).commit()
		r.commits++
		r.logf(i, st, "ok seq=%d", r.cl.Node(st.Node).CommitSeq())
		return r.checkSeq(st.Node)

	case OpAbort:
		tx := r.txs[st.Node]
		if tx == nil {
			r.logf(i, st, "noop: no open txn")
			return nil
		}
		delete(r.txs, st.Node)
		err := tx.Rollback(ctx)
		r.model.node(st.Node).abort()
		r.logf(i, st, "ok (rollback err: %v)", err)
		return nil

	case OpDrop:
		return r.dropStep(ctx, i, st)

	case OpCrash:
		r.logf(i, st, "crash-restart")
		return r.crashNode(ctx, st.Node)

	case OpCrashCommit:
		return r.crashCommitStep(ctx, i, st)

	case OpCheckpoint:
		if err := r.cl.Node(st.Node).Checkpoint(ctx); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		r.logf(i, st, "ok")
		return nil

	case OpGC:
		if err := r.cl.Node(st.Node).CollectGarbage(ctx); err != nil {
			return fmt.Errorf("collect garbage: %w", err)
		}
		r.logf(i, st, "ok keys=%d", r.store.Len())
		return nil

	case OpCheck:
		r.logf(i, st, "keys=%d", r.store.Len())
		return r.lightOracles(ctx)

	case OpQuiesce:
		r.logf(i, st, "keys=%d", r.store.Len())
		return r.quiesce(ctx)

	case OpSnapshot:
		return r.snapshotStep(ctx, i, st)

	case OpRestore:
		return r.restoreStep(ctx, i, st)

	case OpExpire:
		return r.expireStep(ctx, i, st)

	case OpPin:
		return r.pinStep(ctx, i, st)

	case OpCheckPin:
		return r.checkPinStep(ctx, i, st)

	case OpUnpin:
		p := r.pins[st.Node]
		if p == nil {
			r.logf(i, st, "noop: not pinned")
			return nil
		}
		delete(r.pins, st.Node)
		_ = p.tx.Rollback(ctx)
		r.logf(i, st, "ok")
		return nil

	case OpReader:
		return r.readerStep(ctx, i, st)

	case OpQSubmit:
		return r.qSubmitStep(i, st)

	case OpQDispatch:
		return r.qDispatchStep(ctx, i, st)

	case OpQFinish:
		return r.qFinishStep(ctx, i, st)

	case OpQCancel:
		return r.qCancelStep(i, st)

	case OpQCrashReader:
		return r.qCrashReaderStep(i, st)

	case OpDInsert:
		return r.dInsertStep(ctx, i, st)

	case OpDFreeze:
		return r.dFreezeStep(i, st)

	case OpDCompact:
		return r.dCompactStep(ctx, i, st)

	case OpDCrashCompact:
		return r.dCrashCompactStep(ctx, i, st)

	case OpCKillCoord:
		return r.cKillCoordStep(i, st)

	case OpCKillWriter:
		return r.cKillWriterStep(i, st)

	case OpCReconcile:
		return r.cReconcileStep(ctx, i, st)

	case OpCCrashCtrl:
		return r.cCrashCtrlStep(i, st)

	case OpCPartition:
		return r.cPartitionStep(i, st)

	case OpCSpec:
		return r.cSpecStep(i, st)

	default:
		return fmt.Errorf("unknown op %q", st.Op)
	}
}

// appendStep appends Rows fresh rows to the step's table, creating it on
// first use. Any engine error rolls the whole transaction back (model too),
// which keeps model and engine in lockstep even when an allocation RPC fault
// interrupts an append halfway.
func (r *runner) appendStep(ctx context.Context, i int, st Step) error {
	nm := r.model.node(st.Node)
	name := r.sc.TableName(st.Node, st.Table)
	if !nm.canAppend(name) {
		r.logf(i, st, "noop: dropped in this txn")
		return nil
	}
	tx := r.txs[st.Node]
	if tx == nil {
		tx = r.cl.Node(st.Node).Begin()
		r.txs[st.Node] = tx
		nm.begin()
	}
	vals := r.model.takeRows(st.Rows)
	var (
		tbl *cloudiq.Table
		err error
	)
	if nm.committed(name) || len(nm.staged[name]) > 0 {
		tbl, err = tx.OpenTableForAppend(ctx, r.cl.Space(), name)
	} else {
		tbl, err = tx.CreateTable(ctx, r.cl.Space(), name, simSchema(), cloudiq.TableOptions{SegRows: r.sc.SegRows})
	}
	if err == nil {
		err = tbl.Append(ctx, simBatch(vals))
	}
	if err != nil {
		delete(r.txs, st.Node)
		_ = tx.Rollback(ctx)
		nm.abort()
		r.logf(i, st, "failed (rolled back): %v", err)
		return nil
	}
	nm.stageAppend(name, vals)
	r.logf(i, st, "%s +%d", name, st.Rows)
	return nil
}

// dropStep stages a drop of the step's table in the node's transaction.
func (r *runner) dropStep(ctx context.Context, i int, st Step) error {
	nm := r.model.node(st.Node)
	name := r.sc.TableName(st.Node, st.Table)
	if !nm.canDrop(name) {
		r.logf(i, st, "noop: %s not droppable", name)
		return nil
	}
	tx := r.txs[st.Node]
	if tx == nil {
		tx = r.cl.Node(st.Node).Begin()
		r.txs[st.Node] = tx
		nm.begin()
	}
	if err := tx.DropTable(ctx, r.cl.Space(), name); err != nil {
		delete(r.txs, st.Node)
		_ = tx.Rollback(ctx)
		nm.abort()
		r.logf(i, st, "failed (rolled back): %v", err)
		return nil
	}
	nm.stageDrop(name)
	r.logf(i, st, "%s", name)
	return nil
}

// crashNode kills and immediately restarts one node. The node's open
// transaction and pinned read transaction die with the process; a restarted
// writer announces itself to the coordinator for restart GC.
func (r *runner) crashNode(ctx context.Context, node string) error {
	delete(r.pins, node)
	delete(r.txs, node)
	r.model.node(node).abort()
	if node == "coord" {
		r.cl.CrashCoord()
		return r.cl.OpenCoord(ctx)
	}
	r.cl.CrashWriter(node)
	if err := r.cl.OpenWriter(ctx, node); err != nil {
		return err
	}
	_, err := r.cl.AnnounceRestart(ctx, node)
	return err
}

// crashCommitStep crashes the node in the middle of its open transaction's
// commit flush (after Arg page uploads), then restarts it. Without an open
// transaction it degrades to a plain crash.
func (r *runner) crashCommitStep(ctx context.Context, i int, st Step) error {
	tx := r.txs[st.Node]
	if tx == nil {
		r.logf(i, st, "no open txn: plain crash-restart")
		return r.crashNode(ctx, st.Node)
	}
	delete(r.txs, st.Node)
	if err := r.cl.DoomedCommit(ctx, tx, st.Arg); err != nil {
		return err
	}
	r.model.node(st.Node).abort()
	r.logf(i, st, "mid-flush crash after %d uploads", st.Arg)
	return r.crashNode(ctx, st.Node)
}

func (r *runner) snapshotStep(ctx context.Context, i int, st Step) error {
	if !r.sc.Snapshots {
		r.logf(i, st, "noop: snapshots off")
		return nil
	}
	info, err := r.cl.Coord().TakeSnapshot(ctx)
	if err != nil {
		// The engine registers the snapshot in memory before writing its
		// image, so after a failure the lists cannot be compared any
		// more; keep running with data oracles only.
		r.snapOracle = false
		r.logf(i, st, "failed: %v (snapshot-list oracle off)", err)
		return nil
	}
	r.model.addSnap(info.ID, info.Expiry)
	r.logf(i, st, "id=%d expiry=%d", info.ID, info.Expiry)
	return nil
}

func (r *runner) restoreStep(ctx context.Context, i int, st Step) error {
	if !r.sc.Snapshots || len(r.model.snaps) == 0 {
		r.logf(i, st, "noop: nothing to restore")
		return nil
	}
	if r.txs["coord"] != nil || r.pins["coord"] != nil {
		r.logf(i, st, "noop: active txn on coord")
		return nil
	}
	snap := r.model.snaps[st.Arg%len(r.model.snaps)]
	if err := r.cl.Coord().RestoreSnapshot(ctx, snap.id); err != nil {
		return fmt.Errorf("%w: restore %d: %v", ErrSnapshotPIT, snap.id, err)
	}
	r.model.restore(snap)
	r.logf(i, st, "id=%d", snap.id)
	// Point-in-time equivalence: the restored state must match the model's
	// snapshot copy exactly.
	if err := r.scanNode(ctx, "coord"); err != nil {
		return fmt.Errorf("%w: after restore of %d: %v", ErrSnapshotPIT, snap.id, err)
	}
	return nil
}

func (r *runner) expireStep(ctx context.Context, i int, st Step) error {
	if !r.sc.Snapshots {
		r.logf(i, st, "noop: snapshots off")
		return nil
	}
	r.clock += int64(st.Arg)
	n, err := r.cl.Coord().ExpireSnapshots(ctx)
	if err != nil {
		return fmt.Errorf("expire snapshots: %w", err)
	}
	r.model.expireSnaps(r.clock)
	r.logf(i, st, "+%d clock=%d reclaimed=%d", st.Arg, r.clock, n)
	return nil
}

func (r *runner) pinStep(ctx context.Context, i int, st Step) error {
	if old := r.pins[st.Node]; old != nil {
		_ = old.tx.Rollback(ctx)
		delete(r.pins, st.Node)
	}
	nm := r.model.node(st.Node)
	r.pins[st.Node] = &pin{tx: r.cl.Node(st.Node).Begin(), view: nm.snapshotView()}
	r.logf(i, st, "ok tables=%d", len(nm.tables))
	return nil
}

// checkPinStep re-reads every table of the pinned transaction's remembered
// view. MVCC guarantees the view is stable no matter how much the node
// committed, dropped or garbage collected since the pin — any divergence is
// a visibility violation (e.g. GC reclaimed a page version a live reader
// still needs).
func (r *runner) checkPinStep(ctx context.Context, i int, st Step) error {
	p := r.pins[st.Node]
	if p == nil {
		r.logf(i, st, "noop: not pinned")
		return nil
	}
	names := make([]string, 0, len(p.view))
	for t := range p.view {
		names = append(names, t)
	}
	sort.Strings(names)
	for _, name := range names {
		tbl, err := p.tx.Table(ctx, r.cl.Space(), name)
		if err != nil {
			return fmt.Errorf("%w: pinned table %s on %s vanished: %v", ErrVisibility, name, st.Node, err)
		}
		got, err := scanRows(ctx, tbl, exec.ScanOptions{})
		if err != nil {
			return fmt.Errorf("%w: pinned table %s on %s unreadable: %v", ErrVisibility, name, st.Node, err)
		}
		want := append([]int64(nil), p.view[name]...)
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		if err := sameRows(got, want); err != nil {
			return fmt.Errorf("%w: pinned view of %s on %s changed: %v", ErrVisibility, name, st.Node, err)
		}
	}
	r.logf(i, st, "ok tables=%d", len(names))
	return nil
}

// readerStep spins up an ephemeral reader node over a copy of the
// coordinator's log, verifies it sees exactly the coordinator's committed
// state, and that recovering + scanning as a reader never mutates the store.
func (r *runner) readerStep(ctx context.Context, i int, st Step) error {
	before := r.store.Len()
	db, err := r.cl.OpenReader(ctx, st.Arg == 1)
	if err != nil {
		return err
	}
	defer db.Close()
	err = r.scanDB(ctx, db, r.model.node("coord"))
	db.WaitIO()
	if err != nil {
		return fmt.Errorf("%w: reader node: %v", ErrEquivalence, err)
	}
	if after := r.store.Len(); after != before {
		return fmt.Errorf("%w: reader changed the store: %d -> %d objects", ErrEquivalence, before, after)
	}
	r.logf(i, st, "ok cache=%d", st.Arg)
	return nil
}

// --- oracles ---

// checkSeq enforces per-node commit-sequence monotonicity across commits,
// crashes and recoveries.
func (r *runner) checkSeq(node string) error {
	db := r.cl.Node(node)
	if db == nil {
		return nil
	}
	nm := r.model.node(node)
	seq := db.CommitSeq()
	if seq < nm.lastSeq {
		return fmt.Errorf("%w: %s commit seq regressed %d -> %d", ErrVisibility, node, nm.lastSeq, seq)
	}
	nm.lastSeq = seq
	return nil
}

// lightOracles runs the cheap per-node checks: sequence monotonicity,
// committed-data equivalence via exec scans, and never-write-twice.
func (r *runner) lightOracles(ctx context.Context) error {
	for _, node := range r.sc.NodeNames() {
		if r.cl.Node(node) == nil {
			continue
		}
		if err := r.checkSeq(node); err != nil {
			return err
		}
		if err := r.scanNode(ctx, node); err != nil {
			return err
		}
	}
	if err := r.queryLedgerOracle(); err != nil {
		return err
	}
	return r.checkWriteTwice()
}

func (r *runner) checkWriteTwice() error {
	if ow := r.store.OverwrittenKeys(); len(ow) > 0 {
		return fmt.Errorf("%w: %d keys (first: %s)", ErrWriteTwice, len(ow), ow[0])
	}
	return nil
}

// scanNode verifies one node's committed state against the model.
func (r *runner) scanNode(ctx context.Context, node string) error {
	db := r.cl.Node(node)
	if db == nil {
		return nil
	}
	if err := r.scanDB(ctx, db, r.model.node(node)); err != nil {
		return fmt.Errorf("%w: node %s: %v", ErrEquivalence, node, err)
	}
	return nil
}

// scanDB compares a database's committed tables (names and, through the exec
// pipeline, contents) against a node model.
func (r *runner) scanDB(ctx context.Context, db *cloudiq.Database, nm *nodeModel) error {
	tx := db.Begin()
	defer tx.Rollback(ctx)
	want := nm.tableNames()
	got := tx.Tables()
	sort.Strings(got)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		return fmt.Errorf("tables = [%s], want [%s]", strings.Join(got, ","), strings.Join(want, ","))
	}
	for _, name := range want {
		tbl, err := tx.Table(ctx, r.cl.Space(), name)
		if err != nil {
			return fmt.Errorf("open %s: %v", name, err)
		}
		rows, err := r.scanRowsChecked(ctx, tbl)
		if err != nil {
			return fmt.Errorf("scan %s: %v", name, err)
		}
		if err := sameRows(rows, nm.rows(name)); err != nil {
			return fmt.Errorf("table %s: %v", name, err)
		}
	}
	return nil
}

// scanRows reads a table's key column through the exec pipeline, read-ahead
// and all, and returns the values sorted.
func scanRows(ctx context.Context, tbl *cloudiq.Table, opts exec.ScanOptions) ([]int64, error) {
	src, err := exec.Scan(tbl, []string{"k"}, opts)
	if err != nil {
		return nil, err
	}
	out, err := exec.Collect(ctx, src)
	if err != nil {
		return nil, err
	}
	var rows []int64
	if out != nil && len(out.Vecs) > 0 {
		rows = append(rows, out.Vecs[0].I64...)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i] < rows[j] })
	return rows, nil
}

// scanRowsChecked is scanRows plus the pushdown differential oracle: on
// pushdown scripts a per-scan draw decides whether to re-read the table with
// store-side pushdown forced — unfiltered, or under a predicate drawn from
// the data — and the pushed result must match the plain read exactly. With
// the select fault family armed, injected obj.select failures make some of
// these scans fall back to plain reads mid-query; the result must still be
// identical. The forced scans run without read-ahead: obj.select faults are
// drawn from one stream per site in call order, and read-ahead tasks would
// reorder the calls from run to run.
func (r *runner) scanRowsChecked(ctx context.Context, tbl *cloudiq.Table) ([]int64, error) {
	rows, err := scanRows(ctx, tbl, exec.ScanOptions{})
	if err != nil || r.pushRng == nil {
		return rows, err
	}
	switch r.pushRng.Uint64() % 3 {
	case 0: // plain read only
	case 1: // unfiltered pushdown vs the plain read
		pushed, perr := scanRows(ctx, tbl, exec.ScanOptions{Pushdown: exec.PushdownForce, Prefetch: -1})
		if perr != nil {
			return nil, fmt.Errorf("pushdown scan: %v", perr)
		}
		if derr := sameRows(pushed, rows); derr != nil {
			return nil, fmt.Errorf("pushdown scan diverged: %v", derr)
		}
	case 2: // the same drawn predicate, pushed down vs evaluated reader-side
		if len(rows) == 0 {
			break
		}
		cut := rows[r.pushRng.Uint64()%uint64(len(rows))]
		pred := func() exec.Expr { return exec.Ge(exec.Col("k"), exec.ConstI(cut)) }
		plain, perr := scanRows(ctx, tbl, exec.ScanOptions{Filter: pred()})
		if perr != nil {
			return nil, fmt.Errorf("filtered scan: %v", perr)
		}
		pushed, perr := scanRows(ctx, tbl, exec.ScanOptions{Filter: pred(), Pushdown: exec.PushdownForce, Prefetch: -1})
		if perr != nil {
			return nil, fmt.Errorf("filtered pushdown scan: %v", perr)
		}
		if derr := sameRows(pushed, plain); derr != nil {
			return nil, fmt.Errorf("filtered pushdown (k >= %d) diverged: %v", cut, derr)
		}
	}
	return rows, nil
}

func sameRows(got, want []int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("row %d = %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}

// quiesce is the full quiescent point: close every pin and transaction,
// crash and recover the entire multiplex, run restart GC and garbage
// collection everywhere, then check all five oracle families.
func (r *runner) quiesce(ctx context.Context) error {
	if r.sc.Cluster {
		return r.clusterQuiesce(ctx)
	}
	nodes := r.sc.NodeNames()
	// 0. Drain the query scheduler and audit the lifecycle ledger: every
	// admitted query must reach exactly one terminal state.
	if err := r.drainQueries(ctx); err != nil {
		return err
	}
	// 1. Close pins and roll back open transactions in node order.
	for _, node := range nodes {
		if p := r.pins[node]; p != nil {
			_ = p.tx.Rollback(ctx)
			delete(r.pins, node)
		}
		if tx := r.txs[node]; tx != nil {
			_ = tx.Rollback(ctx)
			delete(r.txs, node)
			r.model.node(node).abort()
		}
	}
	// 2. Crash everything; 3. recover in Table 1's order: coordinator
	// first (its WAL holds allocations and received notifications), then
	// writers (replay re-notifies their commits), then the restart
	// announcements that trigger restart GC.
	for _, node := range nodes[1:] {
		r.cl.CrashWriter(node)
	}
	r.cl.CrashCoord()
	if err := r.cl.OpenCoord(ctx); err != nil {
		return err
	}
	for _, node := range nodes[1:] {
		if err := r.cl.OpenWriter(ctx, node); err != nil {
			return err
		}
	}
	for _, node := range nodes[1:] {
		if _, err := r.cl.AnnounceRestart(ctx, node); err != nil {
			return err
		}
	}
	// 3b. Delta-mode scripts: drain every node's delta store completely and
	// run the post-compaction equivalence oracle (the eighth family) before
	// GC retires the absorbed runs.
	if err := r.deltaQuiesceOracle(ctx); err != nil {
		return err
	}
	// 4. Garbage collect everywhere.
	for _, node := range nodes {
		if err := r.cl.Node(node).CollectGarbage(ctx); err != nil {
			return fmt.Errorf("collect garbage on %s: %w", node, err)
		}
	}
	// 5. Oracles.
	if err := r.lightOracles(ctx); err != nil {
		return err
	}
	if err := r.snapshotListOracle(); err != nil {
		return err
	}
	return r.reachabilityOracle(ctx)
}

// snapshotListOracle compares the engine's snapshot list with the model's.
func (r *runner) snapshotListOracle() error {
	if !r.sc.Snapshots || !r.snapOracle {
		return nil
	}
	infos, err := r.cl.Coord().Snapshots()
	if err != nil {
		return fmt.Errorf("%w: list: %v", ErrSnapshotPIT, err)
	}
	got := make([]uint64, len(infos))
	for i, s := range infos {
		got[i] = s.ID
	}
	want := r.model.snapIDs()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("%w: snapshot list %v, want %v", ErrSnapshotPIT, got, want)
	}
	return nil
}

// reachabilityOracle audits the store against the union of every node's
// reachable keys: a reachable key missing from the store is lost committed
// data (always fatal); a stored key that is neither reachable, nor retained
// by the snapshot manager, nor snapshot-manager metadata is a leak — checked
// only once every restart announcement has landed.
func (r *runner) reachabilityOracle(ctx context.Context) error {
	reachSet := make(map[string]struct{})
	for _, node := range r.sc.NodeNames() {
		db := r.cl.Node(node)
		if db == nil {
			continue
		}
		keys, err := db.ReachableKeys(ctx, r.cl.Space())
		if err != nil {
			return fmt.Errorf("%w: reachable keys on %s: %v", ErrGCReach, node, err)
		}
		for _, k := range keys {
			reachSet[k] = struct{}{}
		}
	}
	reach := make([]string, 0, len(reachSet))
	for k := range reachSet {
		reach = append(reach, k)
	}
	sort.Strings(reach)

	var stored []string
	for _, k := range r.store.AllKeys() {
		if strings.HasPrefix(k, "snapmgr/") {
			continue
		}
		stored = append(stored, k)
	}
	if dangling := subtract(reach, stored); len(dangling) > 0 {
		return fmt.Errorf("%w: %d reachable pages missing from the store (first: %s)",
			ErrGCReach, len(dangling), dangling[0])
	}
	if r.cl.GCPending() {
		return nil // orphans may legitimately survive until the next announcement
	}
	var retained []string
	if r.sc.Snapshots {
		var err error
		retained, err = r.cl.Coord().SnapshotRetainedKeys(r.cl.Space())
		if err != nil {
			return fmt.Errorf("%w: retained keys: %v", ErrGCReach, err)
		}
	}
	leaked := subtract(subtract(stored, reach), retained)
	if len(leaked) > 0 {
		return fmt.Errorf("%w: %d orphaned objects leaked after GC (first: %s)",
			ErrGCReach, len(leaked), leaked[0])
	}
	return nil
}

// subtract returns the elements of a not present in b; both sorted.
func subtract(a, b []string) []string {
	var out []string
	i, j := 0, 0
	for i < len(a) {
		switch {
		case j >= len(b) || a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] == b[j]:
			i++
			j++
		default:
			j++
		}
	}
	return out
}

func simSchema() cloudiq.Schema {
	return cloudiq.Schema{Cols: []cloudiq.ColumnDef{
		{Name: "k", Typ: cloudiq.Int64},
		{Name: "v", Typ: cloudiq.String},
	}}
}

func simBatch(vals []int64) *cloudiq.Batch {
	b := cloudiq.NewBatch(simSchema())
	for _, v := range vals {
		b.Vecs[0].AppendInt(v)
		b.Vecs[1].AppendStr(fmt.Sprintf("val-%d", v))
	}
	return b
}
