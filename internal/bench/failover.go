package bench

import (
	"context"
	"fmt"
	"time"

	"cloudiq"
	"cloudiq/internal/cluster"
	"cloudiq/internal/exec"
	"cloudiq/internal/faultinject"
	"cloudiq/internal/iomodel"
	"cloudiq/internal/multiplex"
	"cloudiq/internal/objstore"
	"cloudiq/internal/sched"
	"cloudiq/internal/simtest"
)

// FailoverCycle is one kill → promote → first-commit cycle of the failover
// experiment, timed on the simulated clock.
type FailoverCycle struct {
	Cycle int `json:"cycle"`
	// Epoch is the fence record after this cycle's promotion.
	Epoch uint64 `json:"fence_epoch"`
	// Rounds is how many reconcile rounds ran between the kill and the
	// promotion completing (detection + takeover).
	Rounds int `json:"reconcile_rounds_to_promote"`
	// PromoteSimMs is kill → standby activated as coordinator.
	PromoteSimMs float64 `json:"kill_to_promote_sim_ms"`
	// RestoreSimMs is kill → first transaction committed under the new
	// coordinator: the unavailability window a writer observes.
	RestoreSimMs float64 `json:"kill_to_first_commit_sim_ms"`
}

// FailoverReport is the result of the failover experiment: repeated
// coordinator kills against the reconcile-loop controller, measuring the
// unavailability window from kill to the first transaction committed under
// the promoted standby, and auditing that no committed row and no allocated
// key is lost across any takeover. The run is one goroutine on a scale that
// never sleeps, so its simulated times are Scale.Charged and elapsed at once.
type FailoverReport struct {
	Cycles          int     `json:"cycles"`
	Writers         int     `json:"writers"`
	CommitsPerCycle int     `json:"commits_per_cycle"`
	RowsPerCommit   int     `json:"rows_per_commit"`
	FinalEpoch      uint64  `json:"final_fence_epoch"`
	CommittedRows   int64   `json:"committed_rows"`
	SurvivedRows    int64   `json:"survived_rows"`
	MaxRestoreSimMs float64 `json:"max_kill_to_first_commit_sim_ms"`
	// TotalSim is the whole experiment's simulated duration in seconds.
	TotalSim float64         `json:"total_sim_seconds"`
	PerCycle []FailoverCycle `json:"per_cycle"`
}

// failoverRounds bounds a single failover's reconcile loop: the point of the
// experiment is that unavailability is BOUNDED, so blowing this budget is a
// failure, not a longer measurement.
const failoverRounds = 64

// RunFailover executes the failover experiment: a coordinator and a writer
// over a shared object store with the paper's cloud-storage latencies, a
// warm standby kept by the reconcile-loop controller, and `cycles` repeated
// coordinator kills. Each cycle commits through the coordinator and the
// writer, kills the coordinator process, then drives reconcile rounds until
// the controller promotes the standby over the shared WAL and a fresh commit
// succeeds — the measured unavailability window. After every takeover the
// run audits that all previously committed rows survived, that writer key
// allocation resumes at the new epoch, and that the deposed handle is
// permanently fenced.
func RunFailover(ctx context.Context, base Options, cycles int) (*FailoverReport, error) {
	const (
		commitsPerCycle = 4
		rowsPerCommit   = 8
	)
	plan := faultinject.New(uint64(base.withDefaults().Seed))
	scale := iomodel.NewScale(0) // charge simulated time, never sleep
	store := objstore.NewMem(objstore.Config{
		ReadLatency:  iomodel.Latency{Base: 10 * time.Millisecond},
		WriteLatency: iomodel.Latency{Base: 25 * time.Millisecond},
		Scale:        scale,
		Faults:       plan,
	})
	cl, err := simtest.NewCluster(simtest.ClusterConfig{Plan: plan, Store: store, IOStats: base.IOStats})
	if err != nil {
		return nil, err
	}
	if err := cl.OpenCoord(ctx); err != nil {
		return nil, err
	}
	cl.AddWriter("w1")
	if err := cl.OpenWriter(ctx, "w1"); err != nil {
		return nil, err
	}
	core := sched.NewCore(scale.Charged)
	fleet := simtest.NewFleet(cl, core, plan, scale)
	spec := cluster.Spec{Standbys: 1, Writers: 1, ReadersMin: 1, ReadersMax: 2}
	ctrl := cluster.New(spec, fleet, plan)
	// Steady state before the first kill: standby warm, reader fleet at min.
	if err := ctrl.Converge(ctx, failoverRounds); err != nil {
		return nil, fmt.Errorf("bench: initial convergence: %w", err)
	}

	rep := &FailoverReport{
		Cycles:          cycles,
		Writers:         1,
		CommitsPerCycle: commitsPerCycle,
		RowsPerCommit:   rowsPerCommit,
	}
	var nextKey int64
	var coordRows, writerRows int64
	created := make(map[string]bool)
	for cycle := 1; cycle <= cycles; cycle++ {
		// Foreground work between failures: commits on both the coordinator
		// and the writer (the writer path exercises key-allocation RPCs).
		for i := 0; i < commitsPerCycle; i++ {
			if err := failoverCommit(ctx, cl.Coord(), cl.Space(), "ledger_coord", created, &nextKey, rowsPerCommit); err != nil {
				return nil, fmt.Errorf("bench: cycle %d coordinator commit: %w", cycle, err)
			}
			coordRows += rowsPerCommit
		}
		if err := failoverCommit(ctx, cl.Writer("w1"), cl.Space(), "ledger_w1", created, &nextKey, rowsPerCommit); err != nil {
			return nil, fmt.Errorf("bench: cycle %d writer commit: %w", cycle, err)
		}
		writerRows += rowsPerCommit
		// Steady-state checkpointing bounds the standby's replay window: a
		// promotion replays the WAL from the last checkpoint, so without this
		// the takeover time would grow with the cluster's entire history
		// instead of the work since the last checkpoint.
		if err := cl.Coord().Checkpoint(ctx); err != nil {
			return nil, fmt.Errorf("bench: cycle %d checkpoint: %w", cycle, err)
		}

		// Kill the coordinator process. Devices, store and fence record
		// survive; the controller has to notice via failed probes, promote
		// the standby, and replay the shared WAL.
		tKill := scale.Charged()
		cl.CrashCoord()
		rounds, promoted := 0, time.Duration(0)
		for cl.Coord() == nil {
			if rounds >= failoverRounds {
				return nil, fmt.Errorf("bench: cycle %d: coordinator not promoted within %d reconcile rounds", cycle, failoverRounds)
			}
			if _, err := ctrl.ReconcileOnce(ctx); err != nil {
				return nil, fmt.Errorf("bench: cycle %d reconcile: %w", cycle, err)
			}
			rounds++
		}
		promoted = scale.Charged() - tKill

		// First commit under the new coordinator closes the window.
		if err := failoverCommit(ctx, cl.Coord(), cl.Space(), "ledger_coord", created, &nextKey, rowsPerCommit); err != nil {
			return nil, fmt.Errorf("bench: cycle %d first post-failover commit: %w", cycle, err)
		}
		coordRows += rowsPerCommit
		restore := scale.Charged() - tKill

		// Back to steady state (fresh standby for the next cycle), then audit.
		if err := ctrl.Converge(ctx, failoverRounds); err != nil {
			return nil, fmt.Errorf("bench: cycle %d re-convergence: %w", cycle, err)
		}
		if err := failoverCommit(ctx, cl.Writer("w1"), cl.Space(), "ledger_w1", created, &nextKey, rowsPerCommit); err != nil {
			return nil, fmt.Errorf("bench: cycle %d writer commit at epoch %d: %w", cycle, cl.Epoch(), err)
		}
		writerRows += rowsPerCommit
		if dep := cl.Deposed(); dep != nil {
			if _, err := dep.AllocateKeys(ctx, "w1", 1); !multiplex.IsFenced(err) {
				return nil, fmt.Errorf("bench: cycle %d: deposed coordinator allocated keys: %v", cycle, err)
			}
		}
		got, err := failoverCount(ctx, cl.Coord(), cl.Space(), "ledger_coord")
		if err != nil {
			return nil, fmt.Errorf("bench: cycle %d audit: %w", cycle, err)
		}
		if got != coordRows {
			return nil, fmt.Errorf("bench: cycle %d: lost committed rows across takeover: %d survived, %d committed", cycle, got, coordRows)
		}
		gotW, err := failoverCount(ctx, cl.Writer("w1"), cl.Space(), "ledger_w1")
		if err != nil {
			return nil, fmt.Errorf("bench: cycle %d writer audit: %w", cycle, err)
		}
		if gotW != writerRows {
			return nil, fmt.Errorf("bench: cycle %d: lost committed writer rows: %d survived, %d committed", cycle, gotW, writerRows)
		}

		c := FailoverCycle{
			Cycle:        cycle,
			Epoch:        cl.Epoch(),
			Rounds:       rounds,
			PromoteSimMs: float64(promoted) / float64(time.Millisecond),
			RestoreSimMs: float64(restore) / float64(time.Millisecond),
		}
		rep.PerCycle = append(rep.PerCycle, c)
		if c.RestoreSimMs > rep.MaxRestoreSimMs {
			rep.MaxRestoreSimMs = c.RestoreSimMs
		}
	}
	rep.FinalEpoch = cl.Epoch()
	rep.CommittedRows = coordRows + writerRows
	rep.SurvivedRows = rep.CommittedRows // every audit above passed
	rep.TotalSim = scale.Charged().Seconds()
	return rep, nil
}

// failoverCommit commits one batch of sequential keys to the table,
// creating it on first use (tracked by the caller's created set, so the
// transaction never has to probe-and-fallback).
func failoverCommit(ctx context.Context, db *cloudiq.Database, space, table string, created map[string]bool, nextKey *int64, rows int) error {
	if db == nil {
		return fmt.Errorf("node is down")
	}
	tx := db.Begin()
	var (
		tbl *cloudiq.Table
		err error
	)
	if created[table] {
		tbl, err = tx.OpenTableForAppend(ctx, space, table)
	} else {
		tbl, err = tx.CreateTable(ctx, space, table, failoverSchema(), cloudiq.TableOptions{SegRows: 64})
	}
	if err != nil {
		_ = tx.Rollback(ctx)
		return err
	}
	b := cloudiq.NewBatch(failoverSchema())
	for i := 0; i < rows; i++ {
		b.Vecs[0].AppendInt(*nextKey)
		*nextKey++
	}
	if err := tbl.Append(ctx, b); err != nil {
		_ = tx.Rollback(ctx)
		return err
	}
	if err := tx.Commit(ctx); err != nil {
		return err
	}
	created[table] = true
	return nil
}

// failoverCount scans the table and returns its row count.
func failoverCount(ctx context.Context, db *cloudiq.Database, space, table string) (int64, error) {
	if db == nil {
		return 0, fmt.Errorf("node is down")
	}
	tx := db.Begin()
	defer tx.Rollback(ctx)
	tbl, err := tx.Table(ctx, space, table)
	if err != nil {
		return 0, err
	}
	src, err := exec.Scan(tbl, []string{"k"}, exec.ScanOptions{Prefetch: -1})
	if err != nil {
		return 0, err
	}
	out, err := exec.Collect(ctx, src)
	if err != nil {
		return 0, err
	}
	if out == nil || len(out.Vecs) == 0 {
		return 0, nil
	}
	return int64(len(out.Vecs[0].I64)), nil
}

func failoverSchema() cloudiq.Schema {
	return cloudiq.Schema{Cols: []cloudiq.ColumnDef{{Name: "k", Typ: cloudiq.Int64}}}
}

// Table renders the failover report.
func (rep *FailoverReport) Table() string {
	rows := make([][]string, 0, len(rep.PerCycle))
	for _, c := range rep.PerCycle {
		rows = append(rows, []string{
			fmt.Sprintf("%d", c.Cycle),
			fmt.Sprintf("%d", c.Epoch),
			fmt.Sprintf("%d", c.Rounds),
			fmt.Sprintf("%.1f", c.PromoteSimMs),
			fmt.Sprintf("%.1f", c.RestoreSimMs),
		})
	}
	out := FormatTable([]string{"cycle", "epoch", "rounds", "promote sim ms", "first commit sim ms"}, rows)
	out += fmt.Sprintf("%d kill/promote cycles: %d rows committed, %d survived, max unavailability %.1f sim ms\n",
		rep.Cycles, rep.CommittedRows, rep.SurvivedRows, rep.MaxRestoreSimMs)
	out += "(unavailability = coordinator kill to the first transaction committed under the\n promoted standby; every cycle audits that no committed row or key is lost)\n"
	return out
}
