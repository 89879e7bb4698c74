package simtest

import (
	"context"
	"fmt"

	"cloudiq/internal/cluster"
	"cloudiq/internal/faultinject"
	"cloudiq/internal/multiplex"
)

// Cluster-mode harness: the c-* steps drive the reconcile-loop controller
// (internal/cluster) against the simulated multiplex — coordinator and writer
// kills, controller crashes, probe partitions, spec edits — and every
// quiescent point runs the convergence oracle: clear the cluster fault
// families, replace the controller with a fresh one (so convergence can never
// depend on controller memory), and require the fleet to reach the spec's
// fixed point with exactly one active, unfenced coordinator.

// preRestartWriter is the fleet's drain hook: before a writer restarts
// gracefully, its open transaction rolls back and its pin closes — a clean
// shutdown aborts in-flight work before the flush/commit checkpoint.
func (r *runner) preRestartWriter(ctx context.Context, name string) error {
	if p := r.pins[name]; p != nil {
		_ = p.tx.Rollback(ctx)
		delete(r.pins, name)
	}
	if tx := r.txs[name]; tx != nil {
		_ = tx.Rollback(ctx)
		delete(r.txs, name)
		r.model.node(name).abort()
	}
	return nil
}

// killNode abandons a node's process state: open transaction, pin and handle
// die; devices, the store and the fence record survive. Unlike crashNode, the
// node stays down — bringing it back is the controller's job.
func (r *runner) killNode(node string) {
	delete(r.pins, node)
	delete(r.txs, node)
	r.model.node(node).abort()
	if node == "coord" {
		r.cl.CrashCoord()
	} else {
		r.cl.CrashWriter(node)
	}
}

func (r *runner) cKillCoordStep(i int, st Step) error {
	if r.ctrl == nil {
		r.logf(i, st, "noop: cluster off")
		return nil
	}
	if r.cl.Coord() == nil {
		r.logf(i, st, "noop: already down")
		return nil
	}
	r.killNode("coord")
	r.logf(i, st, "down (fence epoch=%d)", r.cl.Epoch())
	return nil
}

func (r *runner) cKillWriterStep(i int, st Step) error {
	if r.ctrl == nil {
		r.logf(i, st, "noop: cluster off")
		return nil
	}
	if st.Node == "coord" {
		return r.cKillCoordStep(i, st)
	}
	if r.cl.Writer(st.Node) == nil {
		r.logf(i, st, "noop: already down")
		return nil
	}
	r.killNode(st.Node)
	r.logf(i, st, "down")
	return nil
}

func (r *runner) cReconcileStep(ctx context.Context, i int, st Step) error {
	if r.ctrl == nil {
		r.logf(i, st, "noop: cluster off")
		return nil
	}
	act, err := r.ctrl.ReconcileOnce(ctx)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		// The round died — an injected reconcile-loop crash, a promotion
		// killed mid-takeover, or a failed action. The controller process is
		// gone; its replacement starts from the spec and re-learns the fleet
		// (and the fence epoch floor) entirely from probes.
		r.ctrl = cluster.New(r.spec, r.fleet, r.plan)
		r.logf(i, st, "controller crashed: %v", err)
		return nil
	}
	r.logf(i, st, "%s epoch=%d", act, r.ctrl.Epoch())
	return nil
}

func (r *runner) cCrashCtrlStep(i int, st Step) error {
	if r.ctrl == nil {
		r.logf(i, st, "noop: cluster off")
		return nil
	}
	r.ctrl = cluster.New(r.spec, r.fleet, r.plan)
	r.logf(i, st, "controller replaced")
	return nil
}

// cPartitionStep drops the node's next Arg health probes — the probes lie
// while the node is perfectly healthy. If the partition outlasts
// ProbeThreshold reconcile rounds against the coordinator, the controller
// promotes over a live coordinator; fencing is what keeps that safe.
func (r *runner) cPartitionStep(i int, st Step) error {
	if r.ctrl == nil {
		r.logf(i, st, "noop: cluster off")
		return nil
	}
	r.plan.FailNext(faultinject.RPCProbe.With(st.Node), st.Arg)
	r.logf(i, st, "next %d probes dropped", st.Arg)
	return nil
}

func (r *runner) cSpecStep(i int, st Step) error {
	if r.ctrl == nil {
		r.logf(i, st, "noop: cluster off")
		return nil
	}
	switch st.Arg % 3 {
	case 0:
		// Bumping Generation IS the rolling restart.
		r.spec.Generation++
	case 1:
		if r.spec.ReadersMax == 4 {
			r.spec.ReadersMax = 2
		} else {
			r.spec.ReadersMax = 4
		}
	case 2:
		if r.spec.ReadersMin == 1 {
			r.spec.ReadersMin = 2
		} else {
			r.spec.ReadersMin = 1
		}
	}
	if r.spec.ReadersMax < r.spec.ReadersMin {
		r.spec.ReadersMax = r.spec.ReadersMin
	}
	r.ctrl.SetSpec(r.spec)
	r.logf(i, st, "gen=%d readers=[%d,%d]", r.spec.Generation, r.spec.ReadersMin, r.spec.ReadersMax)
	return nil
}

// clusterQuiesce is cluster mode's quiescent point: drain the scheduler,
// close client state, stop injecting the faults that keep the fleet sick,
// crash the controller one last time, and require convergence — then run the
// full data-oracle battery over the converged fleet.
func (r *runner) clusterQuiesce(ctx context.Context) error {
	// 0. Drain the query scheduler and audit the lifecycle ledger.
	if err := r.drainQueries(ctx); err != nil {
		return err
	}
	// 1. Close pins and roll back open transactions.
	r.closeClients(ctx)
	// 2. The quiescent period: no more probe partitions, reconcile-loop
	// crashes or mid-promotion kills. Storage and RPC faults stay armed —
	// convergence must hold through transient store failures. Clearing and
	// re-arming a site preserves its stream, so determinism is unaffected.
	r.plan.Clear(faultinject.RPCProbe)
	r.plan.Clear(faultinject.ClusterReconcile)
	r.plan.Clear(faultinject.ClusterPromote)
	for _, m := range r.fleet.Members() {
		r.plan.Clear(faultinject.RPCProbe.With(m.Name))
	}
	// 3. The controller crashes at the quiescent point too: convergence may
	// depend only on the spec and what probes can observe, never on a
	// surviving controller's memory.
	r.ctrl = cluster.New(r.spec, r.fleet, r.plan)
	rounds := 40 + 8*(r.spec.Writers+r.spec.ReadersMax)
	if err := r.ctrl.Converge(ctx, rounds); err != nil {
		return fmt.Errorf("%w: %v", ErrConverge, err)
	}
	if err := r.convergedFleetOracle(ctx); err != nil {
		return err
	}
	// 4. Re-arm the ambient families (cluster faults included) for the steps
	// after the quiescent point.
	if r.sc.FaultCluster {
		armClusterFaults(r.plan)
	}
	// 5. Garbage collect everywhere and run the data oracles over the
	// converged fleet.
	return r.collectAndCheck(ctx)
}

// armClusterFaults arms the faults that keep a cluster-mode fleet sick:
// probe partitions, reconcile-loop crashes and mid-promotion kills.
func armClusterFaults(p *faultinject.Plan) {
	p.Prob(faultinject.RPCProbe, 0.15)
	p.Prob(faultinject.ClusterReconcile, 0.05)
	p.Prob(faultinject.ClusterPromote, 0.15)
}

// convergedFleetOracle asserts the shape Converge's fixed point promises:
// exactly one registered coordinator, reachable, unfenced, serving at the
// durable fence epoch; every deposed coordinator handle permanently fenced
// (mutating RPCs rejected, so no second keygen can exist); writers alive at
// the spec generation; readers within the spec bounds.
func (r *runner) convergedFleetOracle(ctx context.Context) error {
	reg := r.fleet.Registry()
	coords := reg.WithRole(multiplex.RoleCoordinator)
	if len(coords) != 1 {
		return fmt.Errorf("%w: %d coordinators registered", ErrConverge, len(coords))
	}
	st, err := r.fleet.Probe(ctx, coords[0].Name)
	if err != nil {
		return fmt.Errorf("%w: converged coordinator unreachable: %v", ErrConverge, err)
	}
	if st.Fenced || st.Epoch != r.cl.Epoch() {
		return fmt.Errorf("%w: coordinator fenced=%t epoch=%d, fence record %d",
			ErrConverge, st.Fenced, st.Epoch, r.cl.Epoch())
	}
	if dep := r.cl.Deposed(); dep != nil {
		if !dep.Fenced() {
			return fmt.Errorf("%w: deposed coordinator not fenced", ErrConverge)
		}
		if err := dep.CheckEpoch(ctx, dep.Epoch()); !multiplex.IsFenced(err) {
			return fmt.Errorf("%w: deposed coordinator accepted a stale-epoch RPC: %v", ErrConverge, err)
		}
		if _, err := dep.AllocateKeys(ctx, "coord", 1); !multiplex.IsFenced(err) {
			return fmt.Errorf("%w: deposed coordinator allocated keys: %v", ErrConverge, err)
		}
	}
	writers := reg.WithRole(multiplex.RoleWriter)
	if len(writers) != r.spec.Writers {
		return fmt.Errorf("%w: %d writers registered, spec %d", ErrConverge, len(writers), r.spec.Writers)
	}
	for _, m := range writers {
		if r.cl.Writer(m.Name) == nil {
			return fmt.Errorf("%w: writer %s down after convergence", ErrConverge, m.Name)
		}
		if m.Gen < r.spec.Generation {
			return fmt.Errorf("%w: writer %s at gen %d, spec %d", ErrConverge, m.Name, m.Gen, r.spec.Generation)
		}
	}
	load := r.fleet.Load()
	if load.Readers < r.spec.ReadersMin || load.Readers > r.spec.ReadersMax {
		return fmt.Errorf("%w: %d readers outside [%d,%d]",
			ErrConverge, load.Readers, r.spec.ReadersMin, r.spec.ReadersMax)
	}
	return nil
}
