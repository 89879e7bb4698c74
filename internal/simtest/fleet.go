package simtest

import (
	"context"
	"fmt"
	"time"

	"cloudiq/internal/faultinject"
	"cloudiq/internal/iomodel"
	"cloudiq/internal/multiplex"
	"cloudiq/internal/sched"
)

// probeRTT is the simulated round-trip a health probe charges.
const probeRTT = 200 * time.Microsecond

// Fleet adapts a simulated Cluster plus the reader scheduler core to the
// cluster controller's actuation surface (cluster.Fleet). It owns the
// membership registry the controller observes: the coordinator keeps the node
// name "coord" across promotions (keygen ownership and table placement key
// off the node name — a standby takes over the identity, not a new name),
// warm standbys are registry-only entries whose probes report the durable
// fence record, and reader membership mirrors the scheduler core.
//
// Like everything in simtest, Fleet is for single-goroutine deterministic
// drivers.
type Fleet struct {
	cl    *Cluster
	core  *sched.Core
	reg   *multiplex.Registry
	plan  *faultinject.Plan
	scale *iomodel.Scale

	standbySeq int
	readerSeq  int

	// ReaderSlots is the slot count a controller-started reader joins the
	// scheduler with. Default 2 (the same shape as the seeded query fleet).
	ReaderSlots int
	// PreRestartWriter, when non-nil, runs before a writer is drained for a
	// rolling restart. The simulation runner hooks it to abort the writer's
	// in-flight transaction — a drain rolls back open work before the
	// flush/commit checkpoint, exactly like a clean shutdown.
	PreRestartWriter func(ctx context.Context, name string) error
}

// NewFleet builds a fleet over the cluster and scheduler core, seeding the
// registry with the coordinator, the cluster's writers and the core's current
// readers.
func NewFleet(cl *Cluster, core *sched.Core, plan *faultinject.Plan, scale *iomodel.Scale) *Fleet {
	f := &Fleet{
		cl:          cl,
		core:        core,
		reg:         multiplex.NewRegistry(),
		plan:        plan,
		scale:       scale,
		ReaderSlots: 2,
	}
	f.reg.Register(multiplex.Member{Name: "coord", Role: multiplex.RoleCoordinator})
	for _, w := range cl.WriterNames() {
		f.reg.Register(multiplex.Member{Name: w, Role: multiplex.RoleWriter})
	}
	f.syncReaders()
	return f
}

// Registry exposes the membership directory (for oracles and tests).
func (f *Fleet) Registry() *multiplex.Registry { return f.reg }

// syncReaders reconciles the registry's reader entries with the scheduler
// core: a drained reader leaves the core first and is deregistered here; a
// reader added outside the controller (the query workload's crash-rejoin
// path) is registered so the controller probes it.
func (f *Fleet) syncReaders() {
	live := make(map[string]bool)
	for _, r := range f.core.Readers() {
		live[r] = true
	}
	for _, m := range f.reg.WithRole(multiplex.RoleReader) {
		if !live[m.Name] {
			f.reg.Deregister(m.Name)
		}
	}
	for _, r := range f.core.Readers() {
		if _, ok := f.reg.Get(r); !ok {
			f.reg.Register(multiplex.Member{Name: r, Role: multiplex.RoleReader})
		}
	}
}

// Members returns the registered fleet, readers synced, sorted by name.
func (f *Fleet) Members() []multiplex.Member {
	f.syncReaders()
	return f.reg.Members()
}

// Probe health-checks one member. The probe itself is a fault site (RPCProbe,
// detail = node name), so injected partitions make live nodes look dead —
// probes may lie; only fencing is authoritative.
func (f *Fleet) Probe(ctx context.Context, name string) (multiplex.NodeStatus, error) {
	if err := ctx.Err(); err != nil {
		return multiplex.NodeStatus{}, err
	}
	if f.scale != nil {
		f.scale.Sleep(ctx, probeRTT) // health checks cost (simulated) wire time
	}
	if err := f.plan.Check(faultinject.RPCProbe, name); err != nil {
		return multiplex.NodeStatus{}, fmt.Errorf("simtest: probe %s: %w", name, err)
	}
	m, ok := f.reg.Get(name)
	if !ok {
		return multiplex.NodeStatus{}, fmt.Errorf("simtest: probe %s: unknown member", name)
	}
	switch m.Role {
	case multiplex.RoleCoordinator:
		db := f.cl.Coord()
		if db == nil {
			return multiplex.NodeStatus{}, fmt.Errorf("simtest: probe %s: node down", name)
		}
		return db.Status(ctx)
	case multiplex.RoleStandby:
		// A warm standby holds no coordinator state of its own; its probe
		// reports the durable fence record, so a freshly restarted controller
		// re-learns the epoch floor without ever reaching the (possibly dead)
		// coordinator.
		return multiplex.NodeStatus{Node: name, MaxSeen: f.cl.Epoch()}, nil
	case multiplex.RoleWriter:
		db := f.cl.Writer(name)
		if db == nil {
			return multiplex.NodeStatus{}, fmt.Errorf("simtest: probe %s: node down", name)
		}
		return db.Status(ctx)
	default: // reader: scheduler membership is liveness
		for _, r := range f.core.Readers() {
			if r == name {
				return multiplex.NodeStatus{Node: name}, nil
			}
		}
		return multiplex.NodeStatus{}, fmt.Errorf("simtest: probe %s: node down", name)
	}
}

// Promote fences the reigning coordinator at epoch and activates the standby
// in its place over the shared coordinator WAL (Cluster.Promote is the
// fence-before-activate sequence). The standby's warm process takes over the
// coordinator identity, so the registry keeps the single "coord" entry.
func (f *Fleet) Promote(ctx context.Context, standby string, epoch uint64) error {
	m, ok := f.reg.Get(standby)
	if !ok || m.Role != multiplex.RoleStandby {
		return fmt.Errorf("simtest: promote %s: not a standby", standby)
	}
	if err := f.cl.Promote(ctx, epoch); err != nil {
		return err
	}
	f.reg.Deregister(standby)
	f.reg.Register(multiplex.Member{Name: "coord", Role: multiplex.RoleCoordinator})
	return nil
}

// StartStandby launches a warm coordinator standby. In the simulated
// multiplex a standby is pure registry state — it holds nothing until a
// promotion replays the shared WAL into it.
func (f *Fleet) StartStandby(ctx context.Context) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	f.standbySeq++
	name := fmt.Sprintf("sb%d", f.standbySeq)
	f.reg.Register(multiplex.Member{Name: name, Role: multiplex.RoleStandby})
	return name, nil
}

// StartWriter opens the first topology writer that is not yet a member. The
// simulated topology is fixed at script-generation time, so this only fires
// for writers that never joined; a crashed-but-registered writer goes through
// RestartWriter's recovery path instead.
func (f *Fleet) StartWriter(ctx context.Context, gen int) (string, error) {
	for _, name := range f.cl.WriterNames() {
		if _, ok := f.reg.Get(name); ok {
			continue
		}
		if err := f.cl.OpenWriter(ctx, name); err != nil {
			return "", err
		}
		f.reg.Register(multiplex.Member{Name: name, Role: multiplex.RoleWriter, Gen: gen})
		return name, nil
	}
	return "", fmt.Errorf("simtest: no unstarted writer in the topology")
}

// RestartWriter restarts a writer under gen. A live writer is drained
// through the flush/commit path first (abort in-flight work, checkpoint,
// stop); a crashed one goes straight to recovery. Either way the reopened
// writer replays its WAL and announces its restart so the coordinator
// garbage collects orphaned key allocations.
func (f *Fleet) RestartWriter(ctx context.Context, name string, gen int) error {
	m, ok := f.reg.Get(name)
	if !ok || m.Role != multiplex.RoleWriter {
		return fmt.Errorf("simtest: restart %s: not a writer", name)
	}
	if db := f.cl.Writer(name); db != nil {
		if f.PreRestartWriter != nil {
			if err := f.PreRestartWriter(ctx, name); err != nil {
				return err
			}
		}
		// A checkpoint failure under injected faults downgrades the drain to
		// a crash restart — recovery replays the WAL either way.
		_ = db.Checkpoint(ctx)
		f.cl.CrashWriter(name)
	}
	if err := f.cl.OpenWriter(ctx, name); err != nil {
		return err
	}
	if _, err := f.cl.AnnounceRestart(ctx, name); err != nil {
		return err
	}
	m.Gen = gen
	f.reg.Register(m)
	return nil
}

// AddReader joins a new reader to the scheduler fleet.
func (f *Fleet) AddReader(ctx context.Context, gen int) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	f.readerSeq++
	name := fmt.Sprintf("cr%d", f.readerSeq)
	if err := f.core.AddReader(name, f.ReaderSlots); err != nil {
		return "", err
	}
	f.reg.Register(multiplex.Member{Name: name, Role: multiplex.RoleReader, Gen: gen})
	return name, nil
}

// DrainReader starts a graceful drain. An idle reader leaves at once; a busy
// one is reaped by the core when its last query finishes, and the next
// Members call deregisters it.
func (f *Fleet) DrainReader(ctx context.Context, name string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	m, ok := f.reg.Get(name)
	if !ok || m.Role != multiplex.RoleReader {
		return fmt.Errorf("simtest: drain %s: not a reader", name)
	}
	if f.core.DrainReader(name) {
		f.reg.Deregister(name)
	}
	return nil
}

// Load is the scheduler core's load snapshot, feeding the reader autoscaler.
func (f *Fleet) Load() sched.LoadStats { return f.core.Load() }
