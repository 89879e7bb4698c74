package simtest

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"cloudiq"
	"cloudiq/internal/blockdev"
	"cloudiq/internal/faultinject"
	"cloudiq/internal/iomodel"
	"cloudiq/internal/objstore"
	"cloudiq/internal/pageio"
	"cloudiq/internal/rfrb"
)

// AmbientFunc re-arms a plan's ambient (probabilistic) fault rules. The
// cluster invokes it after a doomed commit clears the plan's rules; arming a
// rule that is already armed preserves its stream and counters, so re-arming
// the full ambient set is idempotent.
type AmbientFunc func(p *faultinject.Plan)

// ClusterConfig parameterizes a simulated multiplex.
type ClusterConfig struct {
	// Plan is the shared fault plan; every node's WAL and the object store
	// draw from it. Required.
	Plan *faultinject.Plan
	// Store is the shared object store. Required.
	Store *objstore.MemStore
	// Space is the cloud dbspace name every node attaches. Default "user".
	Space string
	// Scale, when non-nil, charges engine retry backoff to simulated time.
	Scale *iomodel.Scale
	// IOStats optionally collects per-layer pageio counters.
	IOStats *pageio.StatsRegistry
	// BrokenRetry ablates retry-until-found reads to a single attempt on
	// every node (the harness-has-teeth hook).
	BrokenRetry bool
	// Ambient re-arms ambient fault rules after DoomedCommit clears them.
	Ambient AmbientFunc
	// SnapshotNow, when non-nil, enables snapshots on the coordinator with
	// the given logical clock and SnapshotRetention.
	SnapshotNow       func() int64
	SnapshotRetention int64
}

// restartAttempts bounds restart-announcement retries.
const restartAttempts = 5

// Cluster owns the durable substrate of a simulated multiplex — the shared
// object store, one log device per node — and the node handles currently
// "running" on it. Crashing a node abandons its handle (RAM state is lost,
// devices and store survive); reopening replays its WAL. All methods are for
// single-goroutine deterministic drivers: the iqsim runner, which also runs
// the crash-cycle scripts. The RPC wiring is faulted throughout — allocation
// gated by RPCAlloc, notifications dropped by RPCNotify outside recovery,
// restart announcements gated by RPCRestart.
type Cluster struct {
	cfg ClusterConfig

	coordDev    *blockdev.MemDevice
	writerDevs  map[string]*blockdev.MemDevice
	writerNames []string

	coord   *cloudiq.Database
	writers map[string]*cloudiq.Database

	// epoch is the cluster's fence record — conceptually a tiny object on
	// shared storage. Every coordinator handle opens at this epoch; a
	// promotion bumps it and permanently fences the previous handle.
	epoch uint64
	// deposed is the most recently fenced coordinator handle, kept alive so
	// the harness can verify that a deposed coordinator waking up mid-flight
	// has every mutating RPC rejected.
	deposed *cloudiq.Database

	coordEverOpened bool
	inRecovery      bool // recovery re-notifications bypass RPC drop faults
	gcPending       map[string]bool
	readerSeq       int

	// OnDepose, when non-nil, runs the moment a promotion fences a live
	// coordinator handle. Every client session on the deposed process dies
	// with it: epoch fencing guards the RPC surface, but a client holding an
	// open transaction on the old process would otherwise keep writing the
	// shared WAL through the local commit path — the exact split-brain a real
	// takeover kills by terminating the process's connections. Drivers hook
	// this to drop their open transactions and pins on "coord".
	OnDepose func()
}

// NewCluster returns a cluster over fresh devices. Call OpenCoord (and
// AddWriter/OpenWriter) to start nodes.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Plan == nil || cfg.Store == nil {
		return nil, errors.New("simtest: cluster requires a fault plan and a store")
	}
	if cfg.Space == "" {
		cfg.Space = "user"
	}
	return &Cluster{
		cfg:        cfg,
		coordDev:   blockdev.NewMem(blockdev.Config{Growable: true}),
		writerDevs: make(map[string]*blockdev.MemDevice),
		writers:    make(map[string]*cloudiq.Database),
		gcPending:  make(map[string]bool),
	}, nil
}

// Space returns the cloud dbspace name.
func (c *Cluster) Space() string { return c.cfg.Space }

// Coord returns the coordinator handle, nil while crashed.
func (c *Cluster) Coord() *cloudiq.Database { return c.coord }

// Writer returns a writer handle, nil while crashed or never opened.
func (c *Cluster) Writer(name string) *cloudiq.Database { return c.writers[name] }

// Node returns the handle for "coord" or a writer name.
func (c *Cluster) Node(name string) *cloudiq.Database {
	if name == "coord" {
		return c.coord
	}
	return c.writers[name]
}

// WriterNames returns the registered writer names, sorted.
func (c *Cluster) WriterNames() []string {
	return append([]string(nil), c.writerNames...)
}

// GCPending reports whether any writer's restart announcement has not landed
// yet — while true, orphaned keys may legitimately survive and the leak
// oracle must be skipped.
func (c *Cluster) GCPending() bool { return len(c.gcPending) > 0 }

// Epoch returns the cluster's fence record: the epoch the active coordinator
// serves at (and the floor any future promotion must exceed).
func (c *Cluster) Epoch() uint64 { return c.epoch }

// Deposed returns the most recently fenced coordinator handle, nil if no
// promotion has deposed a live coordinator yet.
func (c *Cluster) Deposed() *cloudiq.Database { return c.deposed }

// Promote performs a fenced coordinator takeover at the given epoch, which
// must exceed the current fence record. The sequence is fence-before-
// activate: (1) persist the new epoch in the fence record, (2) the reigning
// handle — if the process is still alive — observes it and is permanently
// fenced (every later mutating call returns ErrFenced, so it can never again
// touch the coordinator WAL or allocate keys), (3) a fresh coordinator opens
// over the shared WAL, replaying the keygen high-water and active sets, and
// adopts the new epoch. The ClusterPromote fault site fires between the
// phases, modeling a takeover process killed mid-promotion: the fence may
// already be raised with no active coordinator, and a later attempt (at a
// yet higher epoch) must finish the job — which is safe precisely because
// epochs are monotone.
func (c *Cluster) Promote(ctx context.Context, epoch uint64) error {
	if epoch <= c.epoch {
		return fmt.Errorf("simtest: promote at epoch %d: fence record is %d", epoch, c.epoch)
	}
	if err := c.cfg.Plan.Check(faultinject.ClusterPromote, "fence"); err != nil {
		return fmt.Errorf("simtest: promotion died before fencing: %w", err)
	}
	c.epoch = epoch
	if old := c.coord; old != nil {
		// The old coordinator observes the fence record; from here on it is
		// deposed and rejects every mutating call — and its client sessions
		// are terminated before the successor opens.
		_ = old.CheckEpoch(ctx, epoch)
		c.deposed = old
		c.coord = nil
		if c.OnDepose != nil {
			c.OnDepose()
		}
	}
	if err := c.cfg.Plan.Check(faultinject.ClusterPromote, "activate"); err != nil {
		return fmt.Errorf("simtest: promotion died before activation: %w", err)
	}
	return c.OpenCoord(ctx)
}

func (c *Cluster) readRetries() int {
	if c.cfg.BrokenRetry {
		return 1 // ablation: a single attempt, no retry-until-found
	}
	return 0 // default policy
}

// OpenCoord opens (or, after a crash, reopens) the coordinator: attach the
// dbspace, enable snapshots if configured (before recovery, so replay's
// garbage collection retires through the snapshot manager), replay the WAL,
// and — on reopen — run restart GC for the coordinator's own allocations,
// since the coordinator is also a writer and its cached key ranges died with
// the process.
func (c *Cluster) OpenCoord(ctx context.Context) error {
	if c.coord != nil {
		return nil
	}
	db, err := cloudiq.Open(ctx, cloudiq.Config{
		Node:            "coord",
		LogDevice:       c.coordDev,
		PrefetchWorkers: 1, // deterministic flush order for the fault streams
		Faults:          c.cfg.Plan,
		Scale:           c.cfg.Scale,
		IOStats:         c.cfg.IOStats,
	})
	if err != nil {
		return fmt.Errorf("simtest: open coordinator: %w", err)
	}
	if err := db.AttachCloudDbspace(c.cfg.Space, c.cfg.Store, cloudiq.CloudOptions{ReadRetries: c.readRetries()}); err != nil {
		return err
	}
	if c.cfg.SnapshotNow != nil {
		if err := db.EnableSnapshots(ctx, c.cfg.Store, c.cfg.SnapshotRetention, c.cfg.SnapshotNow); err != nil {
			return fmt.Errorf("simtest: enable snapshots: %w", err)
		}
	}
	if err := db.Recover(ctx); err != nil {
		return fmt.Errorf("simtest: coordinator recovery: %w", err)
	}
	db.SetEpoch(c.epoch) // serve at the current fence record
	reopen := c.coordEverOpened
	c.coordEverOpened = true
	c.coord = db
	if reopen {
		if err := db.WriterRestartGC(ctx, "coord"); err != nil {
			return fmt.Errorf("simtest: coordinator restart GC: %w", err)
		}
	}
	return nil
}

// CrashCoord abandons the coordinator handle (the process dies; its log
// device and the store survive).
func (c *Cluster) CrashCoord() { c.coord = nil }

// AddWriter registers a secondary writer and its log device without opening
// it.
func (c *Cluster) AddWriter(name string) {
	if _, ok := c.writerDevs[name]; ok {
		return
	}
	c.writerDevs[name] = blockdev.NewMem(blockdev.Config{Growable: true})
	c.writerNames = append(c.writerNames, name)
	sort.Strings(c.writerNames)
}

// OpenWriter opens (or reopens) a secondary writer and replays its WAL.
// Replay re-notifies every logged commit to the coordinator (bypassing the
// notification drop fault — re-notifications ride the reliable restart
// path), so call it before AnnounceRestart. The coordinator should be open;
// allocation and notification RPCs to a crashed coordinator fail or are
// dropped, as in a real outage.
func (c *Cluster) OpenWriter(ctx context.Context, name string) error {
	if c.writers[name] != nil {
		return nil
	}
	c.AddWriter(name)
	node := name
	w, err := cloudiq.Open(ctx, cloudiq.Config{
		Node:            node,
		LogDevice:       c.writerDevs[name],
		PrefetchWorkers: 1, // deterministic flush order for the fault streams
		Faults:          c.cfg.Plan,
		Scale:           c.cfg.Scale,
		IOStats:         c.cfg.IOStats,
		AllocKeys: func(ctx context.Context, n uint64) (rfrb.Range, error) {
			if err := c.cfg.Plan.Check(faultinject.RPCAlloc, node); err != nil {
				return rfrb.Range{}, err
			}
			co := c.coord
			if co == nil {
				return rfrb.Range{}, fmt.Errorf("simtest: coordinator down")
			}
			// Every coordinator RPC carries the cluster epoch; a handle
			// fenced by a promotion rejects the call before it can touch
			// the keygen WAL.
			if err := co.CheckEpoch(ctx, c.epoch); err != nil {
				return rfrb.Range{}, err
			}
			return co.AllocateKeys(ctx, node, n)
		},
		Notify: func(nodeName string, consumed *rfrb.Bitmap) {
			// Live notifications can be lost in transit (the paper's
			// Table 1 hazard); replayed ones during restart recovery
			// ride the reliable restart announcement.
			if !c.inRecovery && c.cfg.Plan.Check(faultinject.RPCNotify, nodeName) != nil {
				return
			}
			if co := c.coord; co != nil && co.CheckEpoch(ctx, c.epoch) == nil {
				_ = co.NotifyCommit(ctx, nodeName, consumed)
			}
		},
	})
	if err != nil {
		return fmt.Errorf("simtest: open writer %s: %w", name, err)
	}
	if err := w.AttachCloudDbspace(c.cfg.Space, c.cfg.Store, cloudiq.CloudOptions{ReadRetries: c.readRetries()}); err != nil {
		return err
	}
	c.inRecovery = true
	err = w.Recover(ctx)
	c.inRecovery = false
	if err != nil {
		return fmt.Errorf("simtest: writer %s recovery: %w", name, err)
	}
	c.writers[name] = w
	return nil
}

// CrashWriter abandons a writer handle.
func (c *Cluster) CrashWriter(name string) { delete(c.writers, name) }

// AnnounceRestart delivers a restarted writer's announcement to the
// coordinator, which garbage collects the writer's orphaned key allocations.
// The announcement RPC fails transiently under the RPCRestart fault and is
// retried up to restartAttempts times; if it never lands (or the coordinator
// is down), the writer stays gc-pending — orphaned keys legitimately survive
// until a later announcement, and GCPending tells the leak oracle to stand
// down. Returns whether the announcement landed.
func (c *Cluster) AnnounceRestart(ctx context.Context, name string) (bool, error) {
	for attempt := 0; attempt < restartAttempts; attempt++ {
		if c.cfg.Plan.Check(faultinject.RPCRestart, name) != nil {
			continue
		}
		if c.coord == nil {
			break
		}
		if err := c.coord.WriterRestartGC(ctx, name); err != nil {
			// The coordinator put the undeleted ranges back into the
			// writer's active set; a transient store failure during the
			// GC poll behaves like an announcement that did not land.
			continue
		}
		delete(c.gcPending, name)
		return true, nil
	}
	c.gcPending[name] = true
	return false, nil
}

// DoomedCommit commits a transaction under a mid-flush crash schedule: after
// flushes successful page uploads every storage operation fails (the process
// died), the commit WAL record tears, and the automatic rollback cannot
// reach the log or the store either. The commit must fail; a nil return
// means the crash took effect. The caller should then crash and reopen the
// node.
func (c *Cluster) DoomedCommit(ctx context.Context, tx *cloudiq.Tx, flushes int) error {
	if flushes < 1 {
		flushes = 1
	}
	p := c.cfg.Plan
	p.FailAfter(faultinject.ObjPut, flushes-1, -1)
	p.Always(faultinject.ObjDelete)
	p.Lag(faultinject.WALTornTail.With("commit"), 1, 8)
	p.Always(faultinject.WALAppend.With("rollback"))
	err := tx.Commit(ctx)
	p.Clear(faultinject.ObjPut)
	p.Clear(faultinject.ObjDelete)
	p.Clear(faultinject.WALTornTail.With("commit"))
	p.Clear(faultinject.WALAppend.With("rollback"))
	if c.cfg.Ambient != nil {
		c.cfg.Ambient(p)
	}
	if err == nil {
		return errors.New("simtest: mid-flush crash did not take effect")
	}
	return nil
}

// DoomedCompact runs one delta-compaction pass under the same mid-flush
// crash schedule as DoomedCommit: after flushes successful page uploads
// every storage operation fails, the drain's commit WAL record tears, and
// rollback cannot reach the log either. Unlike DoomedCommit a nil compact
// error is tolerated — an empty delta drains nothing and arms no faults —
// because the caller crash-restarts the node regardless. Returns the
// compactor's error for the step log.
func (c *Cluster) DoomedCompact(ctx context.Context, db *cloudiq.Database, flushes int) error {
	if flushes < 1 {
		flushes = 1
	}
	p := c.cfg.Plan
	p.FailAfter(faultinject.ObjPut, flushes-1, -1)
	p.Always(faultinject.ObjDelete)
	p.Lag(faultinject.WALTornTail.With("commit"), 1, 8)
	p.Always(faultinject.WALAppend.With("rollback"))
	_, err := db.CompactDelta(ctx, c.cfg.Space)
	p.Clear(faultinject.ObjPut)
	p.Clear(faultinject.ObjDelete)
	p.Clear(faultinject.WALTornTail.With("commit"))
	p.Clear(faultinject.WALAppend.With("rollback"))
	if c.cfg.Ambient != nil {
		c.cfg.Ambient(p)
	}
	return err
}

// OpenReader spins up an ephemeral reader node from a copy of the
// coordinator's log device (the shared system dbspace of §2): recover
// read-only, optionally with an OCM cache device, and return the handle. The
// caller must Close it; reader nodes never allocate keys or garbage collect.
func (c *Cluster) OpenReader(ctx context.Context, withCache bool) (*cloudiq.Database, error) {
	img := make([]byte, c.coordDev.Size())
	//lint:ignore pageioonly whole-image device clone, not engine page I/O
	if err := c.coordDev.ReadAt(ctx, img, 0); err != nil {
		return nil, fmt.Errorf("simtest: copy system dbspace: %w", err)
	}
	readerLog := blockdev.NewMem(blockdev.Config{Growable: true})
	if len(img) > 0 {
		//lint:ignore pageioonly whole-image device clone, not engine page I/O
		if err := readerLog.WriteAt(ctx, img, 0); err != nil {
			return nil, err
		}
	}
	c.readerSeq++
	db, err := cloudiq.Open(ctx, cloudiq.Config{
		Node:            fmt.Sprintf("r%d", c.readerSeq),
		LogDevice:       readerLog,
		PrefetchWorkers: 1,
		Scale:           c.cfg.Scale,
		IOStats:         c.cfg.IOStats,
		AllocKeys: func(ctx context.Context, n uint64) (rfrb.Range, error) {
			return rfrb.Range{}, errors.New("simtest: readers do not allocate")
		},
	})
	if err != nil {
		return nil, fmt.Errorf("simtest: open reader: %w", err)
	}
	opts := cloudiq.CloudOptions{ReadRetries: c.readRetries()}
	if withCache {
		opts.CacheDevice = blockdev.NewMem(blockdev.Config{Capacity: 4 << 20})
	}
	if err := db.AttachCloudDbspace(c.cfg.Space, c.cfg.Store, opts); err != nil {
		return nil, err
	}
	if err := db.RecoverAsReader(ctx); err != nil {
		return nil, fmt.Errorf("simtest: reader recovery: %w", err)
	}
	return db, nil
}
