package txn

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"cloudiq/internal/core"
	"cloudiq/internal/keygen"
	"cloudiq/internal/rfrb"
	"cloudiq/internal/trace"
	"cloudiq/internal/wal"
)

// ErrNotActive is returned when committing or rolling back a transaction
// that already finished.
var ErrNotActive = errors.New("txn: transaction not active")

// RetireFunc disposes of an expired page-version extent on a dbspace. The
// default physically reclaims it; the snapshot manager substitutes a
// function that takes ownership for the retention period (§5).
type RetireFunc func(ctx context.Context, space string, r rfrb.Range) error

// CommitNotify informs the coordinator's Object Key Generator which cloud
// keys a committed transaction consumed. On the coordinator it calls
// keygen.Generator.OnCommit directly; on secondary nodes it is an RPC.
type CommitNotify func(node string, consumed *rfrb.Bitmap)

// Config parameterizes a Manager.
type Config struct {
	// ExtraCheckpoint, if non-nil, contributes an opaque engine section
	// (e.g. the catalog image) saved with every checkpoint; RestoreExtra
	// receives it back during recovery before post-checkpoint records are
	// replayed.
	ExtraCheckpoint func() ([]byte, error)
	RestoreExtra    func([]byte) error

	// Node names the multiplex node this manager runs on.
	Node string
	// Log is the node's transaction log. Required.
	Log *wal.Log
	// Keys is the coordinator-side Object Key Generator; nil on secondary
	// nodes (they notify the coordinator through CommitNotify instead).
	Keys *keygen.Generator
	// Notify is invoked after each commit with the consumed cloud keys. If
	// nil and Keys is set, the manager notifies Keys directly.
	Notify CommitNotify
}

type committedTxn struct {
	seq    uint64
	txnID  uint64
	spaces []SpaceBitmaps
}

// Manager is the transaction manager for one node. It is safe for
// concurrent use.
type Manager struct {
	cfg Config

	mu        sync.Mutex
	spaces    map[string]core.Dbspace
	nextTxnID uint64
	commitSeq uint64
	active    map[uint64]*Txn // txn id -> txn
	refs      map[uint64]int  // snapshot seq -> count of active txns reading it
	chain     []*committedTxn // committed, pages not yet retired; ascending seq
	retire    RetireFunc

	// consumed accumulates, on secondary nodes, every cloud key this node's
	// commits have reported to the coordinator. Notifications can be lost in
	// flight, and the coordinator would then reclaim the keys as orphans on
	// the node's next restart (Table 1, clock 150) — losing committed data.
	// Log replay heals that by re-notifying replayed commits, but a
	// checkpoint truncates replay, so the bitmap rides along in the
	// checkpoint payload and recovery re-notifies it wholesale (OnCommit on
	// already-released ranges is a no-op).
	consumed rfrb.Bitmap
}

// NewManager returns a Manager.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Log == nil {
		return nil, fmt.Errorf("txn: config requires a transaction log")
	}
	m := &Manager{
		cfg:    cfg,
		spaces: make(map[string]core.Dbspace),
		active: make(map[uint64]*Txn),
		refs:   make(map[uint64]int),
	}
	m.retire = m.reclaimOnSpace
	if cfg.Notify == nil && cfg.Keys != nil {
		m.cfg.Notify = cfg.Keys.OnCommit
	}
	return m, nil
}

// SetRetire replaces the retirement function (used by the snapshot manager).
func (m *Manager) SetRetire(f RetireFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if f != nil {
		m.retire = f
	} else {
		m.retire = m.reclaimOnSpace
	}
}

// Register adds a dbspace to the manager's reclamation routing.
func (m *Manager) Register(ds core.Dbspace) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.spaces[ds.Name()] = ds
}

// Space returns a registered dbspace by name.
func (m *Manager) Space(name string) (core.Dbspace, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ds, ok := m.spaces[name]
	return ds, ok
}

// Reclaim physically deletes an extent on the named registered dbspace. It
// is the default retirement path and is also used by the snapshot manager
// when retention ends.
func (m *Manager) Reclaim(ctx context.Context, space string, r rfrb.Range) error {
	return m.reclaimOnSpace(ctx, space, r)
}

// reclaimOnSpace is the default RetireFunc: physical deletion.
func (m *Manager) reclaimOnSpace(ctx context.Context, space string, r rfrb.Range) error {
	m.mu.Lock()
	ds, ok := m.spaces[space]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("txn: retire on unknown dbspace %q", space)
	}
	return ds.Reclaim(ctx, r)
}

// PruneRetirements removes live cloud keys from the committed chain's
// pending retirements on one dbspace. A point-in-time restore can resurrect
// page versions an earlier rewrite or drop had scheduled for retirement;
// draining those entries afterwards would retire — and eventually delete —
// pages the restored catalog references.
func (m *Manager) PruneRetirements(space string, live *rfrb.Bitmap) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.chain {
		for i := range e.spaces {
			if e.spaces[i].Space != space {
				continue
			}
			for _, lr := range live.Ranges() {
				e.spaces[i].RF.Remove(lr.Start, lr.End)
			}
		}
	}
}

// Begin starts a transaction reading as of the latest committed version.
func (m *Manager) Begin() *Txn {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextTxnID++
	t := &Txn{
		id:       m.nextTxnID,
		node:     m.cfg.Node,
		snapshot: m.commitSeq,
		status:   StatusActive,
		spaces:   make(map[string]*spaceBitmaps),
	}
	m.active[t.id] = t
	m.refs[t.snapshot]++
	return t
}

// ActiveCount reports the number of in-flight transactions.
func (m *Manager) ActiveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active)
}

// CommitSeq returns the latest committed sequence number.
func (m *Manager) CommitSeq() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.commitSeq
}

// ChainLen reports the number of committed transactions whose superseded
// pages have not yet been retired.
func (m *Manager) ChainLen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.chain)
}

// Commit makes t durable: every dirty cloud page it wrote is forced to the
// object store (FlushForCommit — the §4 write-through switch), the RF/RB
// images are logged, the coordinator is notified of consumed keys, and the
// transaction joins the committed chain for deferred garbage collection.
// apply, if non-nil, runs under the commit lock with the assigned commit
// sequence — catalogs use it to publish new table versions atomically. meta
// is an opaque payload stored in the commit record and replayed at recovery
// (the database layer's catalog publications).
func (m *Manager) Commit(ctx context.Context, t *Txn, meta []byte, apply func(seq uint64) error) error {
	t.mu.Lock()
	if t.status != StatusActive {
		st := t.status
		t.mu.Unlock()
		return fmt.Errorf("%w: txn %d is %s", ErrNotActive, t.id, st)
	}
	names := t.sortedSpaceNames()
	var spaces []SpaceBitmaps
	for _, name := range names {
		sb := t.spaces[name]
		spaces = append(spaces, SpaceBitmaps{Space: name, RF: sb.rf.Clone(), RB: sb.rb.Clone()})
	}
	t.mu.Unlock()

	// Phase 1: make data pages durable. For dbspaces with an OCM this
	// promotes the transaction's pending uploads and blocks until done.
	for _, sp := range spaces {
		ds, ok := m.Space(sp.Space)
		if !ok {
			return fmt.Errorf("txn %d: commit touches unregistered dbspace %q", t.id, sp.Space)
		}
		fctx, fsp := trace.Start(ctx, "commit.flush", trace.String("space", sp.Space))
		err := ds.FlushForCommit(fctx, sp.RB.CloudRanges())
		if err != nil {
			fsp.SetAttr("err", err.Error())
		}
		fsp.End()
		if err != nil {
			// Durability cannot be established: roll back (§4).
			if rbErr := m.Rollback(ctx, t); rbErr != nil {
				return fmt.Errorf("txn %d: flush-for-commit failed (%v); rollback also failed: %w", t.id, err, rbErr)
			}
			return fmt.Errorf("txn %d: rolled back: %w", t.id, err)
		}
	}

	// Phase 2: log the commit with the RF/RB images.
	payload := MarshalCommit(CommitRecord{TxnID: t.id, Node: t.node, Spaces: spaces, Meta: meta})
	wctx, wsp := trace.Start(ctx, "commit.wal", trace.Int("bytes", int64(len(payload))))
	_, err := m.cfg.Log.Append(wctx, wal.RecCommit, payload)
	wsp.End()
	if err != nil {
		return fmt.Errorf("txn %d: log commit: %w", t.id, err)
	}

	// Phase 3: publish the new version and move to the committed chain.
	m.mu.Lock()
	m.commitSeq++
	seq := m.commitSeq
	if apply != nil {
		if err := apply(seq); err != nil {
			m.commitSeq--
			m.mu.Unlock()
			return fmt.Errorf("txn %d: apply: %w", t.id, err)
		}
	}
	m.chain = append(m.chain, &committedTxn{seq: seq, txnID: t.id, spaces: spaces})
	delete(m.active, t.id)
	m.releaseRefLocked(t.snapshot)
	m.mu.Unlock()

	t.mu.Lock()
	t.status = StatusCommitted
	t.mu.Unlock()

	// Phase 4: tell the coordinator which keys were consumed so the active
	// sets shrink. Secondary nodes remember what they reported (see the
	// consumed field): the notification may be lost in flight.
	if m.cfg.Notify != nil {
		rb := t.cloudRB()
		if m.cfg.Keys == nil {
			m.mu.Lock()
			m.consumed.Union(rb)
			m.mu.Unlock()
		}
		m.cfg.Notify(t.node, rb)
	}

	// Opportunistic GC of newly unreferenced versions.
	return m.CollectGarbage(ctx)
}

// Rollback aborts t: everything it allocated is reclaimed immediately (the
// RB bitmap lists exactly those extents), and — deliberately — the
// coordinator is NOT notified, avoiding a round trip for the common case;
// the keys will simply be re-polled if the node later restarts (Table 1,
// clock 130 vs 150).
func (m *Manager) Rollback(ctx context.Context, t *Txn) error {
	t.mu.Lock()
	if t.status != StatusActive {
		st := t.status
		t.mu.Unlock()
		return fmt.Errorf("%w: txn %d is %s", ErrNotActive, t.id, st)
	}
	t.status = StatusRolledBack
	names := t.sortedSpaceNames()
	type spaceRanges struct {
		name   string
		ranges []rfrb.Range
	}
	var work []spaceRanges
	for _, name := range names {
		work = append(work, spaceRanges{name, t.spaces[name].rb.Ranges()})
	}
	t.mu.Unlock()

	m.mu.Lock()
	delete(m.active, t.id)
	m.releaseRefLocked(t.snapshot)
	m.mu.Unlock()

	if _, err := m.cfg.Log.Append(ctx, wal.RecRollback, nil); err != nil {
		return fmt.Errorf("txn %d: log rollback: %w", t.id, err)
	}
	for _, w := range work {
		ds, ok := m.Space(w.name)
		if !ok {
			return fmt.Errorf("txn %d: rollback touches unregistered dbspace %q", t.id, w.name)
		}
		for _, r := range w.ranges {
			if err := ds.Reclaim(ctx, r); err != nil {
				return fmt.Errorf("txn %d: rollback reclaim %v on %s: %w", t.id, r, w.name, err)
			}
		}
	}
	return nil
}

// NotifyCommit runs on the coordinator when a secondary node reports a
// committed transaction: the consumed keys are durably logged (so that
// coordinator crash recovery replays the active-set shrinkage, as in Table 1
// step 4) and removed from the node's active set.
func (m *Manager) NotifyCommit(ctx context.Context, node string, consumed *rfrb.Bitmap) error {
	if m.cfg.Keys == nil {
		return fmt.Errorf("txn: commit notification requires the coordinator's key generator")
	}
	payload := MarshalCommit(CommitRecord{
		Node:   node,
		Spaces: []SpaceBitmaps{{Space: "", RF: &rfrb.Bitmap{}, RB: consumed.Clone()}},
	})
	if _, err := m.cfg.Log.Append(ctx, wal.RecCommit, payload); err != nil {
		return fmt.Errorf("txn: log commit notification: %w", err)
	}
	m.cfg.Keys.OnCommit(node, consumed)
	return nil
}

func (m *Manager) releaseRefLocked(snapshot uint64) {
	if m.refs[snapshot] <= 1 {
		delete(m.refs, snapshot)
	} else {
		m.refs[snapshot]--
	}
}

// oldestSnapshotLocked returns the oldest snapshot an active transaction is
// reading, or the current commit sequence when none are active.
func (m *Manager) oldestSnapshotLocked() uint64 {
	oldest := m.commitSeq
	for s := range m.refs {
		if s < oldest {
			oldest = s
		}
	}
	return oldest
}

// OldestSnapshot reports the oldest snapshot still referenced.
func (m *Manager) OldestSnapshot() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.oldestSnapshotLocked()
}

// CollectGarbage retires the superseded page versions of every committed
// transaction that is no longer visible to any active transaction: the chain
// is consumed from its oldest end while the head's commit sequence is not
// newer than the oldest referenced snapshot.
func (m *Manager) CollectGarbage(ctx context.Context) error {
	retired := 0
	gctx, gsp := trace.Start(ctx, "txn.gc")
	defer func() {
		gsp.AddInt("retired", int64(retired))
		gsp.End()
	}()
	ctx = gctx
	for {
		m.mu.Lock()
		if len(m.chain) == 0 || m.chain[0].seq > m.oldestSnapshotLocked() {
			m.mu.Unlock()
			return nil
		}
		head := m.chain[0]
		m.chain = m.chain[1:]
		retire := m.retire
		m.mu.Unlock()

		for _, sp := range head.spaces {
			for _, r := range sp.RF.Ranges() {
				if err := retire(ctx, sp.Space, r); err != nil {
					// Put the entry back so a later GC pass can retry.
					m.mu.Lock()
					m.chain = append([]*committedTxn{head}, m.chain...)
					m.mu.Unlock()
					return fmt.Errorf("txn: retire seq %d: %w", head.seq, err)
				}
				retired++
			}
		}
	}
}
