package txn

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"

	"cloudiq/internal/core"
	"cloudiq/internal/freelist"
	"cloudiq/internal/keygen"
	"cloudiq/internal/rfrb"
	"cloudiq/internal/trace"
	"cloudiq/internal/wal"
)

// checkpointImage is the decoded form of a RecCheckpoint payload, which
// holds, in order: the commit sequence and the last transaction id; a flag
// byte, then the key generator's image if the flag is 1; the consumed
// bitmap; the chain count, then each entry's commit sequence and commit
// record; the freelist count, then each block dbspace's name and freelist
// image; the extra image, absent from payloads older than it.
type checkpointImage struct {
	commitSeq, nextTxnID uint64
	keys                 *keygen.Checkpoint // nil: the node has no generator
	consumed             *rfrb.Bitmap
	chain                []*committedTxn
	freelists            []spaceFreelist
	extra                []byte
}

type spaceFreelist struct {
	space string
	list  *freelist.List
}

// marshal encodes img, naming node in each chain entry's commit record.
func (img checkpointImage) marshal(node string) []byte {
	b := binary.LittleEndian.AppendUint64(nil, img.commitSeq)
	b = binary.LittleEndian.AppendUint64(b, img.nextTxnID)
	if img.keys != nil {
		b = wal.AppendBytes32(append(b, 1), img.keys.Marshal())
	} else {
		b = append(b, 0)
	}
	b = wal.AppendBytes32(b, img.consumed.Marshal())
	b = binary.LittleEndian.AppendUint32(b, uint32(len(img.chain)))
	for _, e := range img.chain {
		b = binary.LittleEndian.AppendUint64(b, e.seq)
		b = wal.AppendBytes32(b, MarshalCommit(CommitRecord{Node: node, TxnID: e.txnID, Spaces: e.spaces}))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(img.freelists)))
	for _, f := range img.freelists {
		b = wal.AppendBytes32(wal.AppendString16(b, f.space), f.list.Marshal())
	}
	return wal.AppendBytes32(b, img.extra)
}

// parseCheckpoint decodes a RecCheckpoint payload whole, nested images
// included, and changes nothing.
func parseCheckpoint(p []byte) (checkpointImage, error) {
	d := wal.NewReader(p)
	img := checkpointImage{commitSeq: d.U64(), nextTxnID: d.U64()}
	if d.U8() == 1 {
		img.keys = wal.Decode32(&d, keygen.ParseCheckpoint)
	}
	img.consumed = wal.Decode32(&d, rfrb.Unmarshal)
	for n := d.U32(); n > 0 && d.Err() == nil; n-- {
		seq, rec := d.U64(), wal.Decode32(&d, UnmarshalCommit)
		img.chain = append(img.chain, &committedTxn{seq: seq, txnID: rec.TxnID, spaces: rec.Spaces})
	}
	for n := d.U32(); n > 0 && d.Err() == nil; n-- {
		img.freelists = append(img.freelists, spaceFreelist{d.String16(), wal.Decode32(&d, freelist.Unmarshal)})
	}
	if d.Len() > 0 {
		img.extra = d.Bytes32()
	}
	if err := d.End(); err != nil {
		return checkpointImage{}, fmt.Errorf("txn: checkpoint payload: %w", err)
	}
	return img, nil
}

// Checkpoint durably snapshots the node's metadata: commit/txn sequences,
// the Object Key Generator state (max key + active sets), the consumed
// keys, the committed chain, the freelist image of every conventional
// dbspace and the engine's extra image. Crash recovery replays the log from
// this record (§3.2, §3.3). The chain holds transactions whose expired page
// versions are not retired yet (typically held back by a long-lived
// reader's snapshot): replay only covers commits after this checkpoint, so
// without it a crash would forget the pending retirements and leak their
// pages.
func (m *Manager) Checkpoint(ctx context.Context) error {
	m.publish.Lock()
	defer m.publish.Unlock()
	m.mu.Lock()
	img := checkpointImage{commitSeq: m.commitSeq, nextTxnID: m.nextTxnID, consumed: m.consumed.Clone()}
	if m.cfg.Keys != nil {
		img.keys = m.cfg.Keys.Checkpoint()
	}
	// The image is encoded after the lock is released, once the extra image
	// is taken, so it holds copies of what later commits, collections and
	// PruneRetirements change.
	for _, e := range m.chain {
		c := &committedTxn{seq: e.seq, txnID: e.txnID}
		for _, sp := range e.spaces {
			c.spaces = append(c.spaces, SpaceBitmaps{Space: sp.Space, RF: sp.RF.Clone(), RB: sp.RB.Clone()})
		}
		img.chain = append(img.chain, c)
	}
	for name, ds := range m.spaces {
		if bds, ok := ds.(*core.BlockDbspace); ok {
			img.freelists = append(img.freelists, spaceFreelist{name, bds.Freelist().Clone()})
		}
	}
	m.mu.Unlock()
	// Checkpoint bytes must not depend on map iteration order: identically
	// seeded runs have to produce identical checkpoint records.
	sort.Slice(img.freelists, func(i, j int) bool { return img.freelists[i].space < img.freelists[j].space })
	if m.cfg.ExtraCheckpoint != nil {
		var err error
		if img.extra, err = m.cfg.ExtraCheckpoint(); err != nil {
			return fmt.Errorf("txn: checkpoint extra: %w", err)
		}
	}
	if _, err := m.cfg.Log.Checkpoint(ctx, img.marshal(m.cfg.Node)); err != nil {
		return fmt.Errorf("txn: checkpoint: %w", err)
	}
	return nil
}

// restoreCheckpoint installs a parsed checkpoint image. Every freelist's
// dbspace resolves before anything changes, so an image that names a
// dbspace the node lacks leaves the manager as it was.
func (m *Manager) restoreCheckpoint(img checkpointImage) error {
	spaces := make([]*core.BlockDbspace, len(img.freelists))
	for i, f := range img.freelists {
		ds, _ := m.Space(f.space)
		var ok bool
		if spaces[i], ok = ds.(*core.BlockDbspace); !ok {
			return fmt.Errorf("txn: checkpoint freelist for %q, which is not a registered block dbspace", f.space)
		}
	}
	// A secondary node replaying the coordinator's log (shared system
	// dbspace) has no generator of its own; the section is skipped.
	if img.keys != nil && m.cfg.Keys != nil {
		m.cfg.Keys.Restore(img.keys)
	}
	m.mu.Lock()
	m.chain = img.chain
	m.mu.Unlock()
	// Re-notify everything a secondary node ever reported: the checkpoint
	// truncated the commit records whose replay would have healed a
	// notification lost before the crash. Idempotent on the coordinator.
	if m.cfg.Keys == nil && m.cfg.Notify != nil {
		m.renotify(m.cfg.Node, img.consumed)
	}
	for i, bds := range spaces {
		bds.RestoreFreelist(img.freelists[i].list)
	}
	return m.restoreShared(img)
}

// restoreShared installs the part of a checkpoint image a reader node
// applies too: the counters and the extra (catalog and delta) image.
func (m *Manager) restoreShared(img checkpointImage) error {
	m.mu.Lock()
	m.commitSeq, m.nextTxnID = img.commitSeq, img.nextTxnID
	m.mu.Unlock()
	if len(img.extra) > 0 && m.cfg.RestoreExtra != nil {
		if err := m.cfg.RestoreExtra(img.extra); err != nil {
			return fmt.Errorf("txn: restore extra: %w", err)
		}
	}
	return nil
}

// Recover rebuilds the manager's durable state after a crash: the log is
// replayed from the last checkpoint; allocation records rebuild the key
// generator's maximum key and active sets; commit records shrink the active
// sets, re-apply allocations to the freelists, and queue the transactions'
// RF bitmaps for garbage collection (there are no live readers after a
// crash, so the chain drains immediately). Rollback records need no action —
// their pages were reclaimed before the record was written. extra, if
// non-nil, observes every replayed record (the snapshot manager uses it).
func (m *Manager) Recover(ctx context.Context, extra func(wal.Record) error) error {
	ctx, sp := trace.Start(ctx, "txn.recover", trace.String("node", m.cfg.Node))
	defer sp.End()
	replayed := 0
	err := m.cfg.Log.Replay(ctx, func(rec wal.Record) error {
		replayed++
		switch rec.Type {
		case wal.RecCheckpoint:
			img, err := parseCheckpoint(rec.Payload)
			if err != nil {
				return err
			}
			if err := m.restoreCheckpoint(img); err != nil {
				return err
			}
		case wal.RecAlloc:
			node, r, err := keygen.ParseAllocPayload(rec.Payload)
			if err != nil {
				return err
			}
			if m.cfg.Keys != nil {
				m.cfg.Keys.ApplyAlloc(node, r)
			}
		case wal.RecCommit:
			crec, err := UnmarshalCommit(rec.Payload)
			if err != nil {
				return err
			}
			if err := m.applyCommittedRecord(crec); err != nil {
				return err
			}
		case wal.RecRollback:
			// Pages were reclaimed before the record was written.
		}
		if extra != nil {
			return extra(rec)
		}
		return nil
	})
	sp.AddInt("records", int64(replayed))
	if err != nil {
		return fmt.Errorf("txn: recover: %w", err)
	}
	return m.CollectGarbage(ctx)
}

// applyCommittedRecord folds one replayed commit into recovered state.
func (m *Manager) applyCommittedRecord(rec CommitRecord) error {
	// Shrink the coordinator's active sets: committed keys no longer need
	// tracking (Table 1, step 4). On a secondary node (no local
	// generator), re-send the commit notification instead: if the
	// original notification was lost before the crash, the coordinator
	// still counts these keys as outstanding, and a WriterRestartGC would
	// reclaim committed data. Replaying the notification is idempotent —
	// OnCommit on already-released ranges is a no-op.
	consumed := &rfrb.Bitmap{}
	for _, sp := range rec.Spaces {
		for _, r := range sp.RB.CloudRanges() {
			consumed.AddRange(r)
		}
	}
	if m.cfg.Keys != nil {
		m.cfg.Keys.OnCommit(rec.Node, consumed)
	} else if m.cfg.Notify != nil && consumed.Count() > 0 {
		m.renotify(rec.Node, consumed)
	}
	// Re-apply block allocations to the freelists (the checkpoint image
	// predates these commits) and queue RF extents for collection. A space
	// named "" marks a pure commit notification from a secondary node — it
	// carries no local extents.
	for _, sp := range rec.Spaces {
		if sp.Space == "" {
			continue
		}
		ds, ok := m.Space(sp.Space)
		if !ok {
			return fmt.Errorf("txn: replayed commit touches unregistered dbspace %q", sp.Space)
		}
		if bds, isBlock := ds.(*core.BlockDbspace); isBlock {
			for _, r := range sp.RB.BlockRanges() {
				if err := bds.Freelist().MarkUsed(r.Start, r.Len()); err != nil {
					return err
				}
			}
		}
	}
	m.mu.Lock()
	m.commitSeq++
	m.chain = append(m.chain, &committedTxn{seq: m.commitSeq, txnID: rec.TxnID, spaces: rec.Spaces})
	if rec.TxnID > m.nextTxnID {
		m.nextTxnID = rec.TxnID
	}
	m.mu.Unlock()
	return nil
}

// renotify remembers consumed keys as reported by this secondary node and
// reports them to the coordinator again.
func (m *Manager) renotify(node string, consumed *rfrb.Bitmap) {
	m.mu.Lock()
	m.consumed.Union(consumed)
	m.mu.Unlock()
	m.cfg.Notify(node, consumed)
}

// NoteReplayedTxn raises the transaction-id counter past an id observed in
// the log during replay. Commit records do this implicitly, but a
// transaction that died before its commit record landed leaves its id only
// in side records (delta inserts); without the bump a post-crash
// transaction could reuse the id and claim the orphan's buffered records.
func (m *Manager) NoteReplayedTxn(id uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if id > m.nextTxnID {
		m.nextTxnID = id
	}
}

// RecoverForRead replays the log to rebuild metadata — commit sequences,
// catalog extras — without performing any garbage collection. Of a
// checkpoint it applies only the counters and the extra image: it restores
// no key generator, chain or freelist and looks up no dbspace, so a reader
// needs only the cloud dbspaces it reads. Reader nodes recovering from a
// shared system dbspace they do not own use this (§2: reader nodes cannot
// modify the database).
func (m *Manager) RecoverForRead(ctx context.Context, extra func(wal.Record) error) error {
	err := m.cfg.Log.Replay(ctx, func(rec wal.Record) error {
		switch rec.Type {
		case wal.RecCheckpoint:
			img, err := parseCheckpoint(rec.Payload)
			if err != nil {
				return err
			}
			if err := m.restoreShared(img); err != nil {
				return err
			}
		case wal.RecCommit:
			m.mu.Lock()
			m.commitSeq++
			m.mu.Unlock()
		}
		if extra != nil {
			return extra(rec)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("txn: recover for read: %w", err)
	}
	return nil
}

// WriterRestartGC runs on the coordinator when a writer node restarts after
// a crash (Table 1, clock 150): the writer's outstanding key allocations can
// never be consumed by a committing transaction, so every key in its active
// set is polled against the cloud dbspaces and deleted if present, and the
// active set is cleared.
func (m *Manager) WriterRestartGC(ctx context.Context, node string) error {
	if m.cfg.Keys == nil {
		return fmt.Errorf("txn: writer-restart GC requires the coordinator's key generator")
	}
	ctx, sp := trace.Start(ctx, "txn.writer-restart-gc", trace.String("node", node))
	defer sp.End()
	ranges := m.cfg.Keys.ReleaseNode(node)
	sp.AddInt("ranges", int64(len(ranges)))
	m.mu.Lock()
	var clouds []core.Dbspace
	for _, ds := range m.spaces {
		if ds.IsCloud() {
			clouds = append(clouds, ds)
		}
	}
	m.mu.Unlock()
	// Poll the dbspaces in name order so the delete schedule (and any
	// partial-failure resume point) is reproducible under simulation.
	sort.Slice(clouds, func(i, j int) bool { return clouds[i].Name() < clouds[j].Name() })
	for i, r := range ranges {
		for _, ds := range clouds {
			if err := ds.Reclaim(ctx, r); err != nil {
				// Reclaim is an idempotent per-key poll, so a transient
				// delete failure only means this pass did not finish: put
				// every range not fully processed back into the node's
				// active set (already durable via its RecAlloc records)
				// and let the next restart announcement repeat the poll.
				for _, rr := range ranges[i:] {
					m.cfg.Keys.ApplyAlloc(node, rr)
				}
				return fmt.Errorf("txn: writer-restart GC %v on %s: %w", r, ds.Name(), err)
			}
		}
	}
	return nil
}
