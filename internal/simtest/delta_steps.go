package simtest

// Delta-mode harness: the d-* steps drive the real-time ingest lane — trickle
// inserts staged through Tx.Insert (durable in their commit's WAL record),
// freeze/compact cycles that drain the in-memory delta store into encoded
// column segments, and crash schedules that kill a node in the middle of a
// compaction drain. The model does not distinguish the storage lane a row
// lives in, so the existing equivalence oracles already hold the merged
// delta+segment scans to the model; deltaQuiesceOracle adds the eighth
// family on top: after a quiescent full drain the delta must be empty and
// the segment-only state must still equal the model.

import (
	"context"
	"fmt"

	"cloudiq"
)

// dInsertStep trickle-inserts Rows fresh rows into the step's table through
// the delta store, creating the table on first use (an empty CreateTable in
// the same transaction, so the rows have a catalog identity to land in).
// Engine errors roll the whole transaction back, model included, exactly
// like appendStep.
func (r *runner) dInsertStep(ctx context.Context, i int, st Step) error {
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
	var err error
	if !nm.committed(name) && len(nm.staged[name]) == 0 {
		_, err = tx.CreateTable(ctx, r.cl.Space(), name, simSchema(), cloudiq.TableOptions{SegRows: r.sc.SegRows})
	}
	if err == nil {
		err = tx.Insert(ctx, name, simBatch(vals))
	}
	if err != nil {
		delete(r.txs, st.Node)
		_ = tx.Rollback(ctx)
		nm.abort()
		r.logf(i, st, "failed (rolled back): %v", err)
		return nil
	}
	nm.stageAppend(name, vals)
	r.logf(i, st, "%s ~%d", name, st.Rows)
	return nil
}

// dFreezeStep freezes the node's delta runs at a compaction watermark. Rows
// committed after the freeze ride the next cycle; the logical contents do
// not change, so the model is untouched.
func (r *runner) dFreezeStep(i int, st Step) error {
	n := r.cl.Node(st.Node).FreezeDelta()
	r.logf(i, st, "frozen=%d", n)
	return nil
}

// dCompactStep runs one compactor pass on the node. Ambient faults (the
// delta.compact site, store PUT failures, allocation RPC drops) can doom the
// pass; a failed drain must leave every row live in the delta, which the
// equivalence oracles verify at the next check — so failures here only log.
func (r *runner) dCompactStep(ctx context.Context, i int, st Step) error {
	n, err := r.cl.Node(st.Node).CompactDelta(ctx, r.cl.Space())
	if err != nil {
		r.logf(i, st, "failed (rows stay live): %v", err)
		return nil
	}
	r.logf(i, st, "drained=%d", n)
	return r.checkSeq(st.Node)
}

// dCrashCompactStep dooms a compactor pass with a mid-flush crash schedule —
// after Arg successful page uploads the store and the WAL die under it —
// then crash-restarts the node. Recovery must replay the trickle rows from
// the WAL with the abandoned cycle's rows still live (zero lost, zero
// duplicated), which the post-restart oracles check.
func (r *runner) dCrashCompactStep(ctx context.Context, i int, st Step) error {
	err := r.cl.DoomedCompact(ctx, r.cl.Node(st.Node), st.Arg)
	r.logf(i, st, "mid-drain crash after %d uploads (%v)", st.Arg, err)
	return r.crashNode(ctx, st.Node)
}

// deltaQuiesceOracle is the eighth oracle family, run at every quiescent
// point of a delta-mode script (after the whole multiplex crash-recovered,
// before GC): drain every node's delta store completely — retrying past
// ambient faults — then require the delta empty and the segment-only state
// equal to the model. A row lost by the drain, or one duplicated by a
// replayed compaction, diverges here.
func (r *runner) deltaQuiesceOracle(ctx context.Context) error {
	if !r.sc.Delta {
		return nil
	}
	const maxDrains = 20
	for _, node := range r.sc.NodeNames() {
		db := r.cl.Node(node)
		if db == nil {
			continue
		}
		for attempt := 0; ; attempt++ {
			live := 0
			for _, t := range db.DeltaTables() {
				live += db.DeltaLiveRows(t)
			}
			if live == 0 {
				break
			}
			if attempt >= maxDrains {
				return fmt.Errorf("%w: node %s: %d delta rows still live after %d drain attempts",
					ErrDeltaCompact, node, live, attempt)
			}
			// A doomed pass leaves its rows live; the next attempt retries.
			_, _ = db.CompactDelta(ctx, r.cl.Space())
		}
		// With the delta empty every scan reads encoded segments only: the
		// drained state must still be exactly the model.
		if err := r.scanDB(ctx, db, r.model.node(node)); err != nil {
			return fmt.Errorf("%w: node %s after full drain: %v", ErrDeltaCompact, node, err)
		}
	}
	return nil
}
