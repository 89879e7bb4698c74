package bench

import (
	"context"
	"fmt"

	"cloudiq/internal/blockdev"
	"cloudiq/internal/core"
	"cloudiq/internal/keygen"
	"cloudiq/internal/objstore"
	"cloudiq/internal/rfrb"
	"cloudiq/internal/txn"
	"cloudiq/internal/wal"
)

// Table1Event is one row of the paper's Table 1 walkthrough.
type Table1Event struct {
	Clock     int    `json:"clock"`
	Event     string `json:"event"`
	ActiveSet string `json:"active_set"`
	Objects   int    `json:"objects"` // objects in the store after the event
}

// Table1Events is the replayed walkthrough, in clock order.
type Table1Events []Table1Event

// RunTable1 replays the recovery and garbage-collection example of Table 1:
// a coordinator and writer W1, transactions T1–T3, a coordinator crash with
// log-based recovery of the active set, a rollback that deliberately skips
// coordinator notification, and the restart GC that polls W1's outstanding
// key range. It returns the event log with the observed active sets; any
// divergence from the paper's protocol yields an error.
func RunTable1(ctx context.Context, o Options) (Table1Events, error) {
	fmtSet := func(rs []rfrb.Range) string {
		if len(rs) == 0 {
			return "{}"
		}
		s := ""
		for i, r := range rs {
			if i > 0 {
				s += " "
			}
			// Render relative to the paper's 101-based keys.
			s += fmt.Sprintf("{%d-%d}", r.Start-rfrb.CloudKeyBase+101, r.End-rfrb.CloudKeyBase+100)
		}
		return s
	}

	coordLogDev := blockdev.NewMem(blockdev.Config{Growable: true})
	coordLog, err := wal.Open(ctx, coordLogDev)
	if err != nil {
		return nil, err
	}
	gen := keygen.NewGenerator(coordLog)
	coord, err := txn.NewManager(txn.Config{Node: "coord", Log: coordLog, Keys: gen})
	if err != nil {
		return nil, err
	}
	store := objstore.NewMem(objstore.Config{})
	client := keygen.NewClient(func(ctx context.Context, n uint64) (rfrb.Range, error) {
		return gen.Allocate(ctx, "W1", 100)
	})
	cloud := core.NewCloud(core.CloudConfig{Name: "user", Store: store, Keys: client, Stats: o.IOStats})
	coord.Register(cloud)

	w1LogDev := blockdev.NewMem(blockdev.Config{Growable: true})
	w1Log, err := wal.Open(ctx, w1LogDev)
	if err != nil {
		return nil, err
	}
	var notifyErr error
	w1, err := txn.NewManager(txn.Config{
		Node: "W1",
		Log:  w1Log,
		Notify: func(node string, consumed *rfrb.Bitmap) {
			if err := coord.NotifyCommit(ctx, node, consumed); err != nil {
				notifyErr = err
			}
		},
	})
	if err != nil {
		return nil, err
	}
	w1.Register(cloud)

	var events Table1Events
	emit := func(clock int, desc string, g *keygen.Generator) {
		events = append(events, Table1Event{
			Clock: clock, Event: desc,
			ActiveSet: fmtSet(g.ActiveSet("W1")),
			Objects:   store.Len(),
		})
	}
	write := func(t *txn.Txn, n int) error {
		sink := t.Sink("user")
		for i := 0; i < n; i++ {
			written, err := cloud.WriteBatch(ctx, [][]byte{{byte(i)}}, core.WriteThrough)
			if err != nil {
				return err
			}
			sink.NoteAllocated(written[0])
		}
		return nil
	}

	if err := coord.Checkpoint(ctx); err != nil {
		return nil, err
	}
	emit(50, "checkpoint: metadata incl. active sets flushed", gen)

	t1 := w1.Begin()
	if err := write(t1, 30); err != nil {
		return nil, err
	}
	emit(60, "W1 allocation: key range 101-200 allocated", gen)
	emit(70, "T1 begins on W1: objects 101-130 flushed", gen)

	t2 := w1.Begin()
	if err := write(t2, 20); err != nil {
		return nil, err
	}
	emit(80, "T2 begins on W1: keys 131-150 used", gen)

	if err := w1.Commit(ctx, t1, nil, nil); err != nil {
		return nil, err
	}
	if notifyErr != nil {
		return nil, notifyErr
	}
	emit(90, "T1 commits: active set updated", gen)

	t3 := w1.Begin()
	if err := write(t3, 10); err != nil {
		return nil, err
	}
	_ = t3 // dies with the writer crash below
	emit(100, "T3 begins on W1: keys 151-160 flushed", gen)

	// Coordinator crash + recovery.
	coordLog2, err := wal.Open(ctx, coordLogDev)
	if err != nil {
		return nil, err
	}
	gen2 := keygen.NewGenerator(coordLog2)
	coord2, err := txn.NewManager(txn.Config{Node: "coord", Log: coordLog2, Keys: gen2})
	if err != nil {
		return nil, err
	}
	coord2.Register(cloud)
	emit(110, "coordinator crashes", gen2)
	if err := coord2.Recover(ctx, nil); err != nil {
		return nil, err
	}
	emit(120, "coordinator recovers: active set rebuilt from log", gen2)
	if got := gen2.ActiveSet("W1"); len(got) != 1 || got[0].Len() != 70 {
		return nil, fmt.Errorf("bench: recovered active set %v, want {131-200}", got)
	}

	if err := w1.Rollback(ctx, t2); err != nil {
		return nil, err
	}
	emit(130, "T2 rolls back: objects GCed, active set NOT updated", gen2)
	if got := gen2.ActiveSet("W1"); len(got) != 1 || got[0].Len() != 70 {
		return nil, fmt.Errorf("bench: active set changed by rollback: %v", got)
	}

	emit(140, "W1 crashes", gen2)
	if err := coord2.WriterRestartGC(ctx, "W1"); err != nil {
		return nil, err
	}
	emit(150, "W1 restarts: outstanding allocations GCed", gen2)
	if store.Len() != 30 {
		return nil, fmt.Errorf("bench: %d objects survive, want 30 (T1's committed pages)", store.Len())
	}
	return events, nil
}

// Table renders the replayed Table 1.
func (events Table1Events) Table() string {
	var rows [][]string
	for _, e := range events {
		rows = append(rows, []string{fmt.Sprint(e.Clock), e.Event, e.ActiveSet, fmt.Sprint(e.Objects)})
	}
	return FormatTable([]string{"clock", "event", "active set (W1)", "objects"}, rows)
}
