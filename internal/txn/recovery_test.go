package txn

import (
	"testing"

	"cloudiq/internal/blockdev"
	"cloudiq/internal/core"
	"cloudiq/internal/keygen"
	"cloudiq/internal/wal"
)

// copyLog copies log's records from its last checkpoint on into a new log,
// as a reader node's copy of the system dbspace, or a restarted node, sees
// them.
func copyLog(t *testing.T, log *wal.Log) *wal.Log {
	t.Helper()
	out, err := wal.Open(ctxb(), blockdev.NewMem(blockdev.Config{Growable: true}))
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Replay(ctxb(), func(rec wal.Record) error {
		if rec.Type == wal.RecCheckpoint {
			_, err = out.Checkpoint(ctxb(), rec.Payload)
		} else {
			_, err = out.Append(ctxb(), rec.Type, rec.Payload)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRecoverForReadAppliesCountersAndExtraOnly: of a checkpoint, a reader
// node takes the commit sequence, the transaction id and the extra image,
// and restores no chain or freelist, even of a block dbspace it attached.
func TestRecoverForReadAppliesCountersAndExtraOnly(t *testing.T) {
	_, coord, log := goldenState(t)
	if err := coord.Checkpoint(ctxb()); err != nil {
		t.Fatal(err)
	}
	var extra string
	reader, err := NewManager(Config{
		Node:         "r1",
		Log:          copyLog(t, log),
		RestoreExtra: func(img []byte) error { extra = string(img); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	block, err := core.NewBlock(core.BlockConfig{Name: "main", Device: blockdev.NewMem(blockdev.Config{Capacity: 64 * 512}), BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	reader.Register(block)
	if err := reader.RecoverForRead(ctxb(), nil); err != nil {
		t.Fatal(err)
	}
	if reader.CommitSeq() != coord.CommitSeq() || extra != "catalog+delta" {
		t.Fatalf("reader recovered seq %d and extra %q, want %d and %q", reader.CommitSeq(), extra, coord.CommitSeq(), "catalog+delta")
	}
	if reader.ChainLen() != 0 || block.Freelist().InUse() != 0 {
		t.Fatalf("reader restored a chain of %d and %d blocks in use", reader.ChainLen(), block.Freelist().InUse())
	}
}

// TestRecoverChecksCheckpointBeforeApplying: a checkpoint naming a block
// dbspace the node has not attached fails recovery before any of it is
// applied.
func TestRecoverChecksCheckpointBeforeApplying(t *testing.T) {
	_, coord, log := goldenState(t)
	if err := coord.Checkpoint(ctxb()); err != nil {
		t.Fatal(err)
	}
	gen := keygen.NewGenerator(nil)
	mgr, err := NewManager(Config{Node: "coord", Log: copyLog(t, log), Keys: gen})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Recover(ctxb(), nil); err == nil {
		t.Fatal("recovery without the checkpoint's block dbspace succeeded")
	}
	if mgr.CommitSeq() != 0 || mgr.ChainLen() != 0 || len(gen.Nodes()) != 0 {
		t.Fatalf("failed recovery applied the checkpoint: seq %d, chain %d, nodes %v", mgr.CommitSeq(), mgr.ChainLen(), gen.Nodes())
	}
}
