package txn

import (
	"context"
	"encoding/hex"
	"testing"

	"cloudiq/internal/blockdev"
	"cloudiq/internal/core"
	"cloudiq/internal/keygen"
	"cloudiq/internal/objstore"
	"cloudiq/internal/rfrb"
	"cloudiq/internal/wal"
)

// goldenState builds one fixed coordinator state: a key generator with two
// nodes' active sets, a cloud and a 64-block conventional dbspace, one
// transaction parked on the retirement chain behind a reader, and an extra
// image. It returns the generator, the manager and their log.
func goldenState(t testing.TB) (*keygen.Generator, *Manager, *wal.Log) {
	t.Helper()
	log, err := wal.Open(ctxb(), blockdev.NewMem(blockdev.Config{Growable: true}))
	if err != nil {
		t.Fatal(err)
	}
	gen := keygen.NewGenerator(log)
	if _, err := gen.Allocate(ctxb(), "w1", 100); err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(Config{
		Node:            "coord",
		Log:             log,
		Keys:            gen,
		ExtraCheckpoint: func() ([]byte, error) { return []byte("catalog+delta"), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	client := keygen.NewClient(func(ctx context.Context, n uint64) (rfrb.Range, error) {
		return gen.Allocate(ctx, "coord", n)
	})
	cloud := core.NewCloud(core.CloudConfig{Name: "user", Store: objstore.NewMem(objstore.Config{}), Keys: client})
	block, err := core.NewBlock(core.BlockConfig{Name: "main", Device: blockdev.NewMem(blockdev.Config{Capacity: 64 * 512}), BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	mgr.Register(cloud)
	mgr.Register(block)
	e := &env{t: t}
	t1 := mgr.Begin()
	v1 := e.writePages(t1, cloud, 2)
	b1 := e.writePages(t1, block, 2)
	if err := mgr.Commit(ctxb(), t1, []byte("meta"), nil); err != nil {
		t.Fatal(err)
	}
	_ = mgr.Begin() // a reader that keeps t2 on the chain
	t2 := mgr.Begin()
	e.writePages(t2, cloud, 1)
	e.writePages(t2, block, 1)
	t2.Sink("user").NoteFreed(v1[0])
	t2.Sink("main").NoteFreed(b1[1])
	if err := mgr.Commit(ctxb(), t2, nil, nil); err != nil {
		t.Fatal(err)
	}
	if mgr.ChainLen() != 1 {
		t.Fatalf("chain holds %d transactions, want 1", mgr.ChainLen())
	}
	return gen, mgr, log
}

// TestRecordPayloadsGolden pins the exact bytes of every log record payload
// the transaction manager and the key generator write, for one fixed state:
// a change to any record codec must leave logs already written readable.
func TestRecordPayloadsGolden(t *testing.T) {
	gen, mgr, log := goldenState(t)
	if err := mgr.Checkpoint(ctxb()); err != nil {
		t.Fatal(err)
	}
	payloads := map[wal.RecordType][]byte{}
	if err := log.Replay(ctxb(), func(rec wal.Record) error {
		payloads[rec.Type] = rec.Payload
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var rf, rb rfrb.Bitmap
	rf.Add(10, 20)
	rb.Add(rfrb.CloudKeyBase+5, rfrb.CloudKeyBase+9)
	commit := MarshalCommit(CommitRecord{TxnID: 42, Node: "w1", Meta: []byte("pub"), Spaces: []SpaceBitmaps{
		{Space: "main", RF: &rfrb.Bitmap{}, RB: &rfrb.Bitmap{}},
		{Space: "user", RF: &rf, RB: &rb},
	}})
	for _, tc := range []struct {
		name string
		got  []byte
		want string
	}{
		{"checkpoint", payloads[wal.RecCheckpoint], "02000000000000000300000000000000014f0000006401000000000080020000000500636f6f72641800000001000000" +
			"000000006700000000000080640100000000008002007731180000000100000000000000000000000000008064000000" +
			"000000800800000000000000000000000100000002000000000000009300000003000000000000000500636f6f726400" +
			"0000000200000004006d61696e1800000001000000000000000100000000000000020000000000000018000000010000" +
			"000000000002000000000000000300000000000000040075736572180000000100000000000000640000000000008065" +
			"00000000000080180000000100000000000000660000000000008067000000000000800100000004006d61696e180000" +
			"004000000000000000030000000000000007000000000000000d000000636174616c6f672b64656c7461"},
		{"commit", commit, "2a0000000000000002007731030000007075620200000004006d61696e08000000000000000000000008000000000000" +
			"00000000000400757365721800000001000000000000000a000000000000001400000000000000180000000100000000" +
			"00000005000000000000800900000000000080"},
		{"alloc", keygen.AllocPayload("w1", rfrb.Range{Start: rfrb.CloudKeyBase, End: rfrb.CloudKeyBase + 100}), "0200773100000000000000806400000000000080"},
		{"keygen", gen.Checkpoint().Marshal(), "6401000000000080020000000500636f6f72641800000001000000000000006700000000000080640100000000008002" +
			"00773118000000010000000000000000000000000000806400000000000080"},
	} {
		if got := hex.EncodeToString(tc.got); got != tc.want {
			t.Errorf("%s payload:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
